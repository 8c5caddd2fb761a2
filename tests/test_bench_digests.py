"""The report bytes of the generated benchmark workloads, pinned by digest.

`bench/gen.py` (loaded by path, read-only) builds the seed-7 `ladder_lib`
and `powers_lib` workloads.  Every job runs in process as the benchmark
runs it, parse -> run -> render, and the outcomes of the jobs of one
(workload, command, format) go into one sha256 in job order.  The digests
live in `tests/golden/bench_digests.json`; a change to any report byte of
these 360 jobs shows up there.  The module needs no pytest, so any
interpreter can check it.  Rewrite the file with

    python tests/test_bench_digests.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from jetbalance import cli
from jetbalance.symcore import EngineError

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "bench_digests.json"
SEED = 7
WORKLOADS = ("ladder_lib", "powers_lib")


def _load_gen():
    """`bench/gen.py` by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(workload: dict, job: dict) -> bytes:
    """The exit status, diagnostic code and report of one job."""
    at = [Fraction(v) for v in job["at"].split(",")] if job.get("at") else None
    section = workload["sections"].get(job.get("section"))
    try:
        doc = cli.parse_system(workload["systems"][job["system"]])
        report = cli.run(job["command"], doc, at=at, section_text=section)
        payload = cli.render(report, job["format"])
    except EngineError as exc:
        return f"{job['system']} exit 2 {exc.code}\n".encode("utf-8")
    codes = [c["error"]["code"] for c in report.sections.values() if "error" in c]
    status = f"exit 2 {codes[0]}" if codes else "exit 0"
    return f"{job['system']} {status}\n".encode("utf-8") + payload


def digests(seed: int = SEED) -> dict:
    """"workload command format" -> sha256 of its jobs' outcomes, in job order."""
    gen = _load_gen()
    out: dict = {}
    for name in WORKLOADS:
        workload = gen.WORKLOADS[name](seed, ROOT)
        for job in workload["jobs"]:
            key = f"{name} {job['command']} {job['format']}"
            out.setdefault(key, hashlib.sha256()).update(_outcome(workload, job))
    return {key: h.hexdigest() for key, h in sorted(out.items())}


def test_generated_reports_match_their_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digests() == expected


def test_digests_cover_every_generated_job():
    gen = _load_gen()
    counts = {name: len(gen.WORKLOADS[name](SEED, ROOT)["jobs"]) for name in WORKLOADS}
    assert counts == {"ladder_lib": 288, "powers_lib": 72}
    assert len(json.loads(DIGESTS.read_text(encoding="utf-8"))) == 18 + 9


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
