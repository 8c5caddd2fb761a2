"""Benchmark worker: runs one workload's jobs in a closed loop, one job at a
time, in a process of its own so that its peak memory is the program's.

    python bench/worker.py JOBS.json RESULT.json --seconds S [--spans FILE]
    python bench/worker.py --cli-trace FILE -- <jetbalance arguments>

The first form times whole passes over the job list, and keeps going until
`--seconds` have passed (always at least one full pass).  With `--spans` it
instead runs every job once untraced and once traced and writes the spans of
the traced runs to FILE.
The second form is one traced command-line call, used for the traced pass
of the command-line workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing
from speed import SpeedLog

KEEP_OUTPUT = ("equations", "higher", "verify")
_ERROR = re.compile(rb"error\[([^\]]+)\]")


class LibRunner:
    """Jobs as library calls: parse -> run(command) -> render(format)."""

    def __init__(self, workload: dict):
        from jetbalance import cli
        from jetbalance.symcore import EngineError

        self.cli = cli
        self.engine_error = EngineError
        self.systems = workload["systems"]
        self.sections = workload["sections"]

    def __call__(self, job: dict):
        cli = self.cli  # attribute lookups, so that the tracer's wrappers apply
        at = [Fraction(v) for v in job["at"].split(",")] if job.get("at") else None
        section = self.sections.get(job.get("section"))
        try:
            doc = cli.parse_system(self.systems[job["system"]])
            report = cli.run(job["command"], doc, at=at, section_text=section)
            payload = cli.render(report, job["format"])
        except self.engine_error as exc:
            return 2, exc.code, b""
        except Exception as exc:  # an invariant violation; reported as a failed job
            return 3, f"internal: {exc!r}", b""
        for content in report.sections.values():
            if "error" in content:
                return 2, content["error"]["code"], payload
        return 0, None, payload


class CliRunner:
    """Jobs as `python -m jetbalance.cli` calls; the child environment
    (PYTHONPATH, bytecode prefix) is inherited from this process."""

    def __init__(self, root: Path):
        self.root = root
        self.spans: list = []

    def __call__(self, job: dict, span_file: Path | None = None):
        argv = [sys.executable, "-m", "jetbalance.cli", *job["argv"]]
        if span_file is not None:
            argv = [sys.executable, __file__, "--cli-trace", str(span_file), "--", *job["argv"]]
        proc = subprocess.run(argv, cwd=self.root, capture_output=True, check=False)
        if span_file is not None:
            offset = len(self.spans)
            for parent, _, name, start, end, value in tracing.read_spans(span_file):
                self.spans.append((parent + offset if parent >= 0 else -1, job["index"],
                                   name, start, end, value))
        found = _ERROR.search(proc.stderr)
        return proc.returncode, found.group(1).decode() if found else None, proc.stdout


def _new_result() -> dict:
    return {"times": [], "digests": [], "status": [], "output": None}


def _timed(runner, job: dict, result: dict) -> float:
    """Run one job and record its time, report digest and exit status."""
    t0 = time.perf_counter()
    exit_code, code, payload = runner(job)
    seconds = time.perf_counter() - t0
    result["times"].append(seconds)
    result["digests"].append(hashlib.sha256(payload).hexdigest())
    if [exit_code, code] not in result["status"]:
        result["status"].append([exit_code, code])
    if result["output"] is None and job["command"] in KEEP_OUTPUT and job["format"] == "structured":
        result["output"] = payload.decode("utf-8")
    return seconds


def closed_loop(jobs: list, runner, seconds: float) -> dict:
    """One client: each job starts when the previous one has finished.  The
    machine's speed is probed between jobs (see speed.py), and each job's
    time is also given scaled to the reference speed."""
    results = [_new_result() for _ in jobs]
    speed = SpeedLog()
    intervals = []  # (result, start, seconds) of every execution
    deadline = time.perf_counter() + seconds
    full_passes = 0
    while full_passes == 0 or time.perf_counter() < deadline:
        for job, result in zip(jobs, results):
            if full_passes and time.perf_counter() >= deadline:
                break
            speed.maybe_probe()
            start = time.perf_counter()
            intervals.append((result, start, _timed(runner, job, result)))
        else:
            full_passes += 1
    speed.probe()
    for result in results:
        result["scaled"] = []
    for result, start, seconds in intervals:
        result["scaled"].append(speed.scaled(start, seconds))
    return {"jobs": results, "full_passes": full_passes,
            "probe_ms": 1000 * statistics.median(speed.probes)}


def traced_runs(jobs: list, runner, spans_path: Path) -> dict:
    """Each job untraced and then traced, one right after the other, so that
    the tracing overhead compares runs made under the same conditions; the
    spans of the traced runs go to `spans_path`."""
    plain = [_new_result() for _ in jobs]
    traced = [_new_result() for _ in jobs]
    untraced_s = traced_s = 0.0
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=spans_path.parent) as span_dir:
        span_file = Path(span_dir) / "job.spans"
        for job, plain_result, traced_result in zip(jobs, plain, traced):
            untraced_s += _timed(runner, job, plain_result)
            if isinstance(runner, CliRunner):
                traced_s += _timed(lambda j: runner(j, span_file), job, traced_result)
                continue
            tracer.job_id = job["index"]
            restore = tracer.install()
            try:
                traced_s += _timed(runner, job, traced_result)
            finally:
                restore()
    spans = runner.spans if isinstance(runner, CliRunner) else tracer.spans()
    tracing.write_spans(spans_path, spans)
    return {"jobs": plain, "traced_jobs": traced, "untraced_s": untraced_s, "traced_s": traced_s}


def make_runner(workload: dict, root: Path):
    return CliRunner(root) if workload["kind"] == "cli" else LibRunner(workload)


def cli_trace(span_file: str, argv: list) -> int:
    """One command-line call with the tracer installed."""
    from jetbalance import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracing.write_spans(span_file, tracer.spans())


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--cli-trace":
        return cli_trace(sys.argv[2], sys.argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="run each job untraced and traced; spans go here")
    args = parser.parse_args()
    workload = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    root = Path(workload["root"])
    jobs = workload["jobs"]
    for index, job in enumerate(jobs):
        job["index"] = index
    runner = make_runner(workload, root)
    if args.spans:
        result = traced_runs(jobs, runner, Path(args.spans))
    else:
        result = closed_loop(jobs, runner, args.seconds)
    who = resource.RUSAGE_CHILDREN if workload["kind"] == "cli" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
