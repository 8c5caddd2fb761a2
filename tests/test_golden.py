"""Golden reports: byte-exact stdout, stderr and exit status of `main`.

Every bundled system runs `equations`, `check`, `decompose`, `higher` and
`hyperbolic` (base coordinates 0, field values 1..m) in each format, plus
`verify` of Burgers on its constant section.  Each job's record lives in one
file under `tests/golden/`; a report change shows up as a diff there.

Rewrite the files from the job table below with

    python tests/test_golden.py
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from jetbalance.cli import main, parse_system

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FORMATS = ("text", "latex", "structured")


def golden_jobs() -> dict:
    """Golden file stem -> argv, with paths relative to the repository root."""
    jobs = {}
    for path in sorted((ROOT / "systems").glob("*.bal")):
        system = f"systems/{path.name}"
        chart = parse_system(path.read_text(encoding="utf-8")).chart
        at = ",".join(["0"] * chart.n + [str(k) for k in range(1, chart.m + 1)])
        for fmt in FORMATS:
            for command in ("equations", "check", "decompose", "higher"):
                jobs[f"{path.stem}.{command}.{fmt}"] = [command, system, "--format", fmt]
            jobs[f"{path.stem}.hyperbolic.{fmt}"] = [
                "hyperbolic", system, "--at", at, "--format", fmt,
            ]
    for fmt in FORMATS:
        jobs[f"burgers.verify.{fmt}"] = [
            "verify", "systems/burgers.bal", "--section", "systems/burgers_constant.sec",
            "--format", fmt,
        ]
    return jobs


JOBS = golden_jobs()


def record(argv, status: int, stdout: str, stderr: str) -> str:
    return (
        f"$ jetbalance {' '.join(argv)}\nexit: {status}\n"
        f"--- stderr\n{stderr}--- stdout\n{stdout}"
    )


def run_in_process(argv) -> str:
    resolved = [str(ROOT / a) if a.startswith("systems/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(resolved)
    return record(argv, status, out.getvalue(), err.getvalue())


def golden_path(stem: str) -> Path:
    return GOLDEN / f"{stem}.txt"


@pytest.mark.parametrize("stem", sorted(JOBS))
def test_golden(stem):
    expected = golden_path(stem).read_bytes().decode("utf-8")
    assert run_in_process(JOBS[stem]) == expected


def test_no_stale_golden_files():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        golden_path(stem).name for stem in JOBS
    )


# A `\text{...}` argument, allowing escaped characters and one level of braces.
TEXT_ARGUMENT = re.compile(r"\\text\{((?:[^{}\\]|\\.|\{[^{}]*\})*)\}")


def test_latex_text_arguments_are_escaped():
    """No `\\text{...}` argument of a LaTeX report holds a bare `_`, which
    LaTeX accepts in math mode only."""
    for path in sorted(GOLDEN.glob("*.latex.txt")):
        for argument in TEXT_ARGUMENT.findall(path.read_text(encoding="utf-8")):
            assert re.search(r"(?<!\\)_", argument) is None, (path.name, argument)


def test_negative_words_join_with_a_minus():
    """A form word with a negative sign joins the words before it as
    ` - word`, never as ` + -word`."""
    offenders = [path.name for path in sorted(GOLDEN.glob("*.txt"))
                 if " + -" in path.read_text(encoding="utf-8")]
    assert offenders == []


# One job per (seed, job) pair keeps this to six interpreter starts.
DETERMINISM_JOBS = (
    ("0", "plasticity.decompose.structured"),
    ("0", "hyperelastic.check.text"),
    ("1", "godunov_pair.hyperbolic.latex"),
    ("1", "kdv.decompose.latex"),
    ("4242", "hyperelastic.equations.structured"),
    ("4242", "burgers.hyperbolic.text"),
)


@pytest.mark.parametrize("seed,stem", DETERMINISM_JOBS)
def test_cross_process_determinism(seed, stem):
    """The CLI in a fresh interpreter, under a fixed hash seed, prints the
    golden bytes: no report depends on set or dict hash order."""
    argv = JOBS[stem]
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "jetbalance.cli", *argv], cwd=ROOT, env=env,
        capture_output=True,
    )
    got = record(argv, done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8"))
    assert got == golden_path(stem).read_bytes().decode("utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for stem, argv in JOBS.items():
        golden_path(stem).write_bytes(run_in_process(argv).encode("utf-8"))
    print(f"wrote {len(JOBS)} golden files to {GOLDEN.relative_to(ROOT)}")
