"""The scripts under `scripts/`, run in-process: each exits 0 and prints the
pinned lines of the bundled examples.  The README's Python quickstart, run
in a subprocess, prints what its comments say."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _main(name: str):
    return runpy.run_path(str(SCRIPTS / name), run_name="script")["main"]


def test_run_catalog(capsys):
    assert _main("run_catalog.py")([]) == 0
    out = capsys.readouterr().out.splitlines()
    # every bundled system, first-order ones through check and decompose
    assert [line.split()[1] for line in out if line.startswith("#####")] == [
        "biharmonic.bal", "burgers.bal", "conservation_u2.bal", "filtration.bal",
        "godunov_pair.bal", "hyperelastic.bal", "kdv.bal", "plasticity.bal",
    ]
    assert out.count("== godunov ==") == 7
    for order in (1, 2, 2):  # burgers, filtration, kdv
        note = f"note: Godunov classification is defined for zero-order systems; this one has order {order}"
        assert note in out
    assert out.count("applicable: false") == 3 and out.count("applicable: true") == 4
    assert "potentials[t]: 1/2 q^2 + 1/2 p^2" in out  # godunov_pair
    assert "godunov_components[u]: u u_x - u_t" in out  # burgers


def test_run_catalog_selects_by_name(capsys):
    assert _main("run_catalog.py")(["burgers"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("#####")] == [f"##### burgers.bal {'#' * 49}"]
    assert "value: -1/6 u^2 u_x + 1/2 u u_t - 1/2 u_x^2" in out


def test_table_of_examples(capsys):
    assert _main("table_of_examples.py")() == 0
    out = capsys.readouterr().out.splitlines()
    burgers = out[out.index("Burgers:") :][:4]
    assert burgers == [
        "Burgers:",
        "  quasi-Lagrangian  -1/6 u^2 u_x + 1/2 u u_t - 1/2 u_x^2",
        "  divergence form   d_t(1/4 u^2) + d_x(-1/18 u^3) - 1/2 u_x^2",
        "  Lagrangian part   u_xx = 0",
    ]
    assert "  divergence form   d_t(1/4 u^2) + d_x(1/3 u^3 + 1/4 u_x^2)" in out  # KdV
    assert out.count("  Lagrangian part   0 = 0") == 2  # conservation law, KdV


def test_readme_quickstart():
    """Each `print(...)` line of the README's `python` block ends in a
    comment holding exactly the line it prints."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.rsplit("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines() == expected
