"""The names the benchmark under `bench/` relies on.

`bench/tracing.py` wraps a fixed list of functions and methods by name, and
the other benchmark scripts import from the package.  A refactor that
renames one of them fails here instead of in a later benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    """`bench/tracing.py` by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """Every traced name is a module function, or a method defined on the
    class itself (the tracer replaces it in the class dict)."""
    missing = []
    for layer, names in _load_tracing().LAYERS.items():
        module = importlib.import_module(f"jetbalance.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if not callable(vars(owner).get(attr)):
                missing.append(f"{layer}.{qualname}")
    assert missing == []


def _package_imports():
    """(file, module, name) for each import of the package in `bench/*.py`;
    name is None for a plain `import`."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jetbalance"):
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.startswith("jetbalance"))


def test_benchmark_imports_resolve():
    imports = list(_package_imports())
    assert imports
    missing = []
    for file, module, name in imports:
        imported = importlib.import_module(module)
        if name is None or hasattr(imported, name):
            continue
        if not hasattr(imported, "__path__") or not importlib.util.find_spec(f"{module}.{name}"):
            missing.append((file, module, name))
    assert missing == []


def test_benchmark_checks_hold_on_bundled_systems(monkeypatch):
    """`bench/check.py` drives the document (`has_higher_entries`,
    `to_higher_data`, `to_balance_system`) and the residual functions at run
    time; its `check_system` finds no problem on any bundled system."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_check", BENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    systems = sorted((BENCH.parent / "systems").glob("*.bal"))
    assert systems
    for path in systems:
        assert module.check_system(path.read_text(encoding="utf-8")) == [], path.name
