"""Output checks, run after the timed passes.

A job fails when its exit status or diagnostic code is not the expected one,
when its report bytes differ between repetitions (or between the traced and
untraced passes), when its command-line output differs from the same job run
in-process, or when its system fails one of the checks below.  Report digests
are never pinned: report bytes are expected to change between versions.

Per distinct system, on the program's own objects:
  residuals = -(source components),
  Lagrangian part + non-Lagrangian part = encoding,
  Godunov components + Euler-Lagrange components = source components,
  d_V h(d_V encoding) = d_V encoding (the homotopy identity),
and the residuals recomputed with sympy from the system text, read without
the program's parser.  Structured `equations`, `higher` and `verify` reports
are compared with the same sympy residuals.
"""

from __future__ import annotations

import functools
import json
import re
from itertools import combinations_with_replacement

import sympy
from sympy.polys.domains import QQ
from sympy.polys.rings import ring
from sympy.parsing.sympy_parser import (
    convert_xor,
    implicit_multiplication,
    parse_expr,
    standard_transformations,
)

from gen import read_bal

_TRANSFORMS = standard_transformations + (implicit_multiplication, convert_xor)
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TERM = re.compile(r" ([+-]) (.+?)(?= [+-] |$)")
_NUMBER = re.compile(r"\d+(/\d+)?")


def _segment(run: str, base: tuple) -> tuple:
    """Derivative counts of a coordinate run such as 'txx' (longest name first)."""
    counts = [0] * len(base)
    names = sorted(base, key=len, reverse=True)
    while run:
        name = next(n for n in names if run.startswith(n))
        counts[base.index(name)] += 1
        run = run[len(name):]
    return tuple(counts)


def _jet_name(base: tuple, field: str, counts: tuple) -> str:
    suffix = "".join(name * c for name, c in zip(base, counts))
    return f"{field}_{suffix}" if suffix else field


class SympyChart:
    """Jet variables as generators of a sympy polynomial ring over QQ, with
    the total derivative written directly on that ring."""

    def __init__(self, base: tuple, fields: tuple, order: int):
        self.base = base
        self.jets = {}  # generator name -> (field, counts)
        for field in fields:
            for total in range(order + 1):
                for combo in combinations_with_replacement(range(len(base)), total):
                    counts = tuple(combo.count(mu) for mu in range(len(base)))
                    self.jets[_jet_name(base, field, counts)] = (field, counts)
        self.ring, *gens = ring(list(base) + list(self.jets), QQ)
        self.gen = dict(zip(list(base) + list(self.jets), gens))
        self.symbols = {name: sympy.Symbol(name) for name in self.gen}

    def parse(self, text: str):
        expr = parse_expr(text, local_dict=self.symbols, transformations=_TRANSFORMS)
        return self.ring.from_expr(expr)

    def parse_printed(self, text: str):
        """A polynomial as reports print it: terms joined by ' + ' / ' - ',
        each an optional p or p/q followed by factors name or name^e; anything
        else goes to `parse`.  Every run checks its printed residuals, and
        `parse` is too slow for that on large ones: for the six structured
        `equations` reports of powers_lib seed 41 it takes 26 s, against
        0.19 s here (Python 3.11.7, sympy 1.14, 2-core 2.1 GHz Xeon)."""
        out = self.ring.zero
        text = text.strip()
        text = " - " + text[1:] if text.startswith("-") else " + " + text
        try:
            for sign, term in _TERM.findall(text):
                tokens = term.split(" ")
                coeff = QQ(1)
                if _NUMBER.fullmatch(tokens[0]):
                    coeff = QQ(*map(int, tokens.pop(0).split("/")))
                monomial = self.ring.one
                for factor in tokens:
                    name, _, power = factor.partition("^")
                    monomial *= self.gen[name] ** int(power or 1)
                out += monomial * (-coeff if sign == "-" else coeff)
        except (KeyError, ValueError):
            return self.parse(text)
        return out

    def total_derivative(self, p, mu: int):
        out = p.diff(self.gen[self.base[mu]])
        for name, (field, counts) in self.jets.items():
            if p.degree(self.gen[name]) > 0:
                up = tuple(c + (k == mu) for k, c in enumerate(counts))
                out += p.diff(self.gen[name]) * self.gen[_jet_name(self.base, field, up)]
        return out

    def from_poly(self, p, chart):
        """The program's polynomial in this ring, variable by variable name."""
        out = self.ring.zero
        for mono, coeff in p.terms.items():
            term = self.ring(QQ(coeff.numerator, coeff.denominator))
            for var, e in mono:
                term *= self.gen[chart.var_name(var)] ** e
            out += term
        return out


def _order(names, base: tuple, fields: tuple) -> int:
    orders = [0]
    for name in names:
        head, _, run = name.partition("_")
        if head in fields and run:
            orders.append(sum(_segment(run, base)))
    return max(orders)


@functools.lru_cache(maxsize=None)
def sympy_residuals(text: str) -> tuple:
    """Residuals sum over entries (-1)^(order-1) d^counts(F rho) - Pi rho, by
    field; for first-order entries this is sum_mu d_mu(F rho) - Pi rho."""
    decl = read_bal(text)
    base, fields = decl["base"], decl["fields"]
    exprs = [*decl["fluxes"].values(), *decl["sources"].values()]
    runs = [_segment(run, base) for _, run in decl["fluxes"]]
    order = _order(_NAME.findall(" ".join(exprs)), base, fields) + max(map(sum, runs), default=0)
    chart = SympyChart(base, fields, order)
    rho = chart.parse(decl["density"] or "1")
    residuals = {f: -chart.parse(decl["sources"].get(f, "0")) * rho for f in fields}
    for ((field, _), expr), counts in zip(decl["fluxes"].items(), runs):
        piece = chart.parse(expr) * rho
        for mu, reps in enumerate(counts):
            for _ in range(reps):
                piece = chart.total_derivative(piece, mu)
        residuals[field] += piece if sum(counts) % 2 else -piece
    return chart, residuals


def check_system(text: str) -> list:
    """Problems found on one system; an empty list when every check holds."""
    from jetbalance.balance import balance_form, balance_residuals, decompose, source_form
    from jetbalance.cli import parse_system
    from jetbalance.variational import higher_balance_residuals, vertical_homotopy

    problems = []
    doc = parse_system(text)
    chart, expected = sympy_residuals(text)
    if doc.has_higher_entries:
        residuals = higher_balance_residuals(doc.to_higher_data())
    else:
        bs = doc.to_balance_system()
        residuals = balance_residuals(bs)
        source = source_form(bs).components()
        omega = balance_form(bs)
        dec = decompose(bs)
        if any(r != -s for r, s in zip(residuals, source)):
            problems.append("residuals != -source components")
        if dec.lagrangian_part + dec.nonlagrangian_part != omega:
            problems.append("Lagrangian + non-Lagrangian parts != encoding")
        parts = zip(dec.godunov_part.components(), dec.euler_lagrange_form.components(), source)
        if any(g + e != s for g, e, s in parts):
            problems.append("Godunov + Euler-Lagrange components != source components")
        d_omega = omega.d_V()
        if vertical_homotopy(d_omega).d_V() != d_omega:
            problems.append("homotopy identity fails on the encoding")
    for field, r in zip(doc.chart.field_names, residuals):
        if chart.from_poly(r, doc.chart) != expected[field]:
            problems.append(f"residual of {field} differs from sympy")
    return problems


def check_report(job: dict, output: str, system_text: str, section_text: str | None) -> list:
    """Compare the residuals a structured report prints with sympy's."""
    chart, expected = sympy_residuals(system_text)
    analyses = json.loads(output)["analyses"]
    if job["command"] == "equations":
        printed = analyses["equations"]["residuals"]
    elif job["command"] == "higher":
        printed = analyses["higher_order"]["residuals"]
    else:
        printed = analyses["section_check"]["residuals"]
        body = "\n".join(line.split("#", 1)[0] for line in section_text.splitlines())
        section = {}
        for statement in body.split(";"):
            if statement.strip():
                field, expr = statement.split("=", 1)
                section[field.strip()] = chart.parse(expr)
        prolonged = []
        for name, (field, counts) in chart.jets.items():
            value = section[field]
            for mu, reps in enumerate(counts):
                for _ in range(reps):
                    value = value.diff(chart.gen[chart.base[mu]])
            prolonged.append((chart.gen[name], value))
        expected = {f: r.compose(prolonged) for f, r in expected.items()}
    return [f"printed residual of {field} differs from sympy"
            for field, r in expected.items() if chart.parse_printed(printed[field]) != r]
