"""Shared fixtures, random generators and hypothesis strategies."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from jetbalance import BalanceSystem, Chart, Form, Poly
from jetbalance.symcore import base_var, jet_var

settings.register_profile(
    "kernel",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("kernel")


CHARTS = (
    Chart(("x",), ("u",)),
    Chart(("t", "x"), ("u",)),
    Chart(("t", "x"), ("u", "v")),
    Chart(("t", "x", "y"), ("u", "v")),
)


@pytest.fixture
def chart_x_u():
    return Chart(("x",), ("u",))


@pytest.fixture
def chart_tx_u():
    return Chart(("t", "x"), ("u",))


@pytest.fixture
def chart_tx_uv():
    return Chart(("t", "x"), ("u", "v"))


def density_chart(n: int, density: str) -> Chart:
    """Fields u, v over n = 1-3 coordinates, one of them x, with the volume
    density 1 or 1 + x^2."""
    base = ("t", "x", "y")[:n] if n > 1 else ("x",)
    x = Poly.variable(base_var(base.index("x")))
    return Chart(base, ("u", "v"), None if density == "1" else 1 + x**2)


def multi_indices(n: int, max_order: int):
    """All length-n multi-indices with total order <= max_order."""
    out = []
    for total in range(max_order + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            counts = [0] * n
            for mu in combo:
                counts[mu] += 1
            out.append(tuple(counts))
    return sorted(set(out))


def variable_pool(chart: Chart, max_order: int, with_base: bool = True):
    pool = [base_var(mu) for mu in range(chart.n)] if with_base else []
    for i in range(chart.m):
        for counts in multi_indices(chart.n, max_order):
            pool.append(jet_var(i, counts))
    return pool


def random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 2, 3, 4])
    return Fraction(num, den)


def random_poly(
    rng: random.Random,
    chart: Chart,
    max_order: int = 1,
    max_degree: int = 3,
    max_terms: int = 3,
    with_base: bool = True,
) -> Poly:
    pool = variable_pool(chart, max_order, with_base)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps: dict = {}
        for _ in range(rng.randint(0, max_degree)):
            var = rng.choice(pool)
            exps[var] = exps.get(var, 0) + 1
        mono = tuple(sorted(exps.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + random_fraction(rng)
    # reorder monomial keys canonically through the constructor
    poly = Poly.zero()
    for mono, coeff in terms.items():
        contrib = Poly.constant(coeff)
        for var, e in mono:
            contrib = contrib * Poly.variable(var) ** e
        poly = poly + contrib
    return poly


def random_form(
    rng: random.Random,
    chart: Chart,
    s: int,
    r: int,
    max_order: int = 2,
    max_terms: int = 2,
) -> Form:
    """Random homogeneous (s, r)-form with polynomial coefficients."""
    gens = [(i, counts) for i in range(chart.m) for counts in multi_indices(chart.n, max_order)]
    total = Form.zero(chart)
    for _ in range(rng.randint(1, max_terms)):
        hw = tuple(sorted(rng.sample(range(chart.n), s)))
        cw = tuple(sorted(rng.sample(gens, r)))
        coeff = random_poly(rng, chart, max_order=max_order, max_degree=2, max_terms=2)
        total = total + word_form(chart, hw, cw, coeff)
    return total


def word_form(chart: Chart, hw: tuple, cw: tuple, coeff: Poly) -> Form:
    """coeff dx^hw wedged with the contact forms of the (field, multi-index)
    pairs cw, in the order given."""
    term = Form(chart, {(hw, ()): coeff})
    for i, counts in cw:
        term = term.wedge(Form.contact(chart, i, counts))
    return term


def random_system(rng: random.Random, chart: Chart, max_order: int = 1, max_degree: int = 3) -> BalanceSystem:
    F = [
        [random_poly(rng, chart, max_order, max_degree, 2) for _ in range(chart.n)]
        for _ in range(chart.m)
    ]
    Pi = [random_poly(rng, chart, max_order, max_degree, 2) for _ in range(chart.m)]
    return BalanceSystem(chart, F, Pi)


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def charts(draw):
    return draw(st.sampled_from(CHARTS))


@st.composite
def polys(draw, chart=None, max_order=2, max_degree=3, max_terms=3):
    if chart is None:
        chart = draw(charts())
    pool = variable_pool(chart, max_order)
    n_terms = draw(st.integers(1, max_terms))
    poly = Poly.zero()
    for _ in range(n_terms):
        coeff = Fraction(
            draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 4))
        )
        contrib = Poly.constant(coeff)
        for _ in range(draw(st.integers(0, max_degree))):
            var = draw(st.sampled_from(pool))
            contrib = contrib * Poly.variable(var)
        poly = poly + contrib
    return chart, poly


@st.composite
def homogeneous_forms(draw, s=None, r=None, max_order=2):
    chart = draw(charts())
    if s is None:
        s = draw(st.integers(0, chart.n))
    if r is None:
        r = draw(st.integers(1, 2))
    gens = [(i, counts) for i in range(chart.m) for counts in multi_indices(chart.n, max_order)]
    n_terms = draw(st.integers(1, 2))
    total = Form.zero(chart)
    for _ in range(n_terms):
        hw = tuple(sorted(draw(st.permutations(range(chart.n)))[:s]))
        cw_pick = draw(st.permutations(gens))[:r]
        cw = tuple(sorted(cw_pick))
        if len(set(cw)) != r:
            continue
        _, coeff = draw(polys(chart=chart, max_order=max_order, max_degree=2, max_terms=2))
        total = total + word_form(chart, hw, cw, coeff)
    return total
