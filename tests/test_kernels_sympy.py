"""Differential test of the symcore kernels against sympy.

`*`, `**`, `div_exact` and `sorted_terms` on seeded random polynomials are
compared with `sympy.Poly` over the rationals.  The generators are the chart's
variables in descending `var_rank`, so sympy's `grlex` order is the graded
order the renderers print in.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetbalance import Chart, Poly
from jetbalance.symcore import base_var, var_rank

from conftest import random_poly, variable_pool

sympy = pytest.importorskip("sympy")

CHARTS = (Chart(("x",), ("u",)), Chart(("t", "x"), ("u", "v")))
ORDERS = (0, 1, 2)


def _gens(chart: Chart):
    pool = sorted(variable_pool(chart, max(ORDERS)), key=var_rank, reverse=True)
    return pool, sympy.symbols(f"g0:{len(pool)}")


def _exponents(mono, pool) -> tuple:
    exps = [0] * len(pool)
    for var, e in mono:
        exps[pool.index(var)] = e
    return tuple(exps)


def _to_sympy(p: Poly, chart: Chart):
    pool, gens = _gens(chart)
    coeffs = {_exponents(mono, pool): sympy.Rational(c.numerator, c.denominator)
              for mono, c in p.terms.items()}
    if not coeffs:
        coeffs = {(0,) * len(pool): sympy.Integer(0)}
    return sympy.Poly.from_dict(coeffs, *gens, domain="QQ")


def _cases(count: int, charts=CHARTS):
    """(chart, jet order, seed) triples cycling through the charts and the
    jet orders."""
    return [(charts[k % len(charts)], ORDERS[k % len(ORDERS)], 1000 + k) for k in range(count)]


@pytest.mark.parametrize("chart,order,seed", _cases(24))
def test_product(chart, order, seed):
    rng = random.Random(seed)
    a = random_poly(rng, chart, max_order=order, max_degree=3, max_terms=4)
    b = random_poly(rng, chart, max_order=order, max_degree=3, max_terms=4)
    assert _to_sympy(a * b, chart) == _to_sympy(a, chart) * _to_sympy(b, chart)


@pytest.mark.parametrize("chart,order,seed", _cases(24))
def test_power(chart, order, seed):
    rng = random.Random(seed)
    p = random_poly(rng, chart, max_order=order, max_degree=2, max_terms=3)
    one_term = Poly({next(iter(p.terms)): Fraction(-2, 3)})
    exponent = rng.randint(2, 12)
    for base, e in ((p, 0), (p, 1), (one_term, exponent), (p, exponent)):
        assert _to_sympy(base**e, chart) == _to_sympy(base, chart) ** e


_T, _X = Poly.variable(base_var(0)), Poly.variable(base_var(1))
DIVISORS = {
    "1": Poly.constant(1),
    "3/2": Poly.constant(Fraction(3, 2)),
    "1 + x^2": 1 + _X**2,
    "2 + t x": 2 + _T * _X,
}


@pytest.mark.parametrize("divisor", sorted(DIVISORS))
@pytest.mark.parametrize("chart,order,seed", _cases(12, charts=CHARTS[1:]))  # t and x
def test_div_exact(chart, order, seed, divisor):
    rng = random.Random(seed)
    g = DIVISORS[divisor]
    q = random_poly(rng, chart, max_order=order, max_degree=3, max_terms=4)
    extra = random_poly(rng, chart, max_order=order, max_degree=2, max_terms=2)
    conjugate = g - 2 * g.constant_term()  # g * conjugate cancels the cross terms
    for f in (q * g, q * conjugate * g, q * g + extra, extra):
        sq, sr = _to_sympy(f, chart).div(_to_sympy(g, chart))
        ours = f.div_exact(g)
        if sr.is_zero:
            assert ours is not None and _to_sympy(ours, chart) == sq
        else:
            assert ours is None


@pytest.mark.parametrize("chart,order,seed", _cases(24))
def test_sorted_terms_is_grlex(chart, order, seed):
    rng = random.Random(seed)
    pool, _ = _gens(chart)
    p = random_poly(rng, chart, max_order=order, max_degree=4, max_terms=8)
    ours = [(_exponents(mono, pool), sympy.Rational(c.numerator, c.denominator))
            for mono, c in p.sorted_terms()]
    expected = [t for t in _to_sympy(p, chart).terms(order="grlex") if t[1]]
    assert ours == expected
