"""Differential test of the symcore kernels against sympy.

`*`, `**`, `div_exact` and `sorted_terms` on seeded random polynomials are
compared with `sympy.Poly` over the rationals, `_bareiss` with sympy's
rank and determinant, and `leading_minors` with sympy's determinant of each
leading block, and every coefficient met on
the way is an int or a Fraction, never a float.  The generators are the chart's
variables in descending order (a variable compares as its rank), so sympy's
`grlex` order is the graded order the renderers print in.  `total_derivative`
is checked by the chain rule on a polynomial section, and `euler_lagrange` against
`sympy.calculus.euler.euler_equations`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from jetbalance import BalanceSystem, Chart, Poly, euler_lagrange, symmetric_hyperbolicity
from jetbalance.symcore import (
    _affinely_independent, _bareiss, base_index, base_var, is_jet, jet_parts, jet_var,
)

from conftest import random_poly, variable_pool

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

CHARTS = (Chart(("x",), ("u",)), Chart(("t", "x"), ("u", "v")))
ORDERS = (0, 1, 2)


def _gens(chart: Chart):
    # one order above ORDERS: a total derivative raises the jet order
    pool = sorted(variable_pool(chart, max(ORDERS) + 1), reverse=True)
    return pool, sympy.symbols(f"g0:{len(pool)}")


def _exponents(mono, pool) -> tuple:
    exps = [0] * len(pool)
    for var, e in mono:
        exps[pool.index(var)] = e
    return tuple(exps)


def _no_floats(p: Poly) -> Poly:
    assert all(type(c) in (int, Fraction) for c in p.terms.values())
    return p


def _to_sympy(p: Poly, chart: Chart):
    pool, gens = _gens(chart)
    coeffs = {_exponents(mono, pool): sympy.Rational(c.numerator, c.denominator)
              for mono, c in _no_floats(p).terms.items()}
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
_U, _V, _U_X = CHARTS[1].field(0), CHARTS[1].field(1), CHARTS[1].jet(0, (0, 1))
# name -> (base over (t, x; u, v), are its exponent vectors affinely independent?)
POWER_BASES = {
    "1/2 u - 3 u_x + 2/3 x^2 + 1": (Fraction(1, 2) * _U - 3 * _U_X + Fraction(2, 3) * _X**2 + 1, True),
    "-2/3 u v + 5 t - 1/4": (Fraction(-2, 3) * _U * _V + 5 * _T - Fraction(1, 4), True),
    "u + u_x + x + 1": (_U + _U_X + _X + 1, True),
    "3/4 t x^2 - u_x^3": (Fraction(3, 4) * _T * _X**2 - _U_X**3, True),
    "1 + x + x^2": (1 + _X + _X**2, False),
    "u + u^2 + u^3": (_U + _U**2 + _U**3, False),
    "u x + u + x + 1": (_U * _X + _U + _X + 1, False),
    "u x - u - x + 1": (_U * _X - _U - _X + 1, False),
}


@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_power_of_a_sum(name):
    """Both expansions of `**`: the multinomial one on affinely independent
    bases, repeated products on the others."""
    base, independent = POWER_BASES[name]
    assert _affinely_independent(base.terms) is independent
    for e in (2, 3, 7):
        assert _to_sympy(base**e, CHARTS[1]) == _to_sympy(base, CHARTS[1]) ** e


@pytest.mark.parametrize("seed", range(16))
def test_bareiss_rank_and_determinant(seed):
    """Int matrices (odd seeds) and rational ones (even seeds), each row of a
    rational one cleared by the lcm d_i of its denominators, so that det / (d_1
    ... d_k) is its determinant; entries in -2..2 make zero pivots, row swaps
    and singular matrices common."""
    rng = random.Random(seed)
    size, cols = rng.randint(1, 4), rng.randint(1, 4)
    rows = [[rng.randint(-2, 2) if seed % 2 else Fraction(rng.randint(-2, 2), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(size)]
    matrix = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row]
                           for row in rows])
    scales = [math.lcm(*(a.denominator for a in row)) for row in rows]
    cleared = [[a.numerator * (d // a.denominator) for a in row] for row, d in zip(rows, scales)]
    assert all(type(a) is int for row in cleared for a in row)
    rank, det = _bareiss(cleared)
    assert rank == matrix.rank()
    assert sympy.Rational(det, math.prod(scales)) == (matrix.det() if size == cols else 0)


@pytest.mark.parametrize("seed", range(16))
def test_leading_minors(seed):
    """`leading_minors` are sympy's determinants of the leading blocks of a
    rational m-by-m matrix A, m up to 8: the fluxes F[i, t] = sum_j 2 A_ij u_j
    have the time matrix A.  Seeds 2 mod 3 copy a multiple of row 0 into a
    later row, so that every minor from that row on vanishes."""
    rng = random.Random(seed)
    m = 1 + seed % 8
    A = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)] for _ in range(m)]
    if seed % 3 == 2 and m > 1:
        A[rng.randrange(1, m)] = [Fraction(-3, 2) * a for a in A[0]]
    chart = Chart(("t",), tuple("uvwabcde"[:m]))
    F = [[sum((2 * a * chart.field(j) for j, a in enumerate(row)), Poly.zero())] for row in A]
    report = symmetric_hyperbolicity(BalanceSystem(chart, F, [Poly.zero()] * m), [0] * (m + 1))
    matrix = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row] for row in A])
    expected = [matrix[:k, :k].det() for k in range(1, m + 1)]
    assert [sympy.Rational(v.numerator, v.denominator) for v in report.leading_minors] == expected
    assert report.singular == (0 in expected)
    if seed % 3 == 2 and m > 1:
        assert expected[-1] == 0


@pytest.mark.parametrize("e", [0, 1, 5])
def test_power_of_zero(e):
    assert _to_sympy(Poly.zero() ** e, CHARTS[1]) == _to_sympy(Poly.zero(), CHARTS[1]) ** e


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


def test_integral_coefficients_are_ints():
    u = CHARTS[1].field(0)
    assert all(type(c) is int for c in ((u + _X + 1) ** 12).terms.values())
    assert [type(c) for c in u.terms.values()] == [int]
    assert [type(c) for c in (2 * u / 2).terms.values()] == [int]
    quarter = Poly.constant(Fraction(1, 2)) / 2
    assert quarter.terms == {(): Fraction(1, 4)} and type(quarter.terms[()]) is Fraction


def test_evaluate_returns_a_fraction():
    """Report leaves are Fractions (the renderers dispatch on the type), so
    a value at an integral point is a Fraction although the coefficients
    are ints."""
    u = CHARTS[1].field(0)
    point = {base_var(1): 2, jet_var(0, (0, 0)): -1}
    for p, value in (((u + _X + 1) ** 3, 8), (Poly.constant(3), 3), (Poly.zero(), 0)):
        assert type(p.evaluate(point)) is Fraction and p.evaluate(point) == value


def _section(rng: random.Random, chart: Chart, degree: int = 5):
    """Base symbols and, per field, a seeded dense polynomial in them."""
    xs = sympy.symbols(f"X0:{chart.n}")
    monos = sympy.itermonomials(xs, degree)
    fields = [sum(sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3)) * m
                  for m in sorted(monos, key=sympy.default_sort_key))
              for _ in range(chart.m)]
    return xs, fields


def _expr(p: Poly, value):
    """p as a sympy expression, each variable replaced by value(var)."""
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(value(v) ** e for v, e in mono))
                       for mono, c in _no_floats(p).terms.items()))


def _on_section(p: Poly, xs, fields):
    """p with x^mu -> X_mu and each jet variable z^i_Lambda -> the matching
    derivative of field i."""
    def value(var):
        if not is_jet(var):
            return xs[base_index(var)]
        i, counts = jet_parts(var)
        return sympy.diff(fields[i], *zip(xs, counts))

    return sympy.expand(_expr(p, value))


@pytest.mark.parametrize("chart,order,seed", _cases(24))
def test_total_derivative_is_the_chain_rule(chart, order, seed):
    rng = random.Random(seed)
    p = random_poly(rng, chart, max_order=order, max_degree=4, max_terms=5)
    xs, fields = _section(rng, chart)
    on_section = _on_section(p, xs, fields)
    for mu in range(chart.n):
        assert _on_section(p.total_derivative(mu), xs, fields) == sympy.diff(on_section, xs[mu])


def _jet_symbols(expr, funcs, xs):
    """Each u_i(X) and derivative of it replaced by the symbol z{i}_{counts},
    so that mixed derivatives compare whatever their variable order."""
    def counts_of(d):
        counts = [0] * len(xs)
        for v, c in d.variable_count:
            counts[xs.index(v)] += c
        return tuple(counts)

    def symbol(i, counts):
        return sympy.Symbol(f"z{i}_" + "_".join(map(str, counts)))

    expr = expr.replace(lambda e: isinstance(e, sympy.Derivative),
                        lambda d: symbol(funcs.index(d.expr), counts_of(d)))
    return expr.subs({f: symbol(i, (0,) * len(xs)) for i, f in enumerate(funcs)})


@pytest.mark.parametrize("chart,order,seed", [
    (CHARTS[k % 2], 1 + (k // 2) % 2, 2000 + k) for k in range(12)
])
def test_euler_lagrange_matches_sympy(chart, order, seed):
    rng = random.Random(seed)
    lagrangian = random_poly(rng, chart, max_order=order, max_degree=3, max_terms=4)
    # sympy drops an equation that reduces to a constant; a quartic term per
    # field keeps each one non-constant
    lagrangian = lagrangian + sum((chart.field(i) ** 4 for i in range(chart.m)), Poly.zero())
    xs = sympy.symbols(f"X0:{chart.n}")
    funcs = [sympy.Function(f"u{i}")(*xs) for i in range(chart.m)]

    def value(var):  # x^mu -> X_mu, z^i_Lambda -> the derivative of u_i(X)
        if not is_jet(var):
            return xs[base_index(var)]
        i, counts = jet_parts(var)
        return sympy.Derivative(funcs[i], *zip(xs, counts)) if any(counts) else funcs[i]

    ours = euler_lagrange(chart, lagrangian).components()
    expected = euler_equations(_expr(lagrangian, value), funcs, xs)
    assert len(expected) == chart.m
    for i, eq in enumerate(expected):
        difference = _jet_symbols(_expr(ours[i], value) - eq.lhs + eq.rhs, funcs, list(xs))
        assert sympy.expand(difference) == 0


# The parser against sympy's: the same text read by `parse_system` and by
# `sympy.parse_expr` with implicit multiplication and `^` as `**`.
_NAMES = ("t", "x", "u", "v", "u_t", "u_x", "v_tx", "d(u; 1, 0)", "d(v; 0, 2)")
_EXPLICIT = {"d(u; 1, 0)": "u_t", "d(v; 0, 2)": "v_xx"}  # for sympy, which has no d(...)
PARSER_CASES = (
    "2 * -u", "- - u", "3 -u", "u u^2 v u", "u^0", "0 u", "u - u", "3 u / 2 / 5",
    "u / (2 - 4)", "u / 2^2", "2 (u + x) u_x", "(u + 1)^3 x / 4", "d(u; 1, 0)",
    "(u + 1) / 2 * 2", "- 3/4 u_x v^2 t", "u/2 + u/2", "2 (u/2 + x) (u/3 - 1) * 3",
)


def _random_factor(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.25:
        atom = str(rng.randint(0, 4))
    elif roll < 0.8 or depth == 2:
        atom = rng.choice(_NAMES)
    else:
        atom = f"({_random_text(rng, depth + 1)})"
    return atom + (f"^{rng.randint(0, 3)}" if rng.random() < 0.3 else "")


def _random_text(rng: random.Random, depth: int = 0) -> str:
    """A seeded sum of products: signed factors joined by `*`, by
    juxtaposition or by `/` and a nonzero constant, with powers and groups."""
    divisors = ("2", "3^2", "-3", "(1 - 4)", "(1/2)", "2^0", "5")
    pieces = []
    for k in range(rng.randint(1, 3)):
        pieces.append(rng.choice((" + ", " - ", " - -")) if k else rng.choice(("", "-", "- -")))
        pieces.append(_random_factor(rng, depth))
        for _ in range(rng.randint(0, 4)):
            op = rng.choice((" * ", " * -", " ", " / "))
            pieces.append(op + (rng.choice(divisors) if op == " / " else _random_factor(rng, depth)))
    return "".join(pieces)


@pytest.mark.parametrize("text", [*PARSER_CASES, *(f"seed {s}" for s in range(60))])
def test_parser_matches_sympy(text):
    """Equal term dicts, and every integral coefficient stored as an int."""
    from sympy.parsing.sympy_parser import (
        convert_xor, implicit_multiplication, parse_expr, standard_transformations,
    )
    from jetbalance.cli import parse_system

    if text.startswith("seed "):
        text = _random_text(random.Random(int(text[5:])))
    chart = CHARTS[1]
    doc = parse_system(f"base t x; fields u v; Pi[u] = {text};")
    ours = doc.source(0)
    pool, gens = _gens(chart)
    sympy_text = text
    for call, name in _EXPLICIT.items():
        sympy_text = sympy_text.replace(call, name)
    expected = parse_expr(sympy_text, local_dict=dict(zip(map(chart.var_name, pool), gens)),
                          transformations=standard_transformations
                          + (implicit_multiplication, convert_xor))
    expected = sympy.Poly(expected, *gens, domain="QQ").as_dict()
    assert {_exponents(mono, pool): c for mono, c in ours.terms.items()} == {
        exps: Fraction(c.p, c.q) for exps, c in expected.items() if c
    }, text
    assert all(type(c) is int for c in ours.terms.values() if c.denominator == 1), text
