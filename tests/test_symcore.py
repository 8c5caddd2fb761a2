"""Kernel tests: exact polynomial arithmetic, jet calculus, scaling integral."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given

from jetbalance import (
    BalanceSystem,
    Chart,
    Form,
    NonIntegrableError,
    Poly,
    balance_form,
    balance_residuals,
    evaluate_on_section,
    godunov_check,
    poly_text,
    quasi_lagrangian,
)
from jetbalance import cli, jetforms, source_form, symcore, variational
from jetbalance.symcore import base_var, jet_var, mono_key

from conftest import polys, random_poly, random_system


class TestArithmetic:
    def test_add_collects_like_terms(self, chart_tx_u):
        u = chart_tx_u.field(0)
        assert u + u == 2 * u

    def test_difference_of_squares(self, chart_tx_u):
        u = chart_tx_u.field(0)
        assert (u + 1) * (u - 1) == u**2 - 1

    def test_zero_annihilates(self, chart_tx_u):
        u = chart_tx_u.field(0)
        p = u**3 + 2 * u - 5
        assert p * Poly.zero() == Poly.zero()
        assert (p * Poly.zero()).is_zero

    def test_pow_and_div(self, chart_tx_u):
        u = chart_tx_u.field(0)
        assert u**0 == Poly.constant(1)
        assert (u / 2) * 2 == u

    def test_eq_hash_constants(self):
        assert Poly.constant(Fraction(2, 4)) == Poly.constant(Fraction(1, 2))
        assert hash(Poly.constant(3)) == hash(Poly.constant(3))

    def test_constructor_canonicalises_monomials(self):
        u, x = jet_var(0, (0,)), base_var(0)
        canonical = Poly.variable(x) * Poly.variable(u) ** 2
        unsorted = Poly({((u, 2), (x, 1)): 1})
        repeated = Poly({((u, 1), (x, 1), (u, 1)): 1})
        zero_exponent = Poly({((x, 1), (jet_var(0, (1,)), 0), (u, 2)): 1})
        for p in (unsorted, repeated, zero_exponent):
            assert p == canonical and hash(p) == hash(canonical)
            assert poly_text(p) == "x0 y0^2"
        assert Poly({((u, 1), (x, 1)): 2, ((x, 1), (u, 1)): -2}).is_zero
        assert Poly({((u, 0),): 3}) == Poly.constant(3)


class TestPartial:
    def test_power_rule(self, chart_x_u):
        zx = chart_x_u.jet(0, (1,))
        assert (zx**2 / 2).partial(jet_var(0, (1,))) == zx

    def test_product_coefficient(self, chart_x_u):
        u = chart_x_u.field(0)
        zx = chart_x_u.jet(0, (1,))
        assert (u * zx).partial(jet_var(0, (0,))) == zx

    def test_with_base_factor(self, chart_x_u):
        x = chart_x_u.x(0)
        u = chart_x_u.field(0)
        assert (x * u**3).partial(jet_var(0, (0,))) == 3 * x * u**2


class TestTotalDerivative:
    def test_chain_rule_on_jets(self, chart_tx_u):
        u = chart_tx_u.field(0)
        zt = chart_tx_u.jet(0, (1, 0))
        assert (u**2).total_derivative(0) == 2 * u * zt

    def test_product_rule(self, chart_tx_u):
        u = chart_tx_u.field(0)
        zt = chart_tx_u.jet(0, (1, 0))
        zx = chart_tx_u.jet(0, (0, 1))
        ztx = chart_tx_u.jet(0, (1, 1))
        assert (u * zx).total_derivative(0) == zt * zx + u * ztx

    def test_base_coordinate(self, chart_tx_u):
        x = chart_tx_u.x(1)
        assert x.total_derivative(1) == Poly.constant(1)

    @given(polys(max_order=2))
    def test_commutes(self, data):
        chart, p = data
        if chart.n < 2:
            return
        assert p.total_derivative(0).total_derivative(1) == p.total_derivative(1).total_derivative(0)

    def test_raises_jet_order_by_one(self):
        rng = random.Random(7)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(30):
            p = random_poly(rng, chart, max_order=2, max_degree=3)
            dp = p.total_derivative(rng.randrange(2))
            if p.variables() and any(v[0] == "j" for v in p.variables()):
                assert dp.jet_order() == p.jet_order() + 1
            else:
                assert dp.jet_order() == 0


class TestScaleIntegrate:
    def test_square(self, chart_tx_u):
        u = chart_tx_u.field(0)
        assert (u**2).scale_integrate(0) == u**2 / 3

    def test_constant(self, chart_tx_u):
        assert Poly.constant(5).scale_integrate(2) == Poly.constant(Fraction(5, 3))

    def test_mixed_monomial(self, chart_tx_u):
        u = chart_tx_u.field(0)
        zx = chart_tx_u.jet(0, (0, 1))
        assert (u * zx).scale_integrate(1) == u * zx / 4

    def test_divergent(self, chart_tx_u):
        u = chart_tx_u.field(0)
        with pytest.raises(NonIntegrableError):
            (u + 1).scale_integrate(-1)

    @pytest.mark.parametrize("exponent", [-1, 0, 2])
    def test_divides_once(self, exponent):
        """Each coefficient is divided once by its weight d: the value is
        c * (1/d), and an integral one is stored as an int."""
        rng = random.Random(61 + exponent)
        jets = [jet_var(0, (0, 0)), jet_var(1, (0, 0)), jet_var(0, (0, 1)), jet_var(1, (1, 0))]
        terms = {}
        for _ in range(200):
            factors = rng.sample(jets, rng.randint(1, 3)) + [base_var(1)] * rng.randint(0, 1)
            mono = tuple((var, rng.randint(1, 3)) for var in factors)
            num = rng.randint(-40, 40)
            coeff = rng.choice([num, Fraction(num, rng.randint(1, 6))])
            if coeff:
                terms[mono] = coeff
        p = Poly(terms)
        assert {type(c) for c in p.terms.values()} == {int, Fraction}
        scaled = p.scale_integrate(exponent)
        for mono, c in p.terms.items():
            d = symcore.mono_vertical_degree(mono) + exponent + 1
            expected = c * Fraction(1, d)
            assert scaled.terms[mono] == expected
            assert type(scaled.terms[mono]) is (int if expected.denominator == 1 else Fraction)

    def test_against_quadrature(self):
        scipy = pytest.importorskip("scipy.integrate")
        rng = random.Random(11)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(20):
            p = random_poly(rng, chart, max_order=1, max_degree=3)
            e = rng.choice([0, 1, 2])
            exact = p.scale_integrate(e)
            point = {var: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for var in p.variables()}

            def integrand(t):
                total = 0.0
                for mono, coeff in p.terms.items():
                    value = float(coeff)
                    degree = 0
                    for var, exp in mono:
                        value *= float(point[var]) ** exp
                        if var[0] == "j":
                            degree += exp
                    total += value * t**degree
                return total * t**e

            numeric, _ = scipy.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
            expected = float(exact.evaluate(point))
            assert abs(numeric - expected) <= 1e-9 * max(1.0, abs(expected))


class TestRendering:
    def test_plasticity_residual_line(self):
        chart = Chart(("xi", "eta"), ("u", "v"))
        v = chart.field(1)
        z1 = chart.jet(0, (1, 0))
        assert poly_text(z1 + v / 2, chart) == "u_xi + 1/2 v"

    def test_derivative_terms_lead(self):
        chart = Chart(("xi", "eta"), ("u", "v"))
        u = chart.field(0)
        z2 = chart.jet(1, (0, 1))
        assert poly_text(z2 + u / 2, chart) == "v_eta + 1/2 u"

    def test_zero(self):
        assert poly_text(Poly.zero()) == "0"

    def test_deterministic(self):
        rng = random.Random(3)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(10):
            p = random_poly(rng, chart, max_order=2, max_degree=3, max_terms=4)
            assert poly_text(p, chart) == poly_text(p, chart)

    def test_substitute_and_evaluate(self, chart_tx_u):
        u = chart_tx_u.field(0)
        x = chart_tx_u.x(1)
        p = u**2 + x
        swapped = p.substitute({jet_var(0, (0, 0)): x + 1})
        assert swapped == (x + 1) ** 2 + x
        value = p.evaluate({jet_var(0, (0, 0)): Fraction(2), base_var(1): Fraction(1, 2)})
        assert value == Fraction(9, 2)

    def test_div_exact(self, chart_tx_u):
        u = chart_tx_u.field(0)
        x = chart_tx_u.x(1)
        product = (u + x) * (u - x)
        assert product.div_exact(u + x) == u - x
        assert product.div_exact(u + 1) is None


SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
TOP_RUNG = Chart(("t", "x", "y"), ("u", "v", "w"))  # the benchmark ladder's top chart


def _reference_div(f: Poly, g: Poly) -> Poly | None:
    """Long division one leading term at a time, leading terms under
    mono_key: the quotient when g divides f, otherwise None."""
    lead = max(g.terms, key=mono_key)
    rem, quot = f, Poly.zero()
    while rem:
        mono = max(rem.terms, key=mono_key)
        exps = dict(mono)
        for var, e in lead:
            exps[var] = exps.get(var, 0) - e
        if min(exps.values(), default=0) < 0:
            return None
        term = Poly({tuple(exps.items()): Fraction(rem.terms[mono]) / g.terms[lead]})
        quot, rem = quot + term, rem - term * g
    return quot


def _unranked_poly(rng: random.Random) -> Poly:
    """A polynomial over jet variables of order 5 to 8 on four base
    coordinates, which no other test builds."""
    pool = [base_var(mu) for mu in range(4)]
    for _ in range(12):
        counts = [0] * 4
        for _ in range(rng.randint(5, 8)):
            counts[rng.randrange(4)] += 1
        pool.append(jet_var(rng.randrange(3), counts))
    terms = {}
    for _ in range(10):
        mono = tuple((rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(0, 4)))
        terms[mono] = rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
    return Poly(terms)


class TestOrderKey:
    """`sorted_terms` and `div_exact` follow the reference order mono_key on
    the benchmark's largest chart and on variables the rank memo has not
    seen."""

    @staticmethod
    def _reference_sort(p: Poly) -> list:
        return sorted(p.terms.items(), key=lambda it: mono_key(it[0]), reverse=True)

    @pytest.mark.parametrize("seed", range(12))
    def test_sorted_terms_top_rung(self, seed):
        p = random_poly(random.Random(seed), TOP_RUNG, max_order=3, max_degree=5, max_terms=16)
        assert len(p.terms) > 1
        assert p.sorted_terms() == self._reference_sort(p)

    @pytest.mark.parametrize("seed", range(6))
    def test_sorted_terms_cold_ranks(self, monkeypatch, seed):
        p = _unranked_poly(random.Random(seed))
        monkeypatch.setattr(symcore, "_RANKS", {})
        ours = p.sorted_terms()  # before the reference sort refills the memo
        assert ours == self._reference_sort(p)

    @pytest.mark.parametrize("cold", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_div_exact_quotients(self, monkeypatch, seed, cold):
        rng = random.Random(100 + seed)
        q = random_poly(rng, TOP_RUNG, max_order=3, max_degree=3, max_terms=6)
        g = random_poly(rng, TOP_RUNG, max_order=2, max_degree=2, max_terms=3) + TOP_RUNG.x(2)
        extra = random_poly(rng, TOP_RUNG, max_order=3, max_degree=3, max_terms=2)
        assert len(g.terms) > 1
        cases = (q * g, q * g * g, q * g + extra, extra)
        if cold:
            monkeypatch.setattr(symcore, "_RANKS", {})
        quotients = [f.div_exact(g) for f in cases]
        assert quotients[:2] == [q, q * g]
        assert quotients == [_reference_div(f, g) for f in cases]

    @pytest.mark.parametrize("lead", [1, -1, 2, Fraction(3, 2)])
    @pytest.mark.parametrize("seed", range(6))
    def test_div_exact_leading_coefficients(self, seed, lead):
        """Quotients by divisors whose leading coefficient is 1, -1, 2 or
        3/2 match the reference and hold integral coefficients as int."""
        rng = random.Random(200 + seed)
        q = random_poly(rng, TOP_RUNG, max_order=3, max_degree=3, max_terms=6)
        g = random_poly(rng, TOP_RUNG, max_order=2, max_degree=2, max_terms=3) + TOP_RUNG.x(2)
        g = g * (Fraction(lead) / g.terms[max(g.terms, key=mono_key)])
        extra = random_poly(rng, TOP_RUNG, max_order=3, max_degree=3, max_terms=2)
        cases = (q * g, q * g * g, q * g + extra, extra, 3 * g)
        quotients = [f.div_exact(g) for f in cases]
        assert quotients[:2] == [q, q * g] and quotients[4] == Poly.constant(3)
        assert quotients == [_reference_div(f, g) for f in cases]
        for quotient in filter(None, quotients):
            assert all(type(c) is int or c.denominator > 1 for c in quotient.terms.values())


class TestWorkCounts:
    """Work counts of the kernels, taken the way the benchmark's tracer takes
    them (a wrapper on the class), so that a quadratic path cannot return
    unnoticed."""

    @staticmethod
    def _record(monkeypatch, name, measure):
        """Wrap `Poly.<name>` (and its aliases) and record measure(args) per call."""
        original = vars(Poly)[name]
        seen = []

        def counted(*args):
            seen.append(measure(*args))
            return original(*args)

        for key, value in list(vars(Poly).items()):
            if value is original:
                monkeypatch.setattr(Poly, key, counted)
        return seen

    def test_power_term_pairs(self, monkeypatch, chart_x_u):
        base = chart_x_u.field(0) + chart_x_u.x(0) + 1
        pairs = self._record(
            monkeypatch, "__mul__",
            lambda a, b: len(a.terms) * (len(b.terms) if isinstance(b, Poly) else 1),
        )
        assert len((base**31).terms) == 528
        assert sum(pairs) <= 16368  # repeated squaring takes 48303

    @staticmethod
    def _bases(chart):
        """Named bases over the chart (x; u): u_x is the first jet of u."""
        u, u_x, x = chart.field(0), chart.jet(0, (1,)), chart.x(0)
        half, third = Fraction(1, 2), Fraction(2, 3)
        return {
            "u + x + 1": u + x + 1,
            "u + u_x + x + 1": u + u_x + x + 1,
            "1/2 u - 3 u_x + 2/3 x^2 + 1": half * u - 3 * u_x + third * x**2 + 1,
            "u x + u_x": u * x + u_x,
            "1 + x + x^2": 1 + x + x**2,
            "u + u^2 + u^3": u + u**2 + u**3,
            "u x + u + x + 1": u * x + u + x + 1,
            "u x - u - x + 1": u * x - u - x + 1,
            "u + ... + u^10": sum((u**e for e in range(1, 11)), Poly.zero()),
        }

    @pytest.mark.parametrize("name,k", [("u + x + 1", 31), ("u + u_x + x + 1", 12),
                                        ("1/2 u - 3 u_x + 2/3 x^2 + 1", 10), ("u x + u_x", 7)])
    def test_independent_power_multiplies_nothing(self, monkeypatch, chart_x_u, name, k):
        """Affinely independent exponent vectors: the multinomial expansion
        writes each of the C(k + r - 1, r - 1) terms once, with no product."""
        base = self._bases(chart_x_u)[name]
        muls = self._record(monkeypatch, "__mul__", lambda *args: 1)
        power = base**k
        assert muls == []
        r = len(base.terms)
        assert len(power.terms) == comb(k + r - 1, r - 1)
        monkeypatch.undo()
        expected = base
        for _ in range(k - 1):
            expected = expected * base
        assert power == expected

    @pytest.mark.parametrize("name", ["1 + x + x^2", "u + u^2 + u^3", "u x + u + x + 1",
                                      "u x - u - x + 1", "u + ... + u^10"])
    def test_dependent_power_takes_products(self, monkeypatch, chart_x_u, name):
        base = self._bases(chart_x_u)[name]
        muls = self._record(monkeypatch, "__mul__", lambda *args: 1)
        _ = base**6
        assert len(muls) == 5

    def test_first_power_is_the_base(self, chart_x_u):
        for base in [Poly.zero(), chart_x_u.field(0), *self._bases(chart_x_u).values()]:
            assert base**1 is base

    def test_difference_in_one_merge(self, monkeypatch, chart_x_u):
        a, b = self._bases(chart_x_u)["u + u_x + x + 1"] ** 3, chart_x_u.field(0) ** 2 - 7
        negs = self._record(monkeypatch, "__neg__", lambda *args: 1)
        differences = (a - b, b - a, 5 - a, a - Fraction(1, 2))
        assert negs == []
        monkeypatch.undo()
        assert differences == (a + (-b), b + (-a), 5 + (-a), a + Fraction(-1, 2))

    def test_substitute_adds_no_polynomials(self, monkeypatch, chart_x_u):
        """Each term's image goes into one dict: the number of Poly.__add__
        calls does not grow with the number of terms."""
        x = chart_x_u.x(0)
        mapping = {jet_var(0, (0,)): 2 * x**2 - x + Fraction(1, 3)}
        counts = []
        for size in (3, 12):
            p = self._bases(chart_x_u)["u + u_x + x + 1"] ** size
            adds = self._record(monkeypatch, "__add__", lambda *args: 1)
            image = p.substitute(mapping)
            counts.append(len(adds))
            monkeypatch.undo()
            expected = Poly.zero()
            for mono, coeff in p.terms.items():
                term = Poly.constant(coeff)
                for var, e in mono:
                    term = term * (mapping[var] if var in mapping else Poly.variable(var)) ** e
                expected = expected + term
            assert image == expected
        assert counts[0] == counts[1]

    def test_section_evaluation_skips_zero_factors(self, monkeypatch, chart_tx_u):
        """A term is dropped at its first jet variable whose section
        derivative vanishes: no product or power takes a zero operand."""
        chart = chart_tx_u
        u, u_t, u_x, u_xx = (chart.jet(0, c) for c in ((0, 0), (1, 0), (0, 1), (0, 2)))
        x = chart.x(1)
        p = u**2 * u_x + u_t**2 * x - u_xx + u * u_t + 3 * u_x**3 * u_t + 7
        zero_muls = self._record(monkeypatch, "__mul__", lambda a, b: a.is_zero or (
            isinstance(b, Poly) and b.is_zero))
        zero_pows = self._record(monkeypatch, "__pow__", lambda a, e: a.is_zero)
        value = evaluate_on_section(p, [2 * x], chart)
        assert not any(zero_muls) and not any(zero_pows)
        monkeypatch.undo()
        assert value == 8 * x**2 + 7

    def test_substitute_raises_each_power_once(self, monkeypatch, chart_tx_u):
        """Terms that share a factor share its power: no replacement is
        raised to the same exponent twice in one substitution."""
        chart = chart_tx_u
        rng = random.Random(7)
        t, x = chart.x(0), chart.x(1)
        section = [sum((Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * t**a * x**b
                        for a in range(3) for b in range(3)), Poly.zero())]
        u, u_t, u_x, u_xx = (chart.jet(0, c) for c in ((0, 0), (1, 0), (0, 1), (0, 2)))
        p = (u + u_t + u_x**2 + x) ** 4 * (u_xx + t) + u**3 * u_x - u_t**2
        pows = self._record(monkeypatch, "__pow__", lambda base, e: (id(base), e))
        value = evaluate_on_section(p, section, chart)
        assert pows and len(set(pows)) == len(pows)
        monkeypatch.undo()
        s, s_x = section[0], section[0].partial(base_var(1))
        mapping = {jet_var(0, (0, 0)): s, jet_var(0, (1, 0)): s.partial(base_var(0)),
                   jet_var(0, (0, 1)): s_x, jet_var(0, (0, 2)): s_x.partial(base_var(1))}
        expected = Poly.zero()
        for mono, coeff in p.terms.items():
            term = Poly.constant(coeff)
            for var, e in mono:
                for _ in range(e):
                    term = term * mapping.get(var, Poly.variable(var))
            expected = expected + term
        assert value == expected

    def test_reports_divide_by_no_density(self, monkeypatch):
        """The encoding and its parts are held against eta, so rendering
        `check` and `decompose` on a non-unit density divides nothing."""
        doc = cli.parse_system(
            "base t x; fields u v; density 1 + x^2; F[u,t] = u; F[u,x] = u^2 v + x u_x;"
            " F[v,t] = v; F[v,x] = u v_x - t; Pi[u] = t u v; Pi[v] = x u;"
        )
        divisions = self._record(monkeypatch, "div_exact", lambda *args: 1)
        for command in ("check", "decompose"):
            report = cli.run(command, doc)
            for fmt in ("text", "latex", "structured"):
                assert cli.render(report, fmt)
        assert divisions == []

    def test_rational_power_divides_each_term_once(self, monkeypatch, chart_x_u):
        """A base with rational coefficients is expanded over the integers and
        each result coefficient divided once; integral results are ints."""
        u, u_x, x = chart_x_u.field(0), chart_x_u.jet(0, (1,)), chart_x_u.x(0)
        half, third = Fraction(1, 2), Fraction(1, 3)
        for base in (half * u - 3 * u_x + 2 * third * x**2 + 1, 3 * half * u + half * x,
                     Fraction(5, 4) * u_x - half * third):
            power = base**6
            expected = base
            for _ in range(5):
                expected = expected * base
            assert power == expected
            for c in power.terms.values():
                assert type(c) is (int if c.denominator == 1 else Fraction)

    def test_one_field_godunov_check_takes_no_partial(self, monkeypatch, chart_x_u):
        """One field has no off-diagonal Jacobian pair, and order 1 asks for
        no potentials, so the Godunov classification differentiates nothing."""
        base = self._bases(chart_x_u)["u + u_x + x + 1"]
        bs = BalanceSystem(chart_x_u, [[base**12]], [chart_x_u.field(0)])
        partials = self._record(monkeypatch, "partial", lambda *args: 1)
        report = godunov_check(bs)
        assert partials == []
        assert report.flux_symmetric == (True,) and not report.is_zero_order

    def test_parser_sums_in_one_dict(self, monkeypatch):
        """A literal sum is added into one dict: the number of Poly.__add__
        and Poly.__sub__ calls does not grow with the number of terms."""
        counts = []
        for size in (20, 400):
            text = "".join(f"{' - ' if k % 3 else ' + '}{k + 1} u^{k % 5 + 1} x^{k // 5}"
                           for k in range(size))
            adds = self._record(monkeypatch, "__add__", lambda *args: 1)
            subs = self._record(monkeypatch, "__sub__", lambda *args: 1)
            doc = cli.parse_system(f"base t x; fields u; F[u,t] = {text};")
            counts.append((len(adds), len(subs)))
            monkeypatch.undo()
            x, u = Poly.variable(base_var(1)), Poly.variable(jet_var(0, (0, 0)))
            expected = Poly.zero()
            for k in range(size):
                term = (k + 1) * u ** (k % 5 + 1) * x ** (k // 5)
                expected = expected - term if k % 3 else expected + term
            assert doc.to_balance_system().flux(0, 0) == expected
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_parse_and_run_validate_once(self, monkeypatch, command):
        """The parsed document is the validated system: parsing it and
        running any command fills one `BalanceSystem`."""
        fills = []
        fill = BalanceSystem._fill
        monkeypatch.setattr(BalanceSystem, "_fill",
                            lambda self, *args: fills.append(self) or fill(self, *args))
        doc = cli.parse_system("base t x; fields u v; F[u,t]=u; F[u,x]=v; F[v,t]=v; F[v,x]=u;")
        report = cli.run(command, doc, at=[0, 0, 1, 2], section_text="u = x; v = t;")
        assert isinstance(doc, BalanceSystem) and fills == [doc]
        assert not report.has_error

    def test_euler_sum_negates_nothing(self, monkeypatch):
        """Each signed piece of the Euler sum is added into one dict per
        field: no negated copy is built."""
        chart = Chart(("t", "x", "y"), ("u", "v"))
        bs = random_system(random.Random(13), chart, max_order=2)
        negs = self._record(monkeypatch, "__neg__", lambda *args: 1)
        comps = variational._euler_sum(chart, bs.entries.items())
        assert negs == []
        monkeypatch.undo()
        expected = [Poly.zero()] * chart.m
        for (i, counts), p in bs.entries.items():
            piece = p
            for mu, reps in enumerate(counts):
                for _ in range(reps):
                    piece = piece.total_derivative(mu)
            expected[i] = expected[i] + (-piece if sum(counts) % 2 else piece)
        assert comps == tuple(expected)

    def test_pairing_and_encoding_in_one_dict(self, monkeypatch):
        """The pairing polynomial adds each entry's shifted terms into one
        term dict, and the encoding its words into one form dict: on three
        fields neither adds a polynomial or a form."""
        chart = Chart(("t", "x"), ("u", "v", "w"))
        bs = random_system(random.Random(17), chart)
        adds = self._record(monkeypatch, "__add__", lambda *args: 1)
        form_adds = []
        form_add = vars(Form)["__add__"]
        monkeypatch.setattr(Form, "__add__", lambda a, b: form_adds.append(1) or form_add(a, b))
        ltilde = quasi_lagrangian(bs)
        omega = balance_form(bs)
        assert adds == [] and form_adds == []
        monkeypatch.undo()
        pairing, words = Poly.zero(), Form.zero(chart)
        for (i, counts), p in bs.entries.items():
            pairing = pairing + Poly.variable(jet_var(i, counts)) * p
            words = words + Form.contact(chart, i, counts) * p
        assert ltilde == pairing.scale_integrate(-1)
        assert omega == words.wedge(Form.volume(chart))

    def test_interior_euler_adds_no_forms(self, monkeypatch):
        """The interior Euler operator sums its per-generator pieces into one
        word dict: on three fields it adds no form."""
        chart = Chart(("t", "x"), ("u", "v", "w"))
        bs = random_system(random.Random(19), chart)
        omega = balance_form(bs)
        form_adds = []
        form_add = vars(Form)["__add__"]
        monkeypatch.setattr(Form, "__add__", lambda a, b: form_adds.append(1) or form_add(a, b))
        source = variational.interior_euler(omega)
        assert form_adds == []
        monkeypatch.undo()
        assert source.components() == tuple(-r for r in balance_residuals(bs))

    @pytest.mark.parametrize("density", ["1", "1 + x^2"])
    def test_div_exact_adds_nothing(self, monkeypatch, chart_x_u, density):
        x = chart_x_u.x(0)
        rho = Poly.constant(1) if density == "1" else 1 + x**2
        quotient = (chart_x_u.field(0) + x + 1) ** 12
        numerator = quotient * rho
        adds = self._record(monkeypatch, "__add__", lambda a, b: 1)
        assert numerator.div_exact(rho) == quotient
        assert adds == []  # the old division rebuilt the remainder per quotient term

    def test_total_derivative_in_one_pass(self, monkeypatch, chart_tx_uv):
        p = random_poly(random.Random(11), chart_tx_uv, max_order=2, max_degree=4, max_terms=8)
        present = p.variables()
        calls = [self._record(monkeypatch, name, lambda *args: 1)
                 for name in ("partial", "__mul__", "__add__")]
        derived = [p.total_derivative(mu) for mu in range(chart_tx_uv.n)]
        # the per-variable kernel called partial for every variable present,
        # then multiplied and added whole polynomials
        assert calls == [[], [], []]
        for d in derived:
            occurrences: dict = {}  # promoted order-3 variable -> ids where it occurs
            for mono in d.terms:
                for var, _ in mono:
                    if var not in present:
                        occurrences.setdefault(var, []).append(id(var))
            assert any(len(ids) > 1 for ids in occurrences.values())
            assert all(len(set(ids)) == 1 for ids in occurrences.values())

    def test_products_with_one_build_nothing(self, monkeypatch, chart_tx_uv):
        """Without a density, rho = 1 multiplies every flux and source in
        balance_residuals; each such product returns the other factor."""
        bs = random_system(random.Random(5), chart_tx_uv)
        mul = vars(Poly)["__mul__"]
        built = []  # per product with the constant 1: was a new polynomial built?

        def counted(a, b):
            out = mul(a, b)
            if Poly.constant(1) in (a, b):
                built.append(out is not a and out is not b)
            return out

        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(Poly, "__rmul__", counted)
        balance_residuals(bs)
        assert built and not any(built)

    def test_d_V_in_one_pass(self, monkeypatch, chart_tx_uv):
        p = random_poly(random.Random(11), chart_tx_uv, max_order=2, max_degree=4, max_terms=8)
        partials = self._record(monkeypatch, "partial", lambda *args: 1)
        dv = Form.function(chart_tx_uv, p).d_V()
        # the per-variable differential called partial once for every variable
        assert partials == []
        monkeypatch.undo()
        jets = [var for var in p.variables() if var[0] == "j"]
        assert len(jets) > 1
        assert dv.terms == {((), ((var[1], var[2]),)): p.partial(var) for var in jets}

    def test_render_names_each_factor_once(self, monkeypatch, chart_tx_uv):
        """The renderers name each distinct (variable, exponent) factor of a
        polynomial once, not once per occurrence."""
        c = chart_tx_uv
        p = (c.field(0) + c.jet(0, (0, 1)) + c.jet(1, (1, 0)) + c.x(1) + 1) ** 5
        occurrences = [factor for mono in p.terms for factor in mono]
        distinct = set(occurrences)
        jet_factors = {factor for factor in distinct if factor[0][0] == "j"}
        assert len(distinct) * 10 < len(occurrences)
        text_names, latex_names = [], []
        var_name, latex_name = Chart.var_name, jetforms._latex_name
        monkeypatch.setattr(Chart, "var_name",
                            lambda chart, v: text_names.append(v) or var_name(chart, v))
        monkeypatch.setattr(jetforms, "_latex_name",
                            lambda name: latex_names.append(name) or latex_name(name))
        poly_text(p, chart_tx_uv)
        jetforms.poly_latex(p, chart_tx_uv)
        assert len(text_names) <= len(distinct)
        # the base names are made once per call, then one per jet factor
        assert len(latex_names) <= chart_tx_uv.n + len(jet_factors)


class TestReportWorkCounts:
    """The reports take the Godunov part and the source components from the
    residual identity, and the Lagrangian part from the quasi-Lagrangian: no
    interior Euler operator and no vertical homotopy runs for them."""

    @staticmethod
    def _count(monkeypatch, operator: str) -> list:
        """Record the calls of a variational operator, rebound in every module
        that imports it by name, as the benchmark's tracer does."""
        original = getattr(variational, operator)
        calls = []

        def counted(form):
            calls.append(form)
            return original(form)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("jetbalance") and vars(module).get(operator) is original:
                monkeypatch.setattr(module, operator, counted)
        return calls

    @pytest.mark.parametrize("command", ["equations", "decompose"])
    @pytest.mark.parametrize("name", ["burgers", "kdv"])
    def test_no_interior_euler(self, monkeypatch, command, name):
        calls = self._count(monkeypatch, "interior_euler")
        doc = cli.parse_system((SYSTEMS / f"{name}.bal").read_text(encoding="utf-8"))
        cli.run(command, doc)
        assert calls == []
        source_form(doc.to_balance_system())  # the independent route is still counted
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["text", "latex", "structured"])
    @pytest.mark.parametrize("command", ["equations", "decompose"])
    @pytest.mark.parametrize("name", ["burgers", "hyperelastic", "plasticity"])
    def test_render_keys_and_names_once(self, monkeypatch, name, command, fmt):
        """One render names each distinct variable of its report once and
        keys each distinct monomial once, however many of the report's
        polynomials hold them."""
        doc = cli.parse_system((SYSTEMS / f"{name}.bal").read_text(encoding="utf-8"))
        report = cli.run(command, doc)
        rendered, keyed, named, chart_named = [], [], [], []
        walker, key, var_name = symcore.render_terms, symcore.mono_key, Chart.var_name
        for module in (symcore, jetforms):
            monkeypatch.setattr(module, "render_terms",
                                lambda p, *args: rendered.append(p) or walker(p, *args))
        monkeypatch.setattr(symcore, "mono_key", lambda m: keyed.append(m) or key(m))
        monkeypatch.setattr(Chart, "var_name",
                            lambda chart, v: chart_named.append(v) or var_name(chart, v))
        init = symcore.TermTable.__init__

        def counting_init(table, *args, **kwargs):
            init(table, *args, **kwargs)
            name = table.name
            table.name = lambda v: named.append(v) or name(v)

        monkeypatch.setattr(symcore.TermTable, "__init__", counting_init)
        cli.render(report, fmt)
        monos = [mono for p in rendered for mono in p.terms]
        variables = {var for mono in monos for var, _ in mono}
        assert len(set(monos)) < len(monos)  # the polynomials share monomials
        assert sorted(map(repr, keyed)) == sorted(map(repr, set(monos)))
        assert sorted(map(repr, named)) == sorted(map(repr, variables))
        assert len(chart_named) == (0 if fmt == "latex" else len(variables))

    @pytest.mark.parametrize("name", ["burgers", "kdv", "plasticity"])
    def test_no_vertical_homotopy(self, monkeypatch, name):
        calls = self._count(monkeypatch, "vertical_homotopy")
        doc = cli.parse_system((SYSTEMS / f"{name}.bal").read_text(encoding="utf-8"))
        cli.run("decompose", doc)
        assert calls == []
        omega = balance_form(doc.to_balance_system())
        variational.vertical_decompose(omega)  # the reference route is still counted
        assert len(calls) == 2
