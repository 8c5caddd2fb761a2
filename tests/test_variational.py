"""Interior Euler projector, vertical homotopy, Euler-Lagrange map."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from jetbalance import (
    BalanceSystem,
    BidegreeError,
    Chart,
    Form,
    FunctionalForm,
    NotFunctionalError,
    Poly,
    balance_form,
    balance_residuals,
    decompose,
    delta_V,
    euler_lagrange,
    functional_from_components,
    interior_euler,
    vertical_decompose,
    vertical_homotopy,
)
from conftest import (
    CHARTS,
    density_chart,
    homogeneous_forms,
    multi_indices,
    random_poly,
    random_system,
)


class TestInteriorEuler:
    def test_harmonic_source_form(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        zxx = chart.jet(0, (2,))
        form = (Form.contact(chart, 0, (1,)) * zx).wedge(Form.volume(chart))
        assert interior_euler(form).form == functional_from_components(chart, [-zxx]).form

    def test_fixed_on_source_forms(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        form = (Form.contact(chart, 0) * zx).wedge(Form.volume(chart))
        assert interior_euler(form).form == form

    def test_contact_pair_fixed(self, chart_tx_uv):
        chart = chart_tx_uv
        form = Form.contact(chart, 0).wedge(Form.contact(chart, 1)).wedge(Form.volume(chart))
        assert interior_euler(form).form == form

    def test_rejects_wrong_bidegree(self, chart_tx_u):
        with pytest.raises(BidegreeError):
            interior_euler(Form.volume(chart_tx_u))

    @given(homogeneous_forms(r=2))
    @settings(max_examples=30)
    def test_idempotent(self, form):
        if form.is_zero or form.bidegree()[0] != form.chart.n:
            return
        projected = interior_euler(form).form
        assert interior_euler(projected).form == projected


class TestVerticalHomotopy:
    def test_single_field_weight(self, chart_x_u):
        chart = chart_x_u
        y = chart.field(0)
        form = (Form.contact(chart, 0) * y).wedge(Form.volume(chart))
        expected = Form.volume(chart) * (y**2 / 2)
        assert vertical_homotopy(form) == expected
        assert expected.d_V() == form

    def test_contact_pair(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        vol = Form.volume(chart)
        form = Form.contact(chart, 0).wedge(Form.contact(chart, 1)).wedge(vol)
        expected = (Form.contact(chart, 1).wedge(vol) * u - Form.contact(chart, 0).wedge(vol) * v) * Fraction(1, 2)
        result = vertical_homotopy(form)
        assert result == expected
        assert result.d_V() == form

    def test_plasticity_quasi_lagrangian(self):
        chart = Chart(("xi", "eta"), ("u", "v"))
        u, v = chart.field(0), chart.field(1)
        z1 = chart.jet(0, (1, 0))
        z2 = chart.jet(1, (0, 1))
        bs = BalanceSystem(
            chart,
            [[u, Poly.zero()], [Poly.zero(), v]],
            [-v / 2, -u / 2],
        )
        result = vertical_homotopy(balance_form(bs))
        expected = Form.volume(chart) * ((u * z1 + v * z2) / 2 - u * v / 2)
        assert result == expected


class TestVerticalDecompose:
    def test_closed_input_is_exact(self, chart_x_u):
        chart = chart_x_u
        y = chart.field(0)
        form = (Form.contact(chart, 0) * y**2).wedge(Form.volume(chart))
        exact, complement = vertical_decompose(form)
        assert exact == form
        assert complement.is_zero

    def test_two_field_split(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        vol = Form.volume(chart)
        w1, w2 = Form.contact(chart, 0), Form.contact(chart, 1)
        form = (w1 * v).wedge(vol)
        exact, complement = vertical_decompose(form)
        assert exact == (w1 * v + w2 * u).wedge(vol) * Fraction(1, 2)
        assert complement == (w1 * v - w2 * u).wedge(vol) * Fraction(1, 2)
        assert exact + complement == form

    @given(homogeneous_forms())
    def test_homotopy_identity(self, form):
        if form.is_zero:
            return
        exact, complement = vertical_decompose(form)
        assert exact + complement == form

    @given(homogeneous_forms())
    @settings(max_examples=30)
    def test_projector_and_inverse_pair(self, form):
        if form.is_zero:
            return
        projected = vertical_homotopy(form.d_V()) if not form.d_V().is_zero else Form.zero(form.chart)
        again = (
            vertical_homotopy(projected.d_V()) if not projected.d_V().is_zero else Form.zero(form.chart)
        )
        assert again == projected
        assert vertical_homotopy(form.d_V()).d_V() == form.d_V() if not form.d_V().is_zero else True

    def test_anti_lagrangian_criterion(self, chart_tx_uv):
        """A form equals its own projector image iff its homotopy potential
        has no vertical part."""
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        vol = Form.volume(chart)
        w1, w2 = Form.contact(chart, 0), Form.contact(chart, 1)
        pure = (w1 * v - w2 * u).wedge(vol)  # antisymmetric pairing
        assert vertical_homotopy(pure.d_V()) == pure
        potential = vertical_homotopy(pure)
        assert all(p.vertical_part().is_zero for p in potential.terms.values())
        lagrangian_like = (w1 * u).wedge(vol)
        assert vertical_homotopy(lagrangian_like.d_V()) != lagrangian_like
        potential = vertical_homotopy(lagrangian_like)
        assert not all(p.vertical_part().is_zero for p in potential.terms.values())


class TestEulerLagrange:
    def test_harmonic(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        zxx = chart.jet(0, (2,))
        assert euler_lagrange(chart, zx**2 / 2).components() == (-zxx,)

    def test_potential_term(self, chart_x_u):
        chart = chart_x_u
        u = chart.field(0)
        assert euler_lagrange(chart, u**2 / 2).components() == (u,)

    def test_second_order(self, chart_x_u):
        chart = chart_x_u
        zxx = chart.jet(0, (2,))
        zxxxx = chart.jet(0, (4,))
        assert euler_lagrange(chart, zxx**2 / 2).components() == (zxxxx,)

    def test_matches_interior_euler_route(self):
        rng = random.Random(23)
        for chart in (Chart(("x",), ("u",)), Chart(("t", "x"), ("u", "v"))):
            for _ in range(15):
                lagrangian = random_poly(rng, chart, max_order=2, max_degree=3)
                direct = euler_lagrange(chart, lagrangian)
                via_projector = interior_euler(
                    Form.function(chart, lagrangian).wedge(Form.volume(chart)).d_V()
                )
                assert direct.form == via_projector.form

    def test_invariant_under_divergence_shift(self):
        """Adding a density-weighted total divergence to the weighted
        Lagrangian leaves the Euler-Lagrange form unchanged."""
        rng = random.Random(29)
        base = Chart(("t", "x"), ("u",))
        weighted = Chart(("t", "x"), ("u",), base.x(0) ** 2 + 1)
        for _ in range(10):
            lagrangian = random_poly(rng, base, max_order=1, max_degree=3)
            shift = Poly.zero()
            for mu in range(base.n):
                potential = random_poly(rng, base, max_order=1, max_degree=2)
                shift = shift + (weighted.rho * potential).total_derivative(mu)
            left = euler_lagrange(base, weighted.rho * lagrangian + shift)
            right = euler_lagrange(base, weighted.rho * lagrangian)
            assert left.form == right.form
            assert euler_lagrange(weighted, lagrangian).components() == right.components()


class TestComponentsRoute:
    """A functional form assembled from components equals, with the same
    hash and components, the one the interior Euler operator projects."""

    @pytest.mark.parametrize("chart", CHARTS)
    def test_equals_the_interior_euler_route(self, chart):
        rng = random.Random(37 + chart.n + chart.m)
        for _ in range(5):
            bs = random_system(rng, chart, max_order=2)
            routed = interior_euler(balance_form(bs))
            built = functional_from_components(chart, [-r for r in balance_residuals(bs)])
            assert built == routed and hash(built) == hash(routed)
            assert built.components() == routed.components()
            lagrangian = random_poly(rng, chart, max_order=1, max_degree=3)
            el = euler_lagrange(chart, lagrangian)
            el_routed = interior_euler(
                Form.function(chart, lagrangian).wedge(Form.volume(chart)).d_V()
            )
            assert el == el_routed and hash(el) == hash(el_routed)
            difference = built - el
            assert difference == routed - el_routed
            assert difference.components() == tuple(
                a - b for a, b in zip(routed.components(), el_routed.components())
            )

    def test_components_are_kept(self):
        chart = Chart(("t", "x", "y"), ("u", "v"))  # odd n: the form stores -E_i
        comps = (chart.field(1) * chart.jet(0, (1, 0, 0)), Poly.zero())
        built = functional_from_components(chart, comps)
        assert built.components() is comps
        assert FunctionalForm(built.form).components() == comps

    def test_non_functional_form_has_no_components(self, chart_x_u):
        """A wrapped form reads its components off its words, so a form that
        is not a source form has none, and delta_V rejects it."""
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        not_functional = FunctionalForm(
            (Form.contact(chart, 0, (1,)) * zx).wedge(Form.volume(chart))
        )
        with pytest.raises(NotFunctionalError):
            not_functional.components()
        with pytest.raises(NotFunctionalError):
            delta_V(not_functional)


class TestSourceFormsHoldComponents:
    """Source forms built from components hold them and build their form
    words only when `.form` is read."""

    def test_decompose_builds_no_form_words(self, monkeypatch):
        chart = Chart(("t", "x", "y"), ("u", "v"))  # odd n: the words store -E_i
        bs = random_system(random.Random(41), chart)
        words = []
        build = FunctionalForm._words
        monkeypatch.setattr(FunctionalForm, "_words",
                            lambda self: words.append(self) or build(self))
        report = decompose(bs)
        assert words == []
        assert not report.godunov_part.is_zero
        godunov = report.godunov_part.form
        assert report.godunov_part.form is godunov and len(words) == 1
        assert interior_euler(report.nonlagrangian_part) == report.godunov_part
        assert godunov == interior_euler(report.nonlagrangian_part).form

    def test_difference_holds_components(self):
        chart = Chart(("t", "x", "y"), ("u", "v"))
        rng = random.Random(43)
        a = functional_from_components(chart, [random_poly(rng, chart) for _ in range(2)])
        b = functional_from_components(chart, [random_poly(rng, chart) for _ in range(2)])
        for op in (operator.sub, operator.add):
            combined = op(a, b)
            assert combined.components() == tuple(map(op, a.components(), b.components()))
            assert combined == FunctionalForm(combined.form)
            assert combined.form == op(a.form, b.form)


class TestDeltaV:
    def test_annihilates_euler_lagrange(self):
        rng = random.Random(31)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(20):
            lagrangian = random_poly(rng, chart, max_order=1, max_degree=3)
            assert delta_V(euler_lagrange(chart, lagrangian)).is_zero

    def test_detects_non_lagrangian_source(self, chart_tx_u):
        chart = chart_tx_u
        u = chart.field(0)
        zx = chart.jet(0, (0, 1))
        bs = BalanceSystem(chart, [[u, -(u**2 / 2 + zx)]], [Poly.zero()])
        assert not delta_V(interior_euler(balance_form(bs))).is_zero

    def test_rejects_non_functional_input(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        not_functional = FunctionalForm(
            (Form.contact(chart, 0, (1,)) * zx).wedge(Form.volume(chart))
        )
        with pytest.raises(NotFunctionalError):
            delta_V(not_functional)


class TestHigherBalance:
    def test_biharmonic_entry(self, chart_x_u):
        from jetbalance import higher_balance_residuals

        chart = chart_x_u
        zxx = chart.jet(0, (2,))
        z4 = chart.jet(0, (4,))
        data = BalanceSystem.from_entries(chart, {(0, (2,)): zxx})
        assert data.source(0).is_zero
        assert higher_balance_residuals(data) == (-z4,)

    def test_first_order_reduction(self, chart_tx_u):
        from jetbalance import balance_residuals, higher_balance_residuals

        chart = chart_tx_u
        u = chart.field(0)
        zx = chart.jet(0, (0, 1))
        bs = BalanceSystem(chart, [[u, -(u**2 / 2 + zx)]], [u / 3])
        data = BalanceSystem.from_entries(
            chart,
            {
                (0, (1, 0)): bs.F[0][0],
                (0, (0, 1)): bs.F[0][1],
                (0, (0, 0)): bs.Pi[0],
            },
        )
        assert higher_balance_residuals(data) == balance_residuals(bs)

    def test_empty_data(self, chart_tx_u):
        from jetbalance import higher_balance_residuals

        data = BalanceSystem.from_entries(chart_tx_u, {})
        assert higher_balance_residuals(data) == (Poly.zero(),)

    @pytest.mark.parametrize("density", ["1", "1 + x^2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residuals_are_negated_source_components(self, n, density):
        """The sign convention at every entry order: the residuals are minus
        the interior Euler components of the contact encoding
        sum (contact(i, counts) * p) ^ eta."""
        from jetbalance import higher_balance_residuals

        chart = density_chart(n, density)
        rng = random.Random(131 + n)
        slots = [(i, counts) for i in range(chart.m) for counts in multi_indices(n, 3)]
        top = [slot for slot in slots if sum(slot[1]) == 3]
        for _ in range(4):
            picked = rng.sample(slots, 3) + [rng.choice(top)]
            data = BalanceSystem.from_entries(
                chart, {slot: random_poly(rng, chart, max_degree=2, max_terms=2) for slot in picked}
            )
            encoding = Form.zero(chart)
            for (i, counts), p in data.entries.items():
                encoding = encoding + Form.contact(chart, i, counts) * p
            source = interior_euler(encoding.wedge(Form.volume(chart)))
            assert higher_balance_residuals(data) == tuple(-c for c in source.components())
