"""Balance systems: contact encoding, splittings, classification, sections."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

import jetbalance
from jetbalance import (
    BalanceSystem,
    Chart,
    Form,
    InvalidSystemError,
    OrderTooHighError,
    Poly,
    balance_form,
    balance_residuals,
    decompose,
    divergence_split,
    euler_lagrange,
    evaluate_on_section,
    godunov_check,
    helmholtz_check,
    higher_balance_residuals,
    interior_euler,
    pairing_polynomial,
    quasi_lagrangian,
    source_form,
    symmetric_hyperbolicity,
    vertical_decompose,
    vertical_homotopy,
)
from jetbalance.cli import parse_system
from jetbalance.symcore import jet_var

from conftest import CHARTS, density_chart, multi_indices, random_poly, random_system

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


class TestPublicNames:
    def test_all_is_sorted_unique_and_resolves(self):
        names = jetbalance.__all__
        assert names == sorted(set(names))
        assert all(hasattr(jetbalance, name) for name in names)

    @pytest.mark.parametrize(
        "name",
        ["TrivialityResult", "lagrangian_split", "source_split", "trivial_quasi_lagrangian"],
    )
    def test_retired_splitting_names_are_gone(self, name):
        """`decompose` reads every part off one quasi-Lagrangian; the
        wrappers that recomputed it are not part of the package."""
        assert name not in jetbalance.__all__
        assert not hasattr(jetbalance, name)
        assert not hasattr(jetbalance.balance, name)


def plasticity() -> BalanceSystem:
    chart = Chart(("xi", "eta"), ("u", "v"))
    u, v = chart.field(0), chart.field(1)
    return BalanceSystem(
        chart,
        [[u, Poly.zero()], [Poly.zero(), v]],
        [-v / 2, -u / 2],
    )


def burgers() -> BalanceSystem:
    chart = Chart(("t", "x"), ("u",))
    u = chart.field(0)
    zx = chart.jet(0, (0, 1))
    return BalanceSystem(chart, [[u, -(u**2 / 2 + zx)]], [Poly.zero()])


def generated(chart: Chart, lagrangian: Poly) -> BalanceSystem:
    return BalanceSystem.from_lagrangian(chart, lagrangian)


class TestBalanceForm:
    def test_plasticity(self):
        bs = plasticity()
        chart = bs.chart
        u, v = chart.field(0), chart.field(1)
        vol = Form.volume(chart)
        expected = (
            (Form.contact(chart, 0, (1, 0)) * u).wedge(vol)
            + (Form.contact(chart, 1, (0, 1)) * v).wedge(vol)
            + (Form.contact(chart, 0) * (-v / 2)).wedge(vol)
            + (Form.contact(chart, 1) * (-u / 2)).wedge(vol)
        )
        assert balance_form(bs) == expected

    def test_zero_system(self, chart_tx_u):
        bs = BalanceSystem(chart_tx_u, [[Poly.zero()] * 2], [Poly.zero()])
        assert balance_form(bs).is_zero

    def test_lagrangian_generated(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        bs = generated(chart, zx**2 / 2)
        expected = (Form.contact(chart, 0, (1,)) * zx).wedge(Form.volume(chart))
        assert balance_form(bs) == expected


class TestResiduals:
    def test_plasticity(self):
        bs = plasticity()
        chart = bs.chart
        u, v = chart.field(0), chart.field(1)
        z1, z2 = chart.jet(0, (1, 0)), chart.jet(1, (0, 1))
        assert balance_residuals(bs) == (z1 + v / 2, z2 + u / 2)

    def test_burgers(self):
        bs = burgers()
        chart = bs.chart
        u = chart.field(0)
        zt, zx, zxx = chart.jet(0, (1, 0)), chart.jet(0, (0, 1)), chart.jet(0, (0, 2))
        assert balance_residuals(bs) == (zt - u * zx - zxx,)

    def test_zero(self, chart_tx_u):
        bs = BalanceSystem(chart_tx_u, [[Poly.zero()] * 2], [Poly.zero()])
        assert balance_residuals(bs) == (Poly.zero(),)

    def test_source_form_negates_residuals(self):
        rng = random.Random(41)
        for _ in range(10):
            bs = random_system(rng, Chart(("t", "x"), ("u", "v")))
            comps = source_form(bs).components()
            assert tuple(-c for c in comps) == balance_residuals(bs)

    def test_source_form_of_generated_system_is_euler_lagrange(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        bs = generated(chart, zx**2 / 2)
        assert source_form(bs).form == euler_lagrange(chart, zx**2 / 2).form


class TestHelmholtz:
    def test_generated_system_closed_with_recovery(self, chart_x_u):
        chart = chart_x_u
        u = chart.field(0)
        zx = chart.jet(0, (1,))
        lagrangian = zx**2 / 2 - u**2 / 2
        result = helmholtz_check(generated(chart, lagrangian))
        assert result.closed
        assert result.lagrangian == lagrangian  # no base-only part to drop

    def test_burgers_not_closed(self):
        bs = burgers()
        chart = bs.chart
        result = helmholtz_check(bs)
        assert not result.closed
        # the residual picks up w(u)^w(u_t)^eta with coefficient 1 from the
        # field dependence of the density entry
        word = ((0, 1), ((0, (0, 0)), (0, (1, 0))))
        assert result.residual.terms[word] == Poly.constant(1)

    def test_zero_closed(self, chart_tx_u):
        bs = BalanceSystem(chart_tx_u, [[Poly.zero()] * 2], [Poly.zero()])
        result = helmholtz_check(bs)
        assert result.closed and result.lagrangian == Poly.zero()

    def test_recovery_reproduces_partials(self):
        rng = random.Random(43)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(15):
            lagrangian = random_poly(rng, chart, max_order=1, max_degree=4)
            bs = generated(chart, lagrangian)
            result = helmholtz_check(bs)
            assert result.closed
            for i in range(chart.m):
                assert result.lagrangian.partial(jet_var(i, (0, 0))) == bs.Pi[i]
                for mu in range(chart.n):
                    counts = tuple(1 if k == mu else 0 for k in range(chart.n))
                    assert result.lagrangian.partial(jet_var(i, counts)) == bs.F[i][mu]

    def test_residual_is_the_full_differential(self):
        """The residual is built from d_V alone: d_H vanishes on the encoding
        because every word already carries all dx^mu."""
        rng = random.Random(61)
        x = Chart(("t", "x"), ("u",)).x(1)
        charts = CHARTS + (Chart(("t", "x"), ("u", "v"), 1 + x**2),)
        for chart in charts:
            for max_order in (1, 2):
                for _ in range(4):
                    bs = random_system(rng, chart, max_order=max_order)
                    assert helmholtz_check(bs).residual == balance_form(bs).d()

    def test_closure_matches_partial_derivative_conditions(self):
        """Independent oracle: closedness of the encoding is equivalent to the
        symmetry conditions on the partials of fluxes and sources."""
        rng = random.Random(47)
        chart = Chart(("t", "x"), ("u", "v"))
        first = [
            jet_var(i, tuple(1 if k == mu else 0 for k in range(chart.n)))
            for i in range(chart.m)
            for mu in range(chart.n)
        ]
        fields = [jet_var(i, (0, 0)) for i in range(chart.m)]

        def closed_by_conditions(bs):
            for i in range(chart.m):
                for j in range(chart.m):
                    if bs.Pi[i].partial(fields[j]) != bs.Pi[j].partial(fields[i]):
                        return False
                    for mu in range(chart.n):
                        zmu = jet_var(j, tuple(1 if k == mu else 0 for k in range(chart.n)))
                        if bs.F[i][mu].partial(fields[j]) != bs.Pi[j].partial(
                            jet_var(i, tuple(1 if k == mu else 0 for k in range(chart.n)))
                        ):
                            return False
            for i in range(chart.m):
                for mu in range(chart.n):
                    for j in range(chart.m):
                        for nu in range(chart.n):
                            left = bs.F[i][mu].partial(
                                jet_var(j, tuple(1 if k == nu else 0 for k in range(chart.n)))
                            )
                            right = bs.F[j][nu].partial(
                                jet_var(i, tuple(1 if k == mu else 0 for k in range(chart.n)))
                            )
                            if left != right:
                                return False
            return True

        for _ in range(20):
            bs = random_system(rng, chart, max_order=1, max_degree=2)
            assert helmholtz_check(bs).closed == closed_by_conditions(bs)


class TestQuasiLagrangian:
    def test_burgers(self):
        bs = burgers()
        chart = bs.chart
        u = chart.field(0)
        zt, zx = chart.jet(0, (1, 0)), chart.jet(0, (0, 1))
        assert quasi_lagrangian(bs) == u * zt / 2 - u**2 * zx / 6 - zx**2 / 2

    def test_kdv(self, chart_tx_u):
        chart = chart_tx_u
        u = chart.field(0)
        zt, zx, zxx = chart.jet(0, (1, 0)), chart.jet(0, (0, 1)), chart.jet(0, (0, 2))
        bs = BalanceSystem(chart, [[u, 3 * u**2 + zxx]], [Poly.zero()])
        assert quasi_lagrangian(bs) == u * zt / 2 + u**2 * zx + zx * zxx / 2

    def test_plasticity(self):
        bs = plasticity()
        chart = bs.chart
        u, v = chart.field(0), chart.field(1)
        z1, z2 = chart.jet(0, (1, 0)), chart.jet(1, (0, 1))
        assert quasi_lagrangian(bs) == (u * z1 + v * z2) / 2 - u * v / 2

    def test_matches_homotopy_of_encoding(self):
        rng = random.Random(53)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(10):
            bs = random_system(rng, chart)
            assert vertical_homotopy(balance_form(bs)) == Form.volume(chart) * quasi_lagrangian(bs)

    def test_round_trip_recovery(self):
        """Generated systems recover the Lagrangian up to its base-only part."""
        rng = random.Random(59)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(20):
            lagrangian = random_poly(rng, chart, max_order=1, max_degree=4)
            bs = generated(chart, lagrangian)
            assert quasi_lagrangian(bs) == lagrangian.vertical_part()


class TestSplittings:
    def test_pure_source_split(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        vol = Form.volume(chart)
        w1, w2 = Form.contact(chart, 0), Form.contact(chart, 1)
        bs = BalanceSystem(
            chart, [[Poly.zero()] * 2, [Poly.zero()] * 2], [v, Poly.zero()]
        )
        report = decompose(bs)
        assert report.lagrangian_part == (w1 * v + w2 * u).wedge(vol) * Fraction(1, 2)
        assert report.nonlagrangian_part == (w1 * v - w2 * u).wedge(vol) * Fraction(1, 2)

    def test_generated_has_no_complement(self, chart_x_u):
        chart = chart_x_u
        u = chart.field(0)
        zx = chart.jet(0, (1,))
        bs = generated(chart, zx**2 / 2 + u**3)
        report = decompose(bs)
        assert report.nonlagrangian_part.is_zero
        assert report.lagrangian_part == balance_form(bs)

    def test_burgers_split(self):
        bs = burgers()
        chart = bs.chart
        report = decompose(bs)
        ltilde = quasi_lagrangian(bs)
        assert report.lagrangian_part == (Form.volume(chart) * ltilde).d_V()
        assert not report.nonlagrangian_part.is_zero
        assert report.lagrangian_part + report.nonlagrangian_part == balance_form(bs)

    def test_split_consistency_random(self):
        rng = random.Random(61)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(10):
            bs = random_system(rng, chart)
            report = decompose(bs)
            assert report.lagrangian_part + report.nonlagrangian_part == balance_form(bs)
            godunov, euler = report.godunov_part, report.euler_lagrange_form
            total = tuple(g + e for g, e in zip(godunov.components(), euler.components()))
            assert total == source_form(bs).components()

    def test_nonlagrangian_part_is_pure(self):
        """The homotopy potential of the complement has no vertical part."""
        rng = random.Random(67)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(10):
            bs = random_system(rng, chart)
            nonlag = decompose(bs).nonlagrangian_part
            if nonlag.is_zero:
                continue
            potential = vertical_homotopy(nonlag)
            assert all(p.vertical_part().is_zero for p in potential.terms.values())

    def test_directness(self):
        """Closed forms have zero complement; projector images have zero exact part."""
        rng = random.Random(71)
        chart = Chart(("t", "x"), ("u", "v"))
        from jetbalance import vertical_decompose

        for _ in range(10):
            bs = random_system(rng, chart)
            closed = (Form.volume(chart) * random_poly(rng, chart, 1, 3)).d_V()
            if not closed.is_zero:
                exact, complement = vertical_decompose(closed)
                assert complement.is_zero and exact == closed
            nonlag = decompose(bs).nonlagrangian_part
            if not nonlag.is_zero:
                exact, complement = vertical_decompose(nonlag)
                assert exact.is_zero and complement == nonlag

    def test_plasticity_f_split(self):
        bs = plasticity()
        chart = bs.chart
        u, v = chart.field(0), chart.field(1)
        z1, z2 = chart.jet(0, (1, 0)), chart.jet(1, (0, 1))
        report = decompose(bs)
        assert report.euler_lagrange_form.components() == (-v / 2, -u / 2)
        assert report.godunov_part.components() == (-z1, -z2)

    def test_generated_has_no_godunov_part(self, chart_x_u):
        chart = chart_x_u
        u = chart.field(0)
        zx = chart.jet(0, (1,))
        report = decompose(generated(chart, zx**2 / 2 - u**4))
        assert report.godunov_part.is_zero

    def test_gradient_zero_order_has_no_euler_part(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        potentials = [u**2 * v + v**3, u * v]
        F = [
            [g.partial(jet_var(0, (0, 0))) for g in potentials],
            [g.partial(jet_var(1, (0, 0))) for g in potentials],
        ]
        bs = BalanceSystem(chart, F, [Poly.zero(), Poly.zero()])
        assert decompose(bs).euler_lagrange_form.is_zero


@pytest.mark.parametrize("density", ["1", "1 + x^2"])
@pytest.mark.parametrize("max_order", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
class TestIndependentRoutes:
    """The reported Godunov part, source components and form split agree with
    the reference routes (interior_euler, source_form, vertical_decompose),
    which compute them independently of the identities source = Godunov + EL,
    source components = -residuals and h(omega) = L~ eta."""

    @staticmethod
    def _systems(n, max_order, density):
        chart = density_chart(n, density)
        rng = random.Random(97 + 10 * n + max_order)
        return chart, [random_system(rng, chart, max_order=max_order) for _ in range(5)]

    def test_godunov_and_source_components(self, n, max_order, density):
        _, systems = self._systems(n, max_order, density)
        nontrivial = 0
        for bs in systems:
            report = decompose(bs)
            nontrivial += not report.godunov_part.is_zero
            assert interior_euler(report.nonlagrangian_part) == report.godunov_part
            residuals = balance_residuals(bs)
            assert source_form(bs).components() == tuple(-r for r in residuals)
        assert nontrivial

    def test_form_split(self, n, max_order, density):
        chart, systems = self._systems(n, max_order, density)
        nontrivial = 0
        for bs in systems:
            omega = balance_form(bs)
            report = decompose(bs)
            nontrivial += not report.nonlagrangian_part.is_zero
            assert vertical_homotopy(omega) == Form.volume(chart) * quasi_lagrangian(bs)
            reference = vertical_decompose(omega)
            assert (report.lagrangian_part, report.nonlagrangian_part) == reference
        assert nontrivial


@pytest.mark.parametrize("density", ["1", "1 + x^2"])
@pytest.mark.parametrize("n", [1, 2, 3])
class TestAnyOrder:
    """The one data model at any order: systems from `from_entries` with
    entries up to multi-index order 3 keep the decomposition identities, and
    both residual functions agree with the source form."""

    @staticmethod
    def _systems(n, density):
        chart = density_chart(n, density)
        rng = random.Random(151 + n)
        slots = [(i, counts) for i in range(chart.m) for counts in multi_indices(n, 3)]
        top = [slot for slot in slots if sum(slot[1]) == 3]
        return [
            BalanceSystem.from_entries(
                chart,
                {
                    slot: random_poly(rng, chart, max_degree=2, max_terms=2)
                    for slot in rng.sample(slots, 3) + [rng.choice(top)]
                },
            )
            for _ in range(4)
        ]

    def test_decomposition(self, n, density):
        for bs in self._systems(n, density):
            report = decompose(bs)
            reference = vertical_decompose(balance_form(bs))
            assert (report.lagrangian_part, report.nonlagrangian_part) == reference
            assert interior_euler(report.nonlagrangian_part) == report.godunov_part

    def test_residuals(self, n, density):
        for bs in self._systems(n, density):
            residuals = balance_residuals(bs)
            assert source_form(bs).components() == tuple(-r for r in residuals)
            assert residuals == higher_balance_residuals(bs)


class TestTriviality:
    def test_antisymmetric_sources(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        bs = BalanceSystem(chart, [[Poly.zero()] * 2, [Poly.zero()] * 2], [v, -u])
        assert decompose(bs).trivial_quasi_lagrangian

    def test_burgers_not_trivial(self):
        assert not decompose(burgers()).trivial_quasi_lagrangian

    def test_zero_system(self, chart_tx_u):
        bs = BalanceSystem(chart_tx_u, [[Poly.zero()] * 2], [Poly.zero()])
        assert decompose(bs).trivial_quasi_lagrangian

    def test_read_off_the_pairing_polynomial(self):
        """Triviality read off L~ agrees with the pairing polynomial: trivial
        iff it has no vertical part, and it never has a base-only part."""
        rng = random.Random(67)
        for chart in CHARTS:
            for _ in range(6):
                bs = random_system(rng, chart, max_order=2)
                pairing = pairing_polynomial(bs)
                assert pairing.base_part().is_zero
                expected = pairing.vertical_part().is_zero
                assert quasi_lagrangian(bs).is_zero == expected
                assert decompose(bs).trivial_quasi_lagrangian == expected

    def test_trivial_implies_no_euler_part(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        bs = BalanceSystem(chart, [[Poly.zero()] * 2, [Poly.zero()] * 2], [v**2, -u * v])
        report = decompose(bs)
        assert report.trivial_quasi_lagrangian
        assert euler_lagrange(chart, quasi_lagrangian(bs)).is_zero
        assert report.euler_lagrange_form.is_zero


class TestGodunov:
    def test_gradient_round_trip(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        g0 = (u**2 + v**2) / 2
        g1 = u * v
        F = [
            [g0.partial(jet_var(0, (0, 0))), g1.partial(jet_var(0, (0, 0)))],
            [g0.partial(jet_var(1, (0, 0))), g1.partial(jet_var(1, (0, 0)))],
        ]
        bs = BalanceSystem(chart, F, [Poly.zero(), Poly.zero()])
        report = godunov_check(bs)
        assert report.verdict and report.is_zero_order
        assert report.potentials == (g0, g1)
        assert report.pairing_constant == 0

    def test_asymmetric_flux(self, chart_tx_uv):
        chart = chart_tx_uv
        v = chart.field(1)
        bs = BalanceSystem(
            chart, [[v, Poly.zero()], [Poly.zero(), Poly.zero()]], [Poly.zero()] * 2
        )
        report = godunov_check(bs)
        assert report.flux_symmetric[0] is False
        assert not report.verdict
        assert report.potentials is None

    def test_order_too_high(self):
        report = godunov_check(burgers())
        assert not report.verdict and not report.is_zero_order
        assert report.potentials is None
        assert report.flux_symmetric == (True, True)  # single field, formally symmetric

    @staticmethod
    def _reference_symmetry(bs: BalanceSystem) -> tuple:
        """Per coordinate: does every entry (i, k) of the field Jacobian of
        the flux column equal the entry (k, i)?"""
        chart = bs.chart
        fields = [jet_var(i, chart.zero_index()) for i in range(chart.m)]
        return tuple(
            all(
                bs.flux(i, mu).partial(fields[k]) == bs.flux(k, mu).partial(fields[i])
                for i in range(chart.m)
                for k in range(chart.m)
            )
            for mu in range(chart.n)
        )

    def test_report_at_order_one_and_above(self):
        """The report is returned at every order, with the flux symmetry of a
        full pairwise comparison: every bundled system with first-order data
        (burgers, filtration and kdv have order >= 1) and a system with a
        second-order entry."""
        systems = []
        for path in sorted(SYSTEMS.glob("*.bal")):
            doc = parse_system(path.read_text())
            if not doc.has_higher_entries:
                systems.append(doc.to_balance_system())
        chart = Chart(("t", "x"), ("u", "v"))
        u, v = chart.field(0), chart.field(1)
        systems.append(BalanceSystem.from_entries(
            chart, {(0, (0, 1)): v, (1, (0, 1)): u * v, (1, (0, 2)): u, (0, (0, 0)): v},
        ))
        higher = 0
        for bs in systems:
            report = godunov_check(bs)
            assert report.flux_symmetric == self._reference_symmetry(bs)
            assert report.is_zero_order == (bs.order == 0)
            if bs.order >= 1:
                higher += 1
                assert not report.verdict and report.potentials is None
        assert higher == 4


class TestHyperbolicity:
    def _gradient_pair(self, g0, g1, chart):
        F = [
            [g0.partial(jet_var(0, (0, 0))), g1.partial(jet_var(0, (0, 0)))],
            [g0.partial(jet_var(1, (0, 0))), g1.partial(jet_var(1, (0, 0)))],
        ]
        return BalanceSystem(chart, F, [Poly.zero(), Poly.zero()])

    def test_definite_pair(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        bs = self._gradient_pair((u**2 + v**2) / 2, u * v, chart)
        report = symmetric_hyperbolicity(bs, [0, 0, 1, 2])
        assert report.verdict and not report.singular
        assert report.leading_minors == (Fraction(1, 2), Fraction(1, 4))
        assert all(report.symmetric)

    def test_indefinite_pair(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        bs = self._gradient_pair(u * v, (u**2 + v**2) / 2, chart)
        report = symmetric_hyperbolicity(bs, [0, 0, 3, -2])
        assert not report.verdict
        assert report.singular  # leading 1x1 minor is exactly zero
        assert report.leading_minors[0] == 0

    def test_single_field(self, chart_tx_u):
        chart = chart_tx_u
        u = chart.field(0)
        bs = BalanceSystem(chart, [[u, 2 * u]], [Poly.zero()])
        report = symmetric_hyperbolicity(bs, [0, 0, 5])
        assert report.verdict
        assert report.leading_minors == (Fraction(1, 2),)

    def test_order_too_high(self):
        with pytest.raises(OrderTooHighError):
            symmetric_hyperbolicity(burgers(), [0, 0, 1])

    def test_point_length_checked(self, chart_tx_u):
        chart = chart_tx_u
        u = chart.field(0)
        bs = BalanceSystem(chart, [[u, u]], [Poly.zero()])
        with pytest.raises(InvalidSystemError):
            symmetric_hyperbolicity(bs, [0, 0])

    def test_principal_part_symmetry_and_antisymmetry(self):
        """Zero-order split: the Euler-Lagrange component always has
        antisymmetric principal matrices; for gradient fluxes the Godunov
        component's principal matrices are symmetric."""
        rng = random.Random(73)
        chart = Chart(("t", "x"), ("u", "v"))
        fields = [jet_var(i, (0, 0)) for i in range(2)]

        def principal(components, mu):
            zmu = [
                jet_var(j, tuple(1 if k == mu else 0 for k in range(chart.n)))
                for j in range(2)
            ]
            return [[components[i].partial(zmu[j]) for j in range(2)] for i in range(2)]

        for _ in range(10):
            # arbitrary zero-order system: antisymmetry of the EL part
            bs = random_system(rng, chart, max_order=0, max_degree=3)
            euler_part = decompose(bs).euler_lagrange_form
            for mu in range(chart.n):
                e_mat = principal(euler_part.components(), mu)
                assert e_mat[0][1] == -e_mat[1][0]
                assert e_mat[0][0].is_zero and e_mat[1][1].is_zero
            # gradient fluxes with arbitrary sources: symmetric Godunov part
            potentials = [
                random_poly(rng, chart, max_order=0, max_degree=4, with_base=False)
                for _ in range(chart.n)
            ]
            F = [[g.partial(fields[i]) for g in potentials] for i in range(2)]
            Pi = [random_poly(rng, chart, max_order=0, max_degree=3) for _ in range(2)]
            gradient_bs = BalanceSystem(chart, F, Pi)
            report = decompose(gradient_bs)
            godunov_part, euler_part = report.godunov_part, report.euler_lagrange_form
            for mu in range(chart.n):
                g_mat = principal(godunov_part.components(), mu)
                e_mat = principal(euler_part.components(), mu)
                assert g_mat[0][1] == g_mat[1][0]
                assert all(p.is_zero for row in e_mat for p in row)


class TestSections:
    def test_burgers_constants_solve(self):
        bs = burgers()
        chart = bs.chart
        residual = balance_residuals(bs)[0]
        value = evaluate_on_section(residual, [Poly.constant(7)], chart)
        assert value.is_zero

    def test_burgers_linear_section(self):
        bs = burgers()
        chart = bs.chart
        x = chart.x(1)
        residual = balance_residuals(bs)[0]
        assert evaluate_on_section(residual, [x], chart) == -x

    def test_plasticity_zero_section(self):
        bs = plasticity()
        chart = bs.chart
        values = [
            evaluate_on_section(r, [Poly.zero(), Poly.zero()], chart)
            for r in balance_residuals(bs)
        ]
        assert all(v.is_zero for v in values)


class TestDivergenceSplit:
    def test_burgers_table_row(self):
        bs = burgers()
        chart = bs.chart
        u = chart.field(0)
        zx = chart.jet(0, (0, 1))
        potentials, remainder = divergence_split(chart, quasi_lagrangian(bs))
        assert potentials[0] == u**2 / 4
        assert potentials[1] == -(u**3) / 18
        assert remainder == -(zx**2) / 2

    def test_exactness_random(self):
        rng = random.Random(79)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(15):
            p = random_poly(rng, chart, max_order=2, max_degree=3, max_terms=4)
            potentials, remainder = divergence_split(chart, p)
            total = remainder
            for mu in range(chart.n):
                total = total + potentials[mu].total_derivative(mu)
            assert total == p


def _reference_split(chart: Chart, p: Poly) -> tuple:
    """The greedy loop `divergence_split` ran before it tested the necessary
    condition: every candidate is built and tried, and the sums grow one
    term at a time."""
    potentials = [Poly.zero() for _ in range(chart.n)]
    remainder = Poly.zero()
    for mono, coeff in p.sorted_terms():
        term = Poly({mono: coeff})
        placed = False
        jet_candidates = sorted(
            (var for var, e in mono if var[0] == "j" and e == 1 and sum(var[2]) >= 1),
            key=lambda v: (sum(v[2]), v[2], v[1]),
            reverse=True,
        )
        for w in jet_candidates:
            for mu in range(chart.n):
                if w[2][mu] == 0:
                    continue
                lowered = w[2][:mu] + (w[2][mu] - 1,) + w[2][mu + 1 :]
                v = jet_var(w[1], lowered)
                exps = dict(mono)
                exps.pop(w)
                k = exps.pop(v, 0)
                exps[v] = k + 1
                candidate = Poly({tuple(exps.items()): coeff * Fraction(1, k + 1)})
                if candidate.total_derivative(mu) == term:
                    potentials[mu] = potentials[mu] + candidate
                    placed = True
                    break
            if placed:
                break
        if not placed:
            remainder = remainder + term
    return tuple(potentials), remainder


class TestDivergenceSplitReference:
    """`divergence_split` builds only the candidates that pass the necessary
    condition d_mu(rest) = 0, and places every term where the greedy loop
    that tries them all places it."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_reference_loop(self, n):
        chart = density_chart(n, "1")
        rng = random.Random(211 + n)
        polys = [random_poly(rng, chart, max_order=3, max_degree=4, max_terms=6) for _ in range(60)]
        polys += [quasi_lagrangian(random_system(rng, chart, max_order=2)) for _ in range(10)]
        placed = 0
        for p in polys:
            potentials, remainder = divergence_split(chart, p)
            assert (potentials, remainder) == _reference_split(chart, p)
            placed += len(p.terms) - len(remainder.terms)
        assert placed >= 20

    def test_one_trial_per_placed_term(self, monkeypatch):
        chart = Chart(("t", "x"), ("u",))
        u, u_t, u_x = chart.field(0), chart.jet(0, (1, 0)), chart.jet(0, (0, 1))
        t, x = chart.x(0), chart.x(1)
        # u_x u^a x^b: the rest holds x, so no trial along x is built for it
        bs = BalanceSystem(chart, [[(u + u_t + x + 1) ** 5, (u + u_x + x + 1) ** 5]], [u * t])
        ltilde = quasi_lagrangian(bs)
        assert len(ltilde.terms) >= 100
        calls = {"total_derivative": 0, "__add__": 0}
        for name in calls:
            original = vars(Poly)[name]

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for key, value in list(vars(Poly).items()):
                if value is original:
                    monkeypatch.setattr(Poly, key, counted)
        potentials, remainder = divergence_split(chart, ltilde)
        placed = len(ltilde.terms) - len(remainder.terms)
        assert placed >= 10
        assert calls == {"total_derivative": placed, "__add__": 0}
        monkeypatch.undo()
        assert (potentials, remainder) == _reference_split(chart, ltilde)


class TestFiltrationTwoSpatial:
    def test_lagrangian_part_is_laplacian(self):
        chart = Chart(("t", "x", "y"), ("u",))
        u = chart.field(0)
        zx, zy = chart.jet(0, (0, 1, 0)), chart.jet(0, (0, 0, 1))
        zxx, zyy = chart.jet(0, (0, 2, 0)), chart.jet(0, (0, 0, 2))
        bs = BalanceSystem(chart, [[u - zxx - zyy, -zx, -zy]], [Poly.zero()])
        el = euler_lagrange(chart, quasi_lagrangian(bs))
        assert el.components() == (zxx + zyy,)


class TestSystemConstruction:
    def test_shape_checked(self, chart_tx_uv):
        with pytest.raises(InvalidSystemError):
            BalanceSystem(chart_tx_uv, [[Poly.zero()]], [Poly.zero(), Poly.zero()])

    def test_higher_order_entries(self, chart_tx_u):
        """An entry at multi-index order k counts jet order + k - 1, so the
        Godunov report is not zero-order and the hyperbolicity test refuses
        it; zero entries are dropped."""
        u = chart_tx_u.field(0)
        bs = BalanceSystem.from_entries(chart_tx_u, {(0, (2, 0)): u, (0, (0, 0)): Poly.zero()})
        assert bs.entries == {(0, (2, 0)): u} and bs.order == 1
        report = godunov_check(bs)
        assert not report.is_zero_order and not report.verdict and report.potentials is None
        with pytest.raises(OrderTooHighError):
            symmetric_hyperbolicity(bs, [0, 0, 1])
        with pytest.raises(InvalidSystemError):
            BalanceSystem.from_entries(chart_tx_u, {(0, (2,)): u})

    def test_decompose_report_invariants(self):
        rng = random.Random(83)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(5):
            bs = random_system(rng, chart)
            report = decompose(bs)
            assert report.lagrangian_part + report.nonlagrangian_part == balance_form(bs)
            combined = tuple(
                a + b
                for a, b in zip(
                    report.euler_lagrange_form.components(),
                    report.godunov_part.components(),
                )
            )
            assert combined == source_form(bs).components()
