"""Exterior algebra and bicomplex identities in the contact basis."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given

from jetbalance import BidegreeError, Chart, Form, InvalidSystemError, Poly, form_text
from jetbalance.jetforms import InvalidWord
from jetbalance.symcore import base_var, is_jet, jet_parts, jet_var

from conftest import homogeneous_forms, multi_indices, polys, random_form, random_poly


class TestWedge:
    def test_repeated_contact_factor_vanishes(self, chart_tx_u):
        w = Form.contact(chart_tx_u, 0)
        assert w.wedge(w).is_zero

    def test_horizontal_antisymmetry(self, chart_tx_u):
        dt = Form.dx(chart_tx_u, 0)
        dx = Form.dx(chart_tx_u, 1)
        assert dt.wedge(dx) == -(dx.wedge(dt))

    def test_sorted_merge_with_parity(self, chart_tx_uv):
        chart = chart_tx_uv
        u, v = chart.field(0), chart.field(1)
        a = Form.contact(chart, 0) * u
        b = Form.contact(chart, 1).wedge(Form.dx(chart, 0)) * v
        # w(u) ^ (w(v) ^ dt) keeps coefficient u v; dt passes two contact factors
        result = a.wedge(b)
        expected = Form(chart, {((0,), (jet_var(0, (0, 0)), jet_var(1, (0, 0)))): u * v})
        assert result == expected

    @given(homogeneous_forms(), homogeneous_forms())
    def test_graded_commutativity(self, a, b):
        if a.chart != b.chart or a.is_zero or b.is_zero:
            return
        da = sum(a.bidegree())
        db = sum(b.bidegree())
        left = a.wedge(b)
        right = b.wedge(a)
        assert left == (right if (da * db) % 2 == 0 else -right)


class TestVerticalDifferential:
    def test_on_function(self, chart_tx_u):
        u = chart_tx_u.field(0)
        f = Form.function(chart_tx_u, u**2)
        assert f.d_V() == Form.contact(chart_tx_u, 0) * (2 * u)

    def test_repeated_factor_kills(self, chart_x_u):
        chart = chart_x_u
        zx = chart.jet(0, (1,))
        term = (Form.contact(chart, 0, (1,)) * zx).wedge(Form.volume(chart))
        assert term.d_V().is_zero

    def test_two_fields(self, chart_tx_uv):
        chart = chart_tx_uv
        u = chart.field(0)
        term = (Form.contact(chart, 1) * u).wedge(Form.volume(chart))
        expected = Form.contact(chart, 0).wedge(Form.contact(chart, 1)).wedge(Form.volume(chart))
        assert term.d_V() == expected


class TestHorizontalDifferential:
    def test_on_function(self, chart_tx_u):
        chart = chart_tx_u
        u = chart.field(0)
        zt = chart.jet(0, (1, 0))
        zx = chart.jet(0, (0, 1))
        expected = Form.dx(chart, 0) * zt + Form.dx(chart, 1) * zx
        assert Form.function(chart, u).d_H() == expected

    def test_top_degree_overflow(self, chart_tx_u):
        chart = chart_tx_u
        u = chart.field(0)
        top = Form.dx(chart, 0).wedge(Form.dx(chart, 1)) * u
        assert top.d_H().is_zero

    def test_on_contact_generator(self, chart_tx_u):
        # frozen from the dz-basis expansion: d(dy - z dx) has horizontal part
        # dx^mu ^ w_mu
        chart = chart_tx_u
        w = Form.contact(chart, 0)
        expected = Form.dx(chart, 0).wedge(Form.contact(chart, 0, (1, 0))) + Form.dx(
            chart, 1
        ).wedge(Form.contact(chart, 0, (0, 1)))
        assert w.d_H() == expected


class TestTotalDerivativeForm:
    def test_volume_coefficient(self, chart_tx_u):
        chart = chart_tx_u
        zx = chart.jet(0, (0, 1))
        ztx = chart.jet(0, (1, 1))
        vol = Form.volume(chart)
        assert (vol * zx).total_derivative(0) == vol * ztx

    def test_density_contributes_logarithmic_term(self):
        # with density x, d_x(F eta) folds (d_x F + F / x) x exactly
        flat = Chart(("x",), ("u",))
        chart = Chart(("x",), ("u",), flat.x(0))
        u = chart.field(0)
        zx = chart.jet(0, (1,))
        x = chart.x(0)
        form = Form(chart, {((0,), ()): u * x})
        expected = Form(chart, {((0,), ()): zx * x + u})
        assert form.total_derivative(0) == expected

    def test_promotes_contact_generator(self, chart_tx_u):
        chart = chart_tx_u
        term = Form.contact(chart, 0).wedge(Form.volume(chart))
        expected = Form.contact(chart, 0, (1, 0)).wedge(Form.volume(chart))
        assert term.total_derivative(0) == expected


def _factors(word) -> list:
    """A word as its factor list: (0, mu) for dx^mu, (1, code) for a contact
    factor, so that sorting puts it in word order."""
    h, c = word
    return [(0, mu) for mu in h] + [(1, gen) for gen in c]


def _sorted_form(chart: Chart, pieces) -> Form:
    """The sum of (factor list, coefficient) pieces, each factor list sorted
    with the sign (-1)^(inversions); a list with a repeated factor is zero."""
    out: dict = {}
    for factors, coeff in pieces:
        if len(set(factors)) < len(factors) or coeff.is_zero:
            continue
        inversions = sum(1 for a, b in itertools.combinations(factors, 2) if a > b)
        ordered = sorted(factors)
        word = (tuple(g for k, g in ordered if k == 0), tuple(g for k, g in ordered if k == 1))
        out[word] = out.get(word, Poly.zero()) + (-coeff if inversions % 2 else coeff)
    return Form(chart, out)


def _derived_pieces(form: Form, mu: int) -> list:
    """d_mu of each word as factor lists: the coefficient's total derivative
    on the word, and each contact factor promoted in place."""
    pieces = []
    for word, coeff in form.terms.items():
        factors = _factors(word)
        pieces.append((factors, coeff.total_derivative(mu)))
        for q, (kind, gen) in enumerate(factors):
            if kind == 1:
                i, counts = jet_parts(gen)
                raised = tuple(c + (k == mu) for k, c in enumerate(counts))
                promoted = (1, jet_var(i, raised))
                pieces.append((factors[:q] + [promoted] + factors[q + 1 :], coeff))
    return pieces


class TestSignsAgainstInversionCount:
    """Every signed insertion of the form algebra against a reference that
    writes the factors in the order the operator produces them, sorts them
    and counts inversions."""

    @staticmethod
    def _forms(seed: int):
        """Random forms on n = 1, 2, 3 coordinates whose words hold up to
        three contact generators of order <= 2, as code tuples."""
        rng = random.Random(seed)
        chart = Chart(("t", "x", "y")[: rng.randint(1, 3)], ("u", "v"))
        gens = [jet_var(i, counts) for i in range(chart.m) for counts in multi_indices(chart.n, 2)]

        def form():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                h = tuple(sorted(rng.sample(range(chart.n), rng.randint(0, chart.n))))
                c = tuple(sorted(rng.sample(gens, rng.randint(0, 3))))
                terms[(h, c)] = random_poly(rng, chart, max_order=2, max_degree=2, max_terms=2)
            return Form(chart, terms)

        return chart, form(), form()

    @pytest.mark.parametrize("seed", range(40))
    def test_wedge(self, seed):
        chart, a, b = self._forms(seed)
        pieces = [(_factors(wa) + _factors(wb), ca * cb)
                  for wa, ca in a.terms.items() for wb, cb in b.terms.items()]
        assert a.wedge(b) == _sorted_form(chart, pieces)

    @pytest.mark.parametrize("seed", range(40))
    def test_d_V(self, seed):
        chart, form, _ = self._forms(seed)
        pieces = [([(1, var)] + _factors(word), coeff.partial(var))
                  for word, coeff in form.terms.items()
                  for var in coeff.variables() if is_jet(var)]
        assert form.d_V() == _sorted_form(chart, pieces)

    @pytest.mark.parametrize("seed", range(40))
    def test_total_derivative_and_d_H(self, seed):
        chart, form, _ = self._forms(seed)
        for mu in range(chart.n):
            assert form.total_derivative(mu) == _sorted_form(chart, _derived_pieces(form, mu))
        pieces = [([(0, mu)] + factors, coeff)
                  for mu in range(chart.n) for factors, coeff in _derived_pieces(form, mu)]
        assert form.d_H() == _sorted_form(chart, pieces)

    def test_promotion_crosses_and_collides(self, chart_tx_u):
        """w(u) ^ w(u_x): along t the promoted u_t passes u_x (sign -1); along
        x the promoted u_x collides with its neighbour (the term vanishes)."""
        chart, one = chart_tx_u, Poly.constant(1)
        u, u_t, u_x = jet_var(0, (0, 0)), jet_var(0, (1, 0)), jet_var(0, (0, 1))
        form = Form(chart, {((), (u, u_x)): one})
        assert form.total_derivative(0) == Form(chart, {
            ((), (u_x, u_t)): -one,
            ((), (u, jet_var(0, (1, 1)))): one,
        })
        assert form.total_derivative(1) == Form(chart, {((), (u, jet_var(0, (0, 2)))): one})
        for mu in range(chart.n):
            assert form.total_derivative(mu) == _sorted_form(chart, _derived_pieces(form, mu))


class TestContract:
    def test_removes_matching_factor(self, chart_x_u):
        chart = chart_x_u
        u = chart.field(0)
        form = (Form.contact(chart, 0, (1,)) * u).wedge(Form.volume(chart))
        assert form.contract(jet_var(0, (1,))) == Form.volume(chart) * u

    def test_first_factor_sign(self, chart_tx_uv):
        chart = chart_tx_uv
        form = Form.contact(chart, 0).wedge(Form.contact(chart, 1)).wedge(Form.volume(chart))
        expected = Form.contact(chart, 1).wedge(Form.volume(chart))
        assert form.contract(jet_var(0, (0, 0))) == expected

    def test_missing_factor_vanishes(self, chart_x_u):
        chart = chart_x_u
        form = Form.contact(chart, 0).wedge(Form.volume(chart))
        assert form.contract(jet_var(0, (1,))).is_zero


class TestBicomplexIdentities:
    @given(homogeneous_forms())
    def test_dH_squared_zero(self, form):
        assert form.d_H().d_H().is_zero

    @given(homogeneous_forms())
    def test_dV_squared_zero(self, form):
        assert form.d_V().d_V().is_zero

    @given(homogeneous_forms())
    def test_anticommutator_zero(self, form):
        assert (form.d_H().d_V() + form.d_V().d_H()).is_zero

    @given(homogeneous_forms())
    def test_bidegree_bookkeeping(self, form):
        if form.is_zero:
            return
        s, r = form.bidegree()
        dh = form.d_H()
        dv = form.d_V()
        if not dh.is_zero:
            assert dh.bidegree() == (s + 1, r)
        if not dv.is_zero:
            assert dv.bidegree() == (s, r + 1)

    @given(polys(max_order=2))
    def test_full_differential_matches_contact_expansion(self, data):
        """d(f) = d_H f + d_V f agrees with expanding df in the dz basis and
        substituting dz = w + z_(+1) dx."""
        chart, p = data
        f = Form.function(chart, p)
        naive = Form.zero(chart)
        for mu in range(chart.n):
            naive = naive + Form.dx(chart, mu) * p.partial(base_var(mu))
        for var in p.variables():
            if not is_jet(var):
                continue
            i, counts = jet_parts(var)
            dz = Form.contact(chart, i, counts)
            for nu in range(chart.n):
                promoted = counts[:nu] + (counts[nu] + 1,) + counts[nu + 1 :]
                dz = dz + Form.dx(chart, nu) * Poly.variable(jet_var(i, promoted))
            naive = naive + dz * p.partial(var)
        assert f.d() == naive


class TestContractedVolumeIdentities:
    """The contracted volume forms are not axioms here; both of their
    defining relations fall out of the representation."""

    @staticmethod
    def _eta_mu(chart, mu):
        hword = tuple(k for k in range(chart.n) if k != mu)
        sign = -1 if mu % 2 else 1
        return Form(chart, {(hword, ()): chart.rho * sign})

    def test_wedge_relation(self):
        flat = Chart(("t", "x"), ("u",))
        chart = Chart(("t", "x"), ("u",), flat.x(0) ** 2 + 1)
        eta = Form.volume(chart)
        for mu in range(chart.n):
            eta_mu = self._eta_mu(chart, mu)
            for nu in range(chart.n):
                product = Form.dx(chart, nu).wedge(eta_mu)
                assert product == (eta if nu == mu else Form.zero(chart))

    def test_differential_relation(self):
        # d(eta_mu) equals the logarithmic-derivative multiple of eta,
        # carried in density-multiplied form: coefficient d_mu(rho)
        base = Chart(("t", "x"), ("u",))
        chart = Chart(("t", "x"), ("u",), base.x(0) ** 2 + base.x(1) + 1)
        from jetbalance.symcore import base_var

        for mu in range(chart.n):
            eta_mu = self._eta_mu(chart, mu)
            expected = Form(
                chart, {(tuple(range(chart.n)), ()): chart.rho.partial(base_var(mu))}
            )
            assert eta_mu.d() == expected


class TestHousekeeping:
    def test_mixed_bidegree_container(self, chart_tx_u):
        chart = chart_tx_u
        mixed = Form.dx(chart, 0) + Form.contact(chart, 0)
        assert mixed.bidegrees() == {(1, 0), (0, 1)}
        with pytest.raises(BidegreeError):
            mixed.bidegree()
        assert mixed.piece(1, 0) == Form.dx(chart, 0)
        assert mixed.piece(0, 1) == Form.contact(chart, 0)

    def test_contact_counts_checked(self, chart_tx_u):
        """A negative count is refused; it used to print as w(u_)."""
        with pytest.raises(InvalidSystemError):
            Form.contact(chart_tx_u, 0, (-1, 0))
        with pytest.raises(InvalidSystemError):
            Form.contact(chart_tx_u, 0, (1,))

    @pytest.mark.parametrize("gen", [
        pytest.param(base_var(1), id="base-code"),
        pytest.param(jet_var(0, (1,)), id="narrower-chart"),
        pytest.param(jet_var(0, (0, 1, 0)), id="wider-chart"),
        pytest.param(jet_var(1, (0, 0)), id="field-past-m"),
        pytest.param(jet_var(0, (0, 1)) + (1 << 48), id="order-slot-not-the-sum"),
        pytest.param((0, (1, 0)), id="pair"),
        pytest.param((0, (-1, 0)), id="pair-negative-count"),
        pytest.param(True, id="bool"),
        pytest.param(-1, id="negative"),
    ])
    def test_foreign_contact_factor_rejected(self, chart_tx_u, gen):
        """A contact factor is a jet-variable code of the form's chart."""
        with pytest.raises(InvalidWord):
            Form(chart_tx_u, {((), (gen,)): Poly.constant(1)})
        with pytest.raises(InvalidWord):
            Form(chart_tx_u, {((0,), (jet_var(0, (0, 0)), gen)): Poly.constant(1)})

    def test_text_rendering_eta(self, chart_tx_u):
        chart = chart_tx_u
        vol = Form.volume(chart)
        assert form_text(vol) == "eta"
        u = chart.field(0)
        assert form_text(Form.contact(chart, 0).wedge(vol) * u) == "(u) w(u)^eta"

    def test_rendering_deterministic(self):
        rng = random.Random(5)
        chart = Chart(("t", "x"), ("u", "v"))
        for _ in range(10):
            form = random_form(rng, chart, s=1, r=1)
            assert form_text(form) == form_text(form)
