"""Variational operators: interior Euler projector, vertical homotopy and the
induced decomposition, Euler-Lagrange map, induced vertical differential, and
higher-order balance residuals.

Conventions, fixed once and used throughout:

* The vertical homotopy weight for a coefficient monomial of vertical degree
  d inside an (r, s)-form is 1/(d + s); the jet variable produced by the
  contraction with the scaling field is appended unscaled.  This makes the
  homotopy identity  omega = d_V(h(omega)) + h(d_V(omega))  an exact
  polynomial identity.
* Functional forms are expressed against the coordinate volume; the chart
  density rho is folded into every component, so all identities stay in
  exact polynomial arithmetic for nonconstant densities.
"""

from __future__ import annotations

import operator

from .jetforms import BidegreeError, Form, _accumulate
from .symcore import (
    Chart,
    EngineError,
    InvalidSystemError,
    Poly,
    _add_into,
    jet_var,
)


class NotFunctionalError(EngineError):
    """Input failed the fixed-point test for the image of the interior Euler operator."""

    code = "not-functional"


class FunctionalForm:
    """An (n, s)-form in the image of the interior Euler operator.

    For s = 1 the form is a source form: a sum of components E_i wedged with
    the order-0 contact generator of field i and the coordinate volume.  A
    source form built from its components holds them and builds its form
    words only when `.form` is read; two forms on one chart that both hold
    components compare, add and subtract by them.  `FunctionalForm(form)`
    wraps form words and reads its components off them when asked.
    """

    __slots__ = ("chart", "_form", "_components")

    def __init__(self, form: Form):
        self.chart = form.chart
        self._form = form
        self._components = None

    @classmethod
    def _from_components(cls, chart: Chart, components: tuple) -> "FunctionalForm":
        """Internal: the source form of components already known to fit the
        chart, holding them and no form words."""
        f = cls.__new__(cls)
        f.chart = chart
        f._form = None
        f._components = components
        return f

    @property
    def form(self) -> Form:
        """The form words, built from the components on first use."""
        if self._form is None:
            self._form = self._words()
        return self._form

    def _words(self) -> Form:
        chart = self.chart
        full_h, zero, odd = tuple(range(chart.n)), chart.zero_index(), chart.n % 2
        return Form._raw(chart, {
            (full_h, ((i, zero),)): -comp if odd else comp
            for i, comp in enumerate(self._components)
            if not comp.is_zero
        })

    @property
    def is_zero(self) -> bool:
        if self._form is None:
            return all(comp.is_zero for comp in self._components)
        return self._form.is_zero

    def components(self) -> tuple:
        """The component polynomials (E_1, ..., E_m) of a source form (s = 1)."""
        if self._components is not None:
            return self._components
        chart = self.chart
        full_h = tuple(range(chart.n))
        comps = [Poly.zero()] * chart.m
        for (h, c), coeff in self._form.terms.items():
            if h != full_h or len(c) != 1 or any(c[0][1]):
                raise NotFunctionalError(
                    "component extraction needs a source form: one order-0 "
                    "contact factor against the full horizontal volume"
                )
            comps[c[0][0]] = -coeff if chart.n % 2 else coeff
        return tuple(comps)

    def _by_components(self, other: "FunctionalForm") -> bool:
        return (self._components is not None and other._components is not None
                and self.chart == other.chart)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalForm):
            return NotImplemented
        if self._by_components(other):
            return self._components == other._components
        return self.form == other.form

    def __hash__(self) -> int:
        return hash(self.form)

    def __repr__(self) -> str:
        return f"FunctionalForm({self.form!r})"

    def _combine(self, other: "FunctionalForm", op) -> "FunctionalForm":
        if self._by_components(other):
            return self._from_components(
                self.chart, tuple(map(op, self._components, other._components))
            )
        return FunctionalForm(op(self.form, other.form))  # raises on a chart mismatch

    def __add__(self, other: "FunctionalForm") -> "FunctionalForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "FunctionalForm") -> "FunctionalForm":
        return self._combine(other, operator.sub)


def functional_from_components(chart: Chart, components) -> FunctionalForm:
    """Assemble the source form with the given per-field components (already
    weighted by the chart density)."""
    components = tuple(components)
    if len(components) != chart.m:
        raise InvalidSystemError("one component polynomial per field is required")
    for comp in components:
        chart.validate_poly(comp)
    return FunctionalForm._from_components(chart, components)


def _total_derivative_along(piece, counts: tuple):
    """The iterated total derivative D_counts of a Poly or a Form."""
    for mu, reps in enumerate(counts):
        for _ in range(reps):
            piece = piece.total_derivative(mu)
    return piece


def interior_euler(form: Form) -> FunctionalForm:
    """Interior Euler operator: projects a homogeneous (n, s)-form, s >= 1,
    onto the functional forms.  The multi-index sum runs over the contact
    generators actually present, which is finite for polynomial forms."""
    if form.is_zero:
        return FunctionalForm(form)
    s_h, s_c = form.bidegree()
    if s_h != form.chart.n or s_c < 1:
        raise BidegreeError(
            f"interior Euler operator needs a homogeneous (n, s) form with s >= 1, got ({s_h}, {s_c})"
        )
    chart = form.chart
    gens = set()
    for _, c in form.terms:
        gens.update(c)
    total = Form.zero(chart)
    for i, counts in sorted(gens):
        piece = _total_derivative_along(form.contract(jet_var(i, counts)), counts)
        if sum(counts) % 2:
            piece = -piece
        total = total + Form.contact(chart, i).wedge(piece)
    return FunctionalForm(Form._raw(chart, {w: c / s_c for w, c in total.terms.items()}))


def vertical_homotopy(form: Form) -> Form:
    """Contracting homotopy along the fiber scaling flow: maps (r, s) to
    (r, s-1).  Per contact factor and per coefficient monomial of vertical
    degree d, the factor is removed with its interior-product sign, the
    corresponding jet variable is appended unscaled, and the monomial picks
    the weight 1/(d + s)."""
    if form.is_zero:
        return form
    _, s = form.bidegree()
    if s < 1:
        raise BidegreeError("vertical homotopy needs contact degree >= 1")
    chart = form.chart
    out: dict = {}
    for (h, c), coeff in form.terms.items():
        weighted = coeff.scale_integrate(s - 1)  # each monomial times 1/(d + s)
        for q, gen in enumerate(c):
            piece = weighted * Poly.variable(jet_var(gen[0], gen[1]))
            _accumulate(out, (h, c[:q] + c[q + 1 :]), -piece if (len(h) + q) % 2 else piece)
    return Form._raw(chart, out)


def vertical_decompose(form: Form) -> tuple:
    """Split a homogeneous (r, s)-form, s >= 1, as
    (exact_part, complement) = (d_V h(form), h(d_V form)); the parts sum back
    to the input exactly."""
    if form.is_zero:
        return form, form
    _, s = form.bidegree()
    if s < 1:
        raise BidegreeError("vertical decomposition needs contact degree >= 1")
    exact_part = vertical_homotopy(form).d_V()
    complement = vertical_homotopy(form.d_V())
    return exact_part, complement


def _euler_sum(chart: Chart, entries) -> tuple:
    """The Euler operator's alternating sum: each ((i, counts), p) entry adds
    (-1)^|counts| D_counts(rho p) to field i.  It gives the Euler-Lagrange
    components of jet partials and the source components of balance data,
    whose negation is the residuals."""
    comps = [{} for _ in range(chart.m)]
    for (i, counts), p in entries:
        terms = _total_derivative_along(chart.rho * p, counts).terms.items()
        _add_into(comps[i], ((mono, -c) for mono, c in terms) if sum(counts) % 2 else terms)
    return tuple(map(Poly._raw, comps))


def euler_lagrange(chart: Chart, lagrangian: Poly) -> FunctionalForm:
    """Euler-Lagrange source form of a polynomial Lagrangian: the Euler sum of
    its jet partials, expressed against the coordinate volume."""
    chart.validate_poly(lagrangian)
    partials = sorted(lagrangian.jet_partials().items())
    comps = _euler_sum(chart, (((i, counts), dp) for (_, i, counts), dp in partials))
    return FunctionalForm._from_components(chart, comps)


def delta_V(functional: FunctionalForm) -> FunctionalForm:
    """Induced vertical differential on functional forms: interior Euler of
    the vertical differential.  Rejects inputs that are not fixed by the
    interior Euler operator."""
    form = functional.form
    if form.is_zero:
        return functional
    try:
        fixed = interior_euler(form)
    except BidegreeError as exc:
        raise NotFunctionalError(str(exc)) from exc
    if fixed.form != form:
        raise NotFunctionalError("input is not in the image of the interior Euler operator")
    return interior_euler(form.d_V())


def higher_balance_residuals(bs) -> tuple:
    """Residuals of a `balance.BalanceSystem` of any order: minus the Euler
    sum of its entries.  With only first-order entries they are the
    first-order balance residuals."""
    return tuple(-c for c in _euler_sum(bs.chart, bs.entries.items()))
