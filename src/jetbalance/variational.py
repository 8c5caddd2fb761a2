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

from .jetforms import BidegreeError, Form
from .symcore import Chart, EngineError, InvalidSystemError, Poly, _ONE, _add_into, _cleared
from .symcore import _denominator, _divide, jet_parts, jet_var, var_field, var_order


class NotFunctionalError(EngineError):
    """Input failed the fixed-point test for the image of the interior Euler operator."""

    code = "not-functional"


class FunctionalForm:
    """An (n, s)-form in the image of the interior Euler operator.

    For s = 1 the form is a source form: a sum of components E_i wedged with
    the order-0 contact generator of field i and the coordinate volume.  A
    source form built from its components holds them and builds its form
    words only when `.form` is read.  `FunctionalForm(form)` wraps form
    words and reads its components off them when asked.  Equality, sums and
    differences all go through the form words.
    """

    __slots__ = ("chart", "_form", "_components")

    def __init__(self, form: Form):
        self.chart = form.chart
        self._form = form._unmarked()  # components are read off dx-basis words
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
            (full_h, (jet_var(i, zero),)): -comp if odd else comp
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
            if h != full_h or len(c) != 1 or var_order(c[0]):
                raise NotFunctionalError(
                    "component extraction needs a source form: one order-0 "
                    "contact factor against the full horizontal volume"
                )
            comps[var_field(c[0])] = -coeff if chart.n % 2 else coeff
        return tuple(comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalForm):
            return NotImplemented
        return self.form == other.form

    def __hash__(self) -> int:
        return hash(self.form)

    def __repr__(self) -> str:
        return f"FunctionalForm({self.form!r})"

    def __add__(self, other: "FunctionalForm") -> "FunctionalForm":
        if not isinstance(other, FunctionalForm):
            return NotImplemented
        return FunctionalForm(self.form + other.form)  # raises on a chart mismatch

    def __sub__(self, other: "FunctionalForm") -> "FunctionalForm":
        if not isinstance(other, FunctionalForm):
            return NotImplemented
        return FunctionalForm(self.form - other.form)


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
            if piece.is_zero:
                return piece
            piece = piece.total_derivative(mu)
    return piece


def interior_euler(form: Form) -> FunctionalForm:
    """Interior Euler operator: projects a homogeneous (n, s)-form, s >= 1,
    onto the functional forms.  The multi-index sum runs over the contact
    generators actually present, which is finite for polynomial forms.  rho
    is multiplied in first: the generators at the zero multi-index take no
    total derivative, and their terms add into the same sum."""
    form = form._unmarked()
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
    total: dict = {}
    for var in sorted(gens):
        i, counts = jet_parts(var)  # D_counts needs the multi-index
        piece = _total_derivative_along(form.contract(var), counts)
        terms = Form.contact(chart, i).wedge(piece).terms.items()
        _add_into(total, ((w, -c) for w, c in terms) if sum(counts) % 2 else terms)
    return FunctionalForm(Form._raw(chart, {w: c / s_c for w, c in total.items()}))


def vertical_homotopy(form: Form) -> Form:
    """Contracting homotopy along the fiber scaling flow: maps (r, s) to
    (r, s-1).  Per contact factor and per coefficient monomial of vertical
    degree d, the factor is removed with its interior-product sign, the
    corresponding jet variable is appended unscaled, and the monomial picks
    the weight 1/(d + s).  rho has vertical degree 0, so a marked form keeps
    its marker."""
    if form.is_zero:
        return form
    _, s = form.bidegree()
    if s < 1:
        raise BidegreeError("vertical homotopy needs contact degree >= 1")
    terms = []
    for (h, c), coeff in form.terms.items():
        weighted = coeff.scale_integrate(s - 1)  # each monomial times 1/(d + s)
        for q, gen in enumerate(c):
            piece = weighted * Poly.variable(gen)
            terms.append(((h, c[:q] + c[q + 1 :]), -piece if (len(h) + q) % 2 else piece))
    return Form._sum(form.chart, terms, form.marked)


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


def _cleared_euler_sum(chart: Chart, entries, d: int | None = None) -> tuple:
    """The Euler operator's alternating sum over the integers: each (code, p)
    entry, code the jet variable z^i_counts, adds (-1)^|counts| D_counts(rho p)
    to field i.  Returns (components, scale): int term dicts, one per field,
    that are `scale` times the sum.  Each entry is cleared once by symcore's
    `_cleared`, by d with its sign folded in, and rho by the lcm D_rho of its
    own denominators, so every total derivative and every addition runs on
    ints; scale = d D_rho.  d defaults to the entries' `_denominator`
    (`entries` is then read twice); a given d is a nonzero multiple of it, a
    negative one negating the sum."""
    if d is None:
        d = _denominator(c for _, p in entries for c in p.terms.values())
    rho = chart.rho.terms
    d_rho = _denominator(rho.values())
    rho = None if rho == _ONE else Poly._raw(_cleared(rho, d_rho))  # a unit density multiplies nothing
    comps = [{} for _ in range(chart.m)]
    for var, p in entries:
        i, counts = jet_parts(var)
        scale = -d if sum(counts) % 2 else d
        piece = p if scale == 1 else Poly._raw(_cleared(p.terms, scale))
        if rho is not None:
            piece = rho * piece
        _add_into(comps[i], _total_derivative_along(piece, counts).terms.items())
    return comps, d * d_rho


def _divided(comps, scale: int) -> tuple:
    """The Polys comps / scale of int term dicts and a nonzero int scale, a
    negative one giving the negation.  Each distinct value is divided once,
    by `_divide`, so integral quotients stay ints."""
    if scale == 1:
        return tuple(map(Poly._raw, comps))
    if scale == -1:
        return tuple(Poly._raw({mono: -c for mono, c in comp.items()}) for comp in comps)
    quotients = {c: _divide(c, scale) for c in {c for comp in comps for c in comp.values()}}
    return tuple(Poly._raw({mono: quotients[c] for mono, c in comp.items()}) for comp in comps)


def _euler_sum(chart: Chart, entries) -> tuple:
    """The Euler sum of `entries` (see `_cleared_euler_sum`) as Polys: the
    Euler-Lagrange components of jet partials and the source components of
    balance data, whose negation is the residuals."""
    return _divided(*_cleared_euler_sum(chart, entries))


def euler_lagrange(chart: Chart, lagrangian: Poly) -> FunctionalForm:
    """Euler-Lagrange source form of a polynomial Lagrangian: the Euler sum of
    its jet partials, expressed against the coordinate volume."""
    chart.validate_poly(lagrangian)
    comps = _euler_sum(chart, lagrangian.jet_partials().items())
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
    comps, scale = _cleared_euler_sum(bs.chart, bs.entries.items())
    return _divided(comps, -scale)
