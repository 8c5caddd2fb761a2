"""Balance systems as first-class objects.

A balance system is a chart together with density/flux polynomials F (one per
field and base coordinate), and source polynomials Pi (one per field).  The
system's contact encoding is the (n,1)-form

    sum_i ( sum_mu F[i][mu] w(z^i_mu) + Pi[i] w(y^i) ) ^ eta,

whose interior Euler image reproduces the equations.  The data is one map
from contact generators (i, multi-index) to coefficients, each source at the
zero multi-index; entries at higher multi-indices extend the same encoding to
higher-order flux data.  Every residual and source component is reported
density-multiplied: with volume density rho the equation for field i reads
d_mu(F[i][mu] rho) = Pi[i] rho,  which equals rho times the classical
statement with logarithmic-derivative terms, but stays inside exact
polynomial arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .jetforms import Form
from .symcore import (
    Chart,
    EngineError,
    InvalidSystemError,
    Poly,
    _add_into,
    _bareiss,
    _divide,
    base_var,
    jet_var,
    mi_add,
    mono_mul,
    var_order,
)
from .variational import (
    FunctionalForm,
    _euler_sum,
    euler_lagrange,
    higher_balance_residuals,
    interior_euler,
)


class OrderTooHighError(EngineError):
    """An analysis defined for zero-order systems received higher-order data."""

    code = "order-too-high"


class BalanceSystem:
    """Chart plus the system data, one map `entries` from contact generators
    (field, multi-index) to nonzero polynomials: each source Pi[i] at the
    zero multi-index and each flux F[i][mu] at the unit multi-index along mu;
    entries at higher multi-indices carry higher-order flux data.  An entry
    at multi-index order k >= 1 counts jet order + k - 1 towards `order`, so
    first-order data keeps the maximal jet order of its polynomials."""

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, F: Sequence, Pi: Sequence):
        F = tuple(tuple(row) for row in F)
        Pi = tuple(Pi)
        if len(F) != chart.m or any(len(row) != chart.n for row in F):
            raise InvalidSystemError(
                f"flux matrix must be m x n = {chart.m} x {chart.n} polynomials"
            )
        if len(Pi) != chart.m:
            raise InvalidSystemError(f"one source polynomial per field is required (m={chart.m})")
        zero = chart.zero_index()
        entries = {}
        for i, row in enumerate(F):
            entries[(i, zero)] = Pi[i]
            for mu, flux in enumerate(row):
                entries[(i, mi_add(zero, mu))] = flux
        self._fill(chart, entries)

    @classmethod
    def from_entries(cls, chart: Chart, entries: Mapping) -> "BalanceSystem":
        """A system of any order from its (field, multi-index) -> polynomial
        map; zero entries are dropped."""
        bs = cls.__new__(cls)
        bs._fill(chart, entries)
        return bs

    @classmethod
    def from_lagrangian(cls, chart: Chart, lagrangian: Poly) -> "BalanceSystem":
        """The gradient system of a first-order Lagrangian: each entry is the
        partial along its generator's jet variable, so the fluxes are the
        derivative partials and the sources the field partials."""
        if lagrangian.jet_order() > 1:
            raise InvalidSystemError("Lagrangian-generated systems need jet order <= 1")
        partials = lagrangian.jet_partials().items()
        return cls.from_entries(chart, {(i, counts): p for (_, i, counts), p in partials})

    def _fill(self, chart: Chart, entries: Mapping) -> None:
        clean = {}
        for (i, counts), p in entries.items():
            chart.jet(i, counts)  # rejects a generator outside the chart
            chart.validate_poly(p)
            if not p.is_zero:
                clean[(i, tuple(counts))] = p
        self.chart = chart
        self.entries = clean

    @property
    def order(self) -> int:
        return max(
            (p.jet_order() + max(sum(counts) - 1, 0) for (_, counts), p in self.entries.items()),
            default=0,
        )

    def flux(self, i: int, mu: int) -> Poly:
        return self.entries.get((i, mi_add(self.chart.zero_index(), mu)), Poly.zero())

    def source(self, i: int) -> Poly:
        return self.entries.get((i, self.chart.zero_index()), Poly.zero())

    @property
    def F(self) -> tuple:
        """The first-order flux matrix F[i][mu], read from the entries."""
        chart = self.chart
        return tuple(tuple(self.flux(i, mu) for mu in range(chart.n)) for i in range(chart.m))

    @property
    def Pi(self) -> tuple:
        """The sources Pi[i], read from the entries."""
        return tuple(self.source(i) for i in range(self.chart.m))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HelmholtzResult:
    closed: bool
    residual: Form
    lagrangian: Poly | None


@dataclass(frozen=True)
class GodunovReport:
    is_zero_order: bool
    flux_symmetric: tuple
    potentials: tuple | None
    source_pairing: Poly
    pairing_constant: Fraction | None
    verdict: bool


@dataclass(frozen=True)
class HyperbolicityReport:
    matrices: tuple  # per mu: m x m tuple of Poly in (x, y)
    symmetric: tuple
    point: tuple
    leading_minors: tuple
    singular: bool
    verdict: bool


@dataclass(frozen=True)
class DecompositionReport:
    quasi_lagrangian: Poly
    lagrangian_part: Form
    nonlagrangian_part: Form
    euler_lagrange_form: FunctionalForm
    godunov_part: FunctionalForm
    helmholtz_closed: bool
    trivial_quasi_lagrangian: bool
    divergence_potentials: tuple
    non_divergence_part: Poly


# ---------------------------------------------------------------------------
# the contact encoding and its direct consequences
# ---------------------------------------------------------------------------


def balance_form(bs: BalanceSystem) -> Form:
    """The (n,1)-form carrying the whole system against the volume form."""
    chart = bs.chart
    words = {((), (gen,)): p for gen, p in bs.entries.items()}  # one word per entry
    return Form._raw(chart, words).wedge(Form.volume(chart))


def balance_residuals(bs: BalanceSystem) -> tuple:
    """Density-weighted residuals R_i = sum_mu d_mu(F[i][mu] rho) - Pi[i] rho,
    minus the Euler sum of the data; a section solves the system iff all vanish.
    Higher-order entries enter with the same sum, see `higher_balance_residuals`."""
    return higher_balance_residuals(bs)


def source_form(bs: BalanceSystem) -> FunctionalForm:
    """Interior Euler image of the contact encoding; its components are the
    negated balance residuals."""
    return interior_euler(balance_form(bs))


def pairing_polynomial(bs: BalanceSystem) -> Poly:
    """The contraction of the system data with the fiber scaling field: each
    entry times the jet variable of its generator, so for first-order data
    sum_i y^i Pi_i + sum_{i,mu} z^i_mu F[i][mu], added in one term dict."""
    total: dict = {}
    for (i, counts), p in bs.entries.items():
        _add_into(total, _shifted(jet_var(i, counts), p))
    return Poly._raw(total)


def _shifted(var, p: Poly) -> list:
    """The terms of var * p: each monomial of p times var."""
    factor = ((var, 1),)
    return [(mono_mul(factor, mono), c) for mono, c in p.terms.items()]


def quasi_lagrangian(bs: BalanceSystem) -> Poly:
    """The scaling-integral potential of the contact encoding: each pairing
    monomial of vertical degree d picks the weight 1/d (the unscaled field or
    jet prefactor accounts for one degree, so the integrand carries t^(d-1))."""
    return pairing_polynomial(bs).scale_integrate(-1)


def helmholtz_check(bs: BalanceSystem) -> HelmholtzResult:
    """Closedness of the contact encoding.  The horizontal part of the
    differential dies on top horizontal degree, so the residual is purely
    vertical; when it vanishes the scaling potential is a Lagrangian whose
    derivative and field partials reproduce the fluxes and sources."""
    residual = balance_form(bs).d_V()
    closed = residual.is_zero
    return HelmholtzResult(closed, residual, quasi_lagrangian(bs) if closed else None)


def decompose(bs: BalanceSystem) -> DecompositionReport:
    """The quasi-Lagrangian L~ with its triviality and divergence
    presentation, and both splittings, all read off one L~.

    L~ is trivial iff it is zero: every pairing monomial has vertical degree
    >= 1 (a field or jet prefactor), so the scaling integral keeps the
    pairing's support.  The homotopy image of the encoding omega is L~ eta,
    so the Lagrangian part is d_V(L~ eta) and, by the homotopy identity, the
    rest of omega is the pure non-Lagrangian part h(d_V omega).  The Godunov
    part is the source form, the Euler sum of the data, minus the
    Euler-Lagrange form of L~; the interior Euler image of the
    non-Lagrangian part gives it by an independent route."""
    chart = bs.chart
    ltilde = quasi_lagrangian(bs)
    potentials, remainder = divergence_split(chart, ltilde)
    lag_part = (Form.volume(chart) * ltilde).d_V()
    nonlag_part = balance_form(bs) - lag_part
    source = FunctionalForm._from_components(chart, _euler_sum(chart, bs.entries.items()))
    euler_part = euler_lagrange(chart, ltilde)
    return DecompositionReport(
        quasi_lagrangian=ltilde,
        lagrangian_part=lag_part,
        nonlagrangian_part=nonlag_part,
        euler_lagrange_form=euler_part,
        godunov_part=source - euler_part,
        helmholtz_closed=nonlag_part.is_zero,
        trivial_quasi_lagrangian=ltilde.is_zero,
        divergence_potentials=potentials,
        non_divergence_part=remainder,
    )


# ---------------------------------------------------------------------------
# zero-order classification
# ---------------------------------------------------------------------------


def _symmetric(m: int, entry) -> bool:
    """Is the m x m matrix with entries entry(i, k) symmetric?  Compares the
    off-diagonal pairs in turn and stops at the first mismatch, so no
    diagonal entry and no entry past a mismatch is computed."""
    return all(entry(i, k) == entry(k, i) for i in range(m) for k in range(i + 1, m))


def _field_pairing(bs: BalanceSystem, counts: tuple) -> Poly:
    """sum_i y^i times the entry of field i at multi-index `counts`, added in
    one term dict: the source pairing at the zero multi-index, the pairing
    of a flux column at a unit one."""
    chart = bs.chart
    zero = chart.zero_index()
    total: dict = {}
    for i in range(chart.m):
        entry = bs.entries.get((i, counts))
        if entry is not None:
            _add_into(total, _shifted(jet_var(i, zero), entry))
    return Poly._raw(total)


def godunov_check(bs: BalanceSystem) -> GodunovReport:
    """Classification of a zero-order system: fluxes must be field gradients
    of potentials (symmetric field Jacobians), and the source pairing
    y^k Pi_k must be constant, which for polynomials forces it to vanish.

    On a system of order >= 1 the symmetry and the pairing are computed
    formally on the field variables; the report is then not zero-order, has
    no potentials and a false verdict.
    """
    chart = bs.chart
    zero = chart.zero_index()
    fields = [jet_var(i, zero) for i in range(chart.m)]
    symmetric = tuple(
        _symmetric(chart.m, lambda i, k: bs.flux(i, mu).partial(fields[k]))
        for mu in range(chart.n)
    )
    pairing = _field_pairing(bs, zero)
    pairing_constant = Fraction(0) if pairing.is_zero else None
    zero_order = bs.order == 0
    potentials = None
    if zero_order and all(symmetric):
        pots = []
        for mu in range(chart.n):
            pot = _field_pairing(bs, mi_add(zero, mu)).scale_integrate(-1)
            if any(pot.partial(y) != bs.flux(i, mu) for i, y in enumerate(fields)):
                raise EngineError("potential recovery failed on a symmetric flux column")
            pots.append(pot)
        potentials = tuple(pots)
    return GodunovReport(
        is_zero_order=zero_order,
        flux_symmetric=symmetric,
        potentials=potentials,
        source_pairing=pairing,
        pairing_constant=pairing_constant,
        verdict=zero_order and all(symmetric) and pairing_constant is not None,
    )


def symmetric_hyperbolicity(bs: BalanceSystem, point: Sequence) -> HyperbolicityReport:
    """Friedrichs test for the pure non-Lagrangian component of a zero-order
    system: the Godunov fluxes are the original fluxes minus the derivative
    partials of the scaling potential; their field Jacobians must be
    symmetric as polynomial identities, and the time matrix positive definite
    at the given rational point (Sylvester's leading-minor test, exact).

    A vanishing leading minor marks the point singular: the verdict is
    reported false but flagged indefinite rather than raising.
    """
    chart = bs.chart
    if bs.order >= 1:
        raise OrderTooHighError(
            f"symmetric hyperbolicity is defined for zero-order systems; this one has order {bs.order}"
        )
    point = tuple(Fraction(v) for v in point)
    if len(point) != chart.n + chart.m:
        raise InvalidSystemError(
            f"evaluation point needs {chart.n + chart.m} rational coordinates (base then fields)"
        )
    matrices = []
    for mu in range(chart.n):
        fluxes = [bs.flux(i, mu) for i in range(chart.m)]
        godunov_flux = [flux - flux.scale_integrate(0) for flux in fluxes]
        matrices.append(tuple(
            tuple(godunov_flux[i].partial(jet_var(j, chart.zero_index())) for j in range(chart.m))
            for i in range(chart.m)
        ))
    symmetric = tuple(_symmetric(chart.m, lambda i, j: rows[i][j]) for rows in matrices)
    assignment = {base_var(mu): point[mu] for mu in range(chart.n)}
    assignment.update(
        {jet_var(i, chart.zero_index()): point[chart.n + i] for i in range(chart.m)}
    )
    time_matrix = [
        [matrices[0][i][j].evaluate(assignment) for j in range(chart.m)]
        for i in range(chart.m)
    ]
    # Fractions, so that a structured report prints every minor, 0 included, as text
    minors = tuple(Fraction(_bareiss([row[:k] for row in time_matrix[:k]])[1])
                   for k in range(1, chart.m + 1))
    singular = any(v == 0 for v in minors)
    verdict = all(symmetric) and all(v > 0 for v in minors)
    return HyperbolicityReport(
        matrices=tuple(matrices),
        symmetric=symmetric,
        point=point,
        leading_minors=minors,
        singular=singular,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# sections and presentation helpers
# ---------------------------------------------------------------------------


def evaluate_on_section(p: Poly, section: Sequence, chart: Chart) -> Poly:
    """Substitute a prolonged section: every jet variable (i, counts) becomes
    the corresponding iterated partial derivative of section[i], a polynomial
    in the base coordinates; base coordinates stay untouched."""
    section = tuple(section)
    if len(section) != chart.m:
        raise InvalidSystemError("one section polynomial per field is required")
    for s in section:
        chart.validate_poly(s)
        if any(v[0] != "b" for v in s.variables()):
            raise InvalidSystemError("section polynomials may only involve base coordinates")
    cache: dict = {}

    def derived(i: int, counts: tuple) -> Poly:
        key = (i, counts)
        if key not in cache:
            value = section[i]
            for mu, reps in enumerate(counts):
                for _ in range(reps):
                    value = value.partial(base_var(mu))
            cache[key] = value
        return cache[key]

    mapping = {}
    for var in p.variables():
        if var[0] == "j":
            mapping[var] = derived(var[1], var[2])
    return p.substitute(mapping)


def divergence_split(chart: Chart, p: Poly) -> tuple:
    """Presentation helper: greedily peel off monomials that are exact single
    total derivatives, returning (potentials per coordinate, remainder) with
    p == sum_mu d_mu(potentials[mu]) + remainder guaranteed exactly.

    A monomial c * rest * v^k * w qualifies when w is a jet variable of order
    >= 1 with exponent one, v is w lowered along some coordinate mu, and the
    verified antiderivative c/(k+1) * rest * v^(k+1) reproduces it under d_mu.
    That happens iff d_mu(rest) = 0: d_mu of a monomial is a sum of distinct
    monomials with positive multiples, so it vanishes only when rest holds
    no jet variable and no x^mu.  Only such a candidate is built and tried.
    """
    potentials = [{} for _ in range(chart.n)]
    remainder = {}
    for mono, coeff in p.terms.items():
        found = _single_antiderivative(chart, mono, coeff)
        if found is None:
            remainder[mono] = coeff
        else:
            mu, candidate = found
            _add_into(potentials[mu], candidate.terms.items())
    return tuple(map(Poly._raw, potentials)), Poly._raw(remainder)


def _single_antiderivative(chart: Chart, mono: tuple, coeff) -> tuple | None:
    """The first (mu, candidate) of `divergence_split` whose d_mu gives back
    coeff * mono, or None.  Candidates are tried from the highest-ranked w
    down and, for each w, along mu ascending."""
    jets = [var for var, _ in mono if var[0] == "j"]
    if len(jets) > 2:  # rest holds a jet variable whatever w and v are
        return None
    rest = mono[: len(mono) - len(jets)]  # the base factors, which rank first
    candidates = sorted(
        (var for var, e in mono if var[0] == "j" and e == 1 and var_order(var) >= 1),
        key=lambda v: (var_order(v), v[2], v[1]),
        reverse=True,
    )
    for w in candidates:
        for mu in range(chart.n):
            if w[2][mu] == 0:
                continue
            lowered = w[2][:mu] + (w[2][mu] - 1,) + w[2][mu + 1 :]
            v = jet_var(w[1], lowered)
            if any(var not in (w, v) for var in jets) or any(var[1] == mu for var, _ in rest):
                continue  # d_mu(rest) != 0
            k = dict(mono).get(v, 0)
            candidate = Poly._raw({rest + ((v, k + 1),): _divide(coeff, k + 1)})
            if candidate.total_derivative(mu).terms == {mono: coeff}:
                return mu, candidate
    return None
