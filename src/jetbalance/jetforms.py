"""Bigraded exterior forms on jet coordinates in the contact basis.

A form is a finite map from basis wedge words to polynomial coefficients.
A word is a pair (hwedge, cwedge):

* hwedge: strictly increasing tuple of base indices, the dx^mu factors;
* cwedge: strictly increasing tuple of jet-variable codes (see `symcore`),
  each standing for the contact one-form attached to its jet variable
  z^i_Lambda (the form dz - z dx that vanishes on prolonged sections).

The factor order inside a word is horizontal first, then contact generators
by code; all antisymmetry signs are normalized into the coefficient at
construction, so equality of forms is map comparison.  The bidegree of a
word is (len(hwedge), len(cwedge)); a Form may mix bidegrees (needed to hold
d = d_H + d_V results), and homogeneous pieces are exposed by accessors.
A caller names a generator as (field, multi-index) only in `Form.contact`.
The renderers print a word's generators by field, then multi-index, with
the sign of that reordering taken into the printed coefficient.

The metric volume form eta = rho dx^1 ^ ... ^ dx^n stays a symbol: a form
carries one marker, and a marked form is the chart density rho times its
stored terms, each of them a top horizontal word, so its stored coefficients
are the cofactors against eta.  rho depends on the base coordinates only, so
the algebra, d_V, contractions and the vertical homotopy act on a marked
form's terms as they stand; a total derivative first multiplies rho in,
which reproduces the density's logarithmic-derivative terms exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .symcore import Chart, ChartMismatchError, EngineError, InvalidSystemError, Poly, Var
from .symcore import TermTable, _add_into, _promoted, base_index, is_jet, jet_parts, jet_var
from .symcore import poly_text, render_terms, suffix

Word = tuple  # (hwedge tuple, cwedge tuple)


class BidegreeError(EngineError):
    """A variational operator received a form of the wrong or mixed bidegree."""

    code = "bidegree"


class Form:
    """Immutable bigraded exterior form over a fixed chart.  The constructor
    takes its words in the dx basis; `marked` is set on the forms built from
    `volume`, whose terms hold the cofactors against eta."""

    __slots__ = ("chart", "terms", "marked")

    def __init__(self, chart: Chart, terms: Mapping[Word, Poly] | None = None):
        self.chart = chart
        self.terms = {word: coeff for word, coeff in (terms or {}).items() if coeff}
        self.marked = False
        for word in self.terms:
            self._validate_word(chart, word)

    @staticmethod
    def _validate_word(chart: Chart, word: Word) -> None:
        hwedge, cwedge = word
        if list(hwedge) != sorted(set(hwedge)) or any(
            not 0 <= mu < chart.n for mu in hwedge
        ):
            raise InvalidWord(f"horizontal word {hwedge} is not a strict subset of the chart")
        try:
            chart.validate_variables(cwedge)  # ints only, so the comparisons below hold
        except InvalidSystemError as exc:
            raise InvalidWord(f"contact word {cwedge} does not fit the chart: {exc}") from None
        if not all(map(is_jet, cwedge)) or list(cwedge) != sorted(set(cwedge)):
            raise InvalidWord(f"contact word {cwedge} is not a strictly increasing tuple of jet variables")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Form":
        return cls(chart)

    @classmethod
    def function(cls, chart: Chart, p: Poly) -> "Form":
        """The (0,0)-form with coefficient p."""
        chart.validate_poly(p)
        return cls(chart, {((), ()): p})

    @classmethod
    def dx(cls, chart: Chart, mu: int) -> "Form":
        chart._check_base(mu)
        return cls(chart, {((mu,), ()): Poly.constant(1)})

    @classmethod
    def contact(cls, chart: Chart, i: int, counts=None) -> "Form":
        """The basic contact one-form for field i and multi-index counts."""
        counts = chart._check_jet(i, chart.zero_index() if counts is None else counts)
        return cls._raw(chart, {((), (jet_var(i, counts),)): Poly.constant(1)})

    @classmethod
    def volume(cls, chart: Chart) -> "Form":
        """The metric volume form eta: the marked coordinate volume."""
        return cls._raw(chart, {(tuple(range(chart.n)), ()): Poly.constant(1)}, True)

    # -- protocol ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.marked != other.marked:
            self, other = self._unmarked(), other._unmarked()
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self._unmarked().terms.items())))

    def __repr__(self) -> str:
        return f"Form({form_text(self)})"

    def _require_same_chart(self, other: "Form") -> None:
        if self.chart != other.chart:
            raise ChartMismatchError("forms over different charts cannot be combined")

    def _unmarked(self) -> "Form":
        """The form in the dx basis: a marked form with rho multiplied in."""
        if not self.marked:
            return self
        rho = self.chart.rho
        return self._raw(self.chart, {w: rho * c for w, c in self.terms.items()})

    def _alike(self, other: "Form") -> tuple:
        """The operands of a sum under one marker: unmarked unless both are marked."""
        self._require_same_chart(other)
        return (self, other) if self.marked == other.marked else (self._unmarked(), other._unmarked())

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        a, b = self._alike(other)
        out = dict(a.terms)
        _add_into(out, b.terms.items())
        return self._raw(self.chart, out, a.marked)

    def __neg__(self) -> "Form":
        return self._raw(self.chart, {w: -c for w, c in self.terms.items()}, self.marked)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        a, b = self._alike(other)
        out = dict(a.terms)
        _add_into(out, ((word, -coeff) for word, coeff in b.terms.items()))
        return self._raw(self.chart, out, a.marked)

    def __mul__(self, other) -> "Form":
        """Coefficient-wise multiplication by a polynomial or rational scalar."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Word, Poly] = {}
        for word, coeff in self.terms.items():
            c = coeff * other
            if not c.is_zero:
                out[word] = c
        return self._raw(self.chart, out, self.marked)

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, chart: Chart, terms: dict, marked: bool = False) -> "Form":
        f = cls.__new__(cls)
        f.chart = chart
        f.terms = terms
        f.marked = marked
        return f

    @classmethod
    def _sum(cls, chart: Chart, terms, marked: bool = False) -> "Form":
        """Internal: the exact sum of (word, nonzero coefficient) pairs."""
        out: dict[Word, Poly] = {}
        _add_into(out, terms)
        return cls._raw(chart, out, marked)

    # -- bidegree bookkeeping --------------------------------------------------------

    def bidegrees(self) -> set:
        return {(len(h), len(c)) for h, c in self.terms}

    def bidegree(self) -> tuple | None:
        """The (s, r) bidegree of a homogeneous form, None for the zero form.

        Raises BidegreeError when the form mixes bidegrees.
        """
        degrees = self.bidegrees()
        if not degrees:
            return None
        if len(degrees) > 1:
            raise BidegreeError(f"form mixes bidegrees {sorted(degrees)}")
        return next(iter(degrees))

    def piece(self, s: int, r: int) -> "Form":
        out = {w: c for w, c in self.terms.items() if (len(w[0]), len(w[1])) == (s, r)}
        return self._raw(self.chart, out, self.marked)

    # -- exterior algebra ---------------------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        """The exterior product; a marked factor marks the product.  Two
        marked factors share their dx factors, so their product is zero."""
        self._require_same_chart(other)
        terms = []
        for (h1, c1), p1 in self.terms.items():
            for (h2, c2), p2 in other.terms.items():
                sign = -1 if (len(c1) * len(h2)) % 2 else 1
                merged_h = _merge_tuples(h1, h2)
                if merged_h is None:
                    continue
                sgn_h, hw = merged_h
                merged_c = _merge_tuples(c1, c2)
                if merged_c is None:
                    continue
                sgn_c, cw = merged_c
                terms.append(((hw, cw), p1 * p2 if sign == sgn_h * sgn_c else -(p1 * p2)))
        return self._sum(self.chart, terms, self.marked or other.marked)

    # -- differentials ----------------------------------------------------------------------

    def d_V(self) -> "Form":
        """Vertical differential: raises contact degree by one; kills dx and
        the basic contact generators themselves.  Each coefficient is walked
        once for the partials along all of its jet variables."""
        terms = []
        for (h, c), coeff in self.terms.items():
            flip = (-1) ** len(h)  # the new generator moves past the dx factors
            for var, dp in coeff.jet_partials().items():
                merged = _merge_tuples((var,), c)
                if merged is not None:
                    sign, cw = merged
                    terms.append(((h, cw), dp if sign == flip else -dp))
        return self._sum(self.chart, terms, self.marked)

    def total_derivative(self, mu: int) -> "Form":
        """d_mu as a derivation on forms: total derivative of coefficients,
        dx^nu -> 0, contact generator z^i_Lambda -> z^i_{Lambda+1_mu}.
        rho is multiplied in first, since d_mu(rho p) is not rho d_mu(p)."""
        self.chart._check_base(mu)
        terms = []
        for (h, c), coeff in self._unmarked().terms.items():
            derived = coeff.total_derivative(mu)
            if derived:
                terms.append(((h, c), derived))
            for q, var in enumerate(c):
                # generator q leaves its place (sign (-1)^q), its promotion merges back in
                merged = _merge_tuples((_promoted(var, mu),), c[:q] + c[q + 1 :])
                if merged is not None:
                    sign, cw = merged
                    terms.append(((h, cw), coeff if sign == (-1) ** q else -coeff))
        return self._sum(self.chart, terms)

    def d_H(self) -> "Form":
        """Horizontal differential: sum over mu of dx^mu wedge d_mu."""
        terms = []
        for mu in range(self.chart.n):
            for (h, c), coeff in self.total_derivative(mu).terms.items():
                merged = _merge_tuples((mu,), h)
                if merged is not None:
                    sign, hw = merged
                    terms.append(((hw, c), coeff if sign == 1 else -coeff))
        return self._sum(self.chart, terms)

    def d(self) -> "Form":
        """Full exterior derivative, split as d_H + d_V."""
        return self.d_H() + self.d_V()

    # -- contraction -----------------------------------------------------------------------------

    def contract(self, var: Var) -> "Form":
        """Interior product with the coordinate vertical field of a jet variable."""
        if not is_jet(var):
            raise InvalidWord("contraction is defined against jet variables only")
        out: dict[Word, Poly] = {}  # removing var from distinct words leaves distinct words
        for (h, c), coeff in self.terms.items():
            try:
                q = c.index(var)
            except ValueError:
                continue
            out[(h, c[:q] + c[q + 1 :])] = -coeff if (len(h) + q) % 2 else coeff
        return self._raw(self.chart, out, self.marked)


class InvalidWord(EngineError):
    code = "invalid-form"


def _merge_tuples(a: tuple, b: tuple):
    """Merge strictly increasing tuples, tracking the permutation sign.

    Returns (sign, merged) or None when the tuples share an item.  This is
    every signed insertion of the form algebra: the wedge of two words, one
    new or promoted factor merged into a word, and the renderers' reordering
    of a word's generators.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    sign = 1
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        if a[ia] == b[ib]:
            return None
        if a[ia] < b[ib]:
            out.append(a[ia])
            ia += 1
        else:
            if (len(a) - ia) % 2:
                sign = -sign
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return sign, tuple(out)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lamda", "lambda", "mu", "nu", "xi", "pi", "rho",
    "sigma", "tau", "upsilon", "phi", "chi", "psi", "omega",
}


def _printed(c: tuple) -> tuple:
    """The generators of a contact word as (field, multi-index) pairs in
    print order, each merged into those before it, and the sign of that
    reordering."""
    sign, gens = 1, ()
    for var in c:
        s, gens = _merge_tuples(gens, (jet_parts(var),))
        sign *= s
    return sign, gens


def _latex_name(name: str) -> str:
    return f"\\{name}" if name in _GREEK else name


def latex_rational(q: int | Fraction) -> str:
    """A rational in LaTeX: the integer itself, otherwise a signed \\frac."""
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def latex_table(chart: Chart) -> TermTable:
    """A term table that names variables in LaTeX, jet variables as
    subscripted fields."""
    bases = [_latex_name(b) for b in chart.base_names]

    def name(var: Var) -> str:
        if not is_jet(var):
            return bases[base_index(var)]
        i, counts = jet_parts(var)
        field = _latex_name(chart.field_names[i])
        return f"{field}_{{{suffix(bases, counts)}}}" if any(counts) else field

    return TermTable(name, "{}^{{{}}}", "\\frac{{{}}}{{{}}}")


def poly_latex(p: Poly, chart: Chart, table: TermTable | None = None) -> str:
    """LaTeX fragment for a polynomial; `table` as for `poly_text`, made by
    `latex_table`."""
    return render_terms(p, latex_table(chart) if table is None else table)


class _Notation(NamedTuple):
    """How a format spells the pieces of a form word."""

    name: Callable  # a chart name as a symbol
    contact: str  # contact generator from its field symbol and subscript
    subscript: str  # subscript from a multi-index suffix
    volume: str
    wedge: str
    coefficient: str  # a rendered coefficient before its basis


_TEXT = _Notation(str, "w({}{})", "_{}", "eta", "^", "({}) {}")
_LATEX = _Notation(
    _latex_name, "\\omega^{{{}}}{}", "_{{{}}}", "\\eta", " \\wedge ", "\\left({}\\right) {}"
)


def _render_form(form: Form, notation: _Notation, poly, table: TermTable) -> str:
    """The form word walker: words in degree order joined by their signs,
    each a coefficient times its basis.  A marked form prints each stored
    coefficient, its cofactor, against the volume symbol; an unmarked form
    prints its dx factors.  A word stores its dx factors first, so the volume
    symbol takes the sign (-1)^(n r) of its move past the r contact factors.
    Coefficients +-1 print as a sign, and a function word prints as its bare
    coefficient.  A word's generators print by field, then multi-index, and
    words of one degree sort by those factors."""
    if form.is_zero:
        return "0"
    chart = form.chart
    bases = [notation.name(b) for b in chart.base_names]
    volume = [notation.volume] if form.marked else []
    words = []
    for (h, c), coeff in form.terms.items():
        sign, gens = _printed(c)
        if form.marked and chart.n * len(c) % 2:
            sign = -sign
        words.append(((len(h) + len(c), len(c), h, gens), coeff if sign == 1 else -coeff))
    pieces = []
    for (_, _, h, gens), coeff in sorted(words):  # distinct words have distinct keys
        factors = [] if form.marked else [f"d{bases[mu]}" for mu in h]
        for i, counts in gens:
            sub = notation.subscript.format(suffix(bases, counts)) if any(counts) else ""
            factors.append(notation.contact.format(notation.name(chart.field_names[i]), sub))
        basis = notation.wedge.join(factors + volume)
        if not basis:  # a (0,0) word: the function itself
            pieces.append(poly(coeff, chart, table))
        elif coeff == 1:
            pieces.append(basis)
        elif coeff == -1:
            pieces.append(f"-{basis}")
        else:
            pieces.append(notation.coefficient.format(poly(coeff, chart, table), basis))
    return pieces[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in pieces[1:])


def form_text(form: Form, table: TermTable | None = None) -> str:
    """Canonical text rendering of a form.  A marked form prints its
    cofactors against eta; an unmarked one prints its dx factors.  `table`
    as for `poly_text`."""
    if table is None:
        table = TermTable(form.chart.var_name)
    return _render_form(form, _TEXT, poly_text, table)


def form_latex(form: Form, table: TermTable | None = None) -> str:
    """LaTeX rendering of a form; `table` as for `poly_latex`."""
    if table is None:
        table = latex_table(form.chart)
    return _render_form(form, _LATEX, poly_latex, table)
