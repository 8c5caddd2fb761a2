"""Exact rational arithmetic on sparse multivariate polynomials over jet coordinates.

A coordinate of a fibred chart with n base coordinates and m field
components is one non-negative int, its code, laid out in 16-bit slots:

* base coordinate  x^mu          -> mu
* jet variable     z^i_Lambda    -> the slots 1, |Lambda|, Lambda_1, ..., Lambda_n, i,
                                    most significant first

where Lambda is the derivative multi-index (the symmetric multi-index
convention: only the number of derivatives per coordinate matters, so the
code is canonical) and |Lambda| its sum, the derivative order; a field
component y^i is the jet variable of the zero multi-index.  The leading 1
puts every jet variable above every base coordinate, so a code compares as
its own rank: base coordinates first, by index, then jet variables graded
by derivative order, multi-index, field.  Every slot stays below 2^16: a
chart has at most 65536 base coordinates and 65536 fields, and the
derivative order is at most MAX_ORDER = 65535; `jet_var` and
`Poly.total_derivative` raise InvalidSystemError past it.  Only this module
reads the layout; other modules use `is_jet`, `var_order`, `var_field`,
`jet_parts`, `base_index` and `_promoted`.

A monomial is a tuple of (variable, exponent) pairs with positive exponents,
sorted by that ranking.  A polynomial maps monomials to nonzero exact rational
coefficients; the zero polynomial stores no terms.  Integral coefficients are
Python ints and the others Fractions (the integer and rational ground types
side by side, as in sympy.polys): every constructor, division and scaling
stores an integral value as an int, and sums and products follow Python's
exact mixed int/Fraction arithmetic.  Fraction(3) == 3 with equal hashes, so
equality does not see the type.  No floating point enters any computation in
this package: a coefficient or a point value given as anything but an int
or a Fraction raises InvalidSystemError.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import comb, lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping


class EngineError(Exception):
    """Base class for errors raised by this package; carries a stable code."""

    code = "internal"


class NonIntegrableError(EngineError):
    """The scaling integral diverges on some monomial (vertical degree d with d + e + 1 <= 0)."""

    code = "non-integrable"


class ChartMismatchError(EngineError):
    """Operands built over different charts were combined."""

    code = "chart-mismatch"


class InvalidSystemError(EngineError):
    """A balance system or analysis input violates its structural contract."""

    code = "invalid-system"


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------

Var = int
Mono = tuple

_SLOT = 16  # bits per slot of a variable code
_MASK = (1 << _SLOT) - 1  # the largest slot value; codes above it are jet variables
MAX_ORDER = _MASK  # the derivative-order budget


def base_var(mu: int) -> Var:
    return mu


def jet_var(i: int, counts: Iterable[int]) -> Var:
    """The code of z^i_counts; InvalidSystemError when a slot would not fit."""
    counts = tuple(counts)
    order = sum(counts)
    if order > MAX_ORDER or not 0 <= i <= _MASK or min(counts, default=0) < 0:
        raise InvalidSystemError(
            f"jet variable ({i}, {counts}) does not fit: the counts are naturals of sum at "
            f"most {MAX_ORDER} and the field index is below {_MASK + 1}"
        )
    code = 1 << _SLOT | order
    for c in counts:
        code = code << _SLOT | c
    return code << _SLOT | i


def is_jet(var: Var) -> bool:
    return var > _MASK


def base_index(var: Var) -> int:
    """The index mu of the base coordinate x^mu."""
    return var


def var_order(var: Var) -> int:
    """Derivative order of a variable; 0 for base coordinates and plain fields."""
    return var >> (var.bit_length() - 1 - _SLOT) & _MASK if var > _MASK else 0


def var_field(var: Var) -> int:
    """The field index i of the jet variable z^i_Lambda."""
    return var & _MASK


def jet_parts(var: Var) -> tuple:
    """The field index and the multi-index (i, Lambda) of z^i_Lambda."""
    top = var.bit_length() - 1 - 2 * _SLOT  # the shift of Lambda_1
    return var & _MASK, tuple([var >> shift & _MASK for shift in range(top, 0, -_SLOT)])


def _promoted(var: Var, mu: int) -> Var:
    """z^i_{Lambda+1_mu} from z^i_Lambda: one added constant, read off the
    code's width, that raises the order slot and the slot of Lambda_mu."""
    order_shift = var.bit_length() - 1 - _SLOT
    mu_shift = order_shift - _SLOT * (mu + 1)
    if var >> order_shift == 1 << _SLOT | MAX_ORDER:
        raise InvalidSystemError(
            f"a total derivative would exceed the derivative-order budget of {MAX_ORDER}")
    if not 0 < mu_shift < order_shift:
        raise InvalidSystemError(f"base index {mu} out of range for this jet variable")
    return var + (1 << order_shift) + (1 << mu_shift)


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomials: one merge pass over the sorted factors."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def mono_vertical_degree(m: Mono) -> int:
    """Total exponent over jet variables; base coordinates do not count."""
    return sum(e for var, e in m if var > _MASK)


def mono_jet_order(m: Mono) -> int:
    return max((var_order(var) for var, _ in m), default=0)


def mono_key(m: Mono) -> tuple:
    """Sort key of the graded order: total degree first, then each factor's
    variable and exponent read from the highest-ranked variable downward (a
    larger exponent, or a variable the other monomial lacks, wins).  Keys of
    any two monomials compare, and no key is a proper prefix of another of
    equal degree: a descending sort puts the leading monomial first."""
    out = [0]
    for var, e in reversed(m):
        out[0] += e
        out += (var, e)
    return tuple(out)


def _heap_key(m: Mono) -> tuple:
    """mono_key negated, which reverses its order: a min-heap pops the leading monomial first."""
    return tuple(-k for k in mono_key(m))


def _canonical(mono) -> Mono:
    """Factors sorted by rank, repeated variables merged, zero exponents dropped."""
    exps: dict[Var, int] = {}
    for var, e in mono:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted((var, e) for var, e in exps.items() if e))


def _exact(c):
    """An integral rational as an int; any other stays a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _rational(value):
    """An int or a Fraction as stored, an integral one as an int;
    InvalidSystemError for any other value (a float or a string included)."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _exact(value)
    raise InvalidSystemError(f"{value!r} is not an exact rational: use an int or a Fraction")


def _polynomial(value) -> "Poly":
    """A Poly as given; InvalidSystemError for any other value (an int included)."""
    if not isinstance(value, Poly):
        raise InvalidSystemError(f"{value!r} is not a polynomial: use a Poly")
    return value


def _divide(c, d: int):
    """c / d for a nonzero int d, divided once: an int when the quotient is
    integral, otherwise a Fraction."""
    if type(c) is int:
        return c // d if c % d == 0 else Fraction(c, d)
    return _exact(c / d)


def _denominator(values) -> int:
    """The lcm of the denominators of the int or Fraction `values`."""
    return lcm(*(c.denominator for c in values))


def _cleared(terms: dict, d: int) -> dict:
    """The ints d times the values of `terms`, every denominator dividing the
    int d: the one step that clears denominators before exact int work."""
    return {key: c.numerator * (d // c.denominator) for key, c in terms.items()}


_ONE = {(): 1}  # the terms of the constant 1


def _add_into(out: dict, items) -> None:
    """Add the (key, value) pairs `items` into the dict `out` in place,
    dropping every entry that cancels.  Every value passed in is nonzero.
    This is the one exact sum of the package: it serves term dicts
    (monomial -> int or Fraction) and form word dicts (word -> Poly)."""
    for key, c in items:
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            s = prev + c
            if s:
                out[key] = s
            else:
                del out[key]


def _bareiss(rows: list) -> tuple:
    """(rank, determinant) of an int matrix by fraction-free (Bareiss 1968)
    elimination with row pivoting: each step divides by the previous pivot
    with //, exactly, so the entries stay minors of the matrix.  The
    determinant is 0 unless the matrix is square of full rank."""
    rows = list(rows)  # reorders and replaces rows of this copy, never edits a row
    cols = len(rows[0]) if rows else 0
    rank, prev, sign = 0, 1, 1
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(a * top[col] - b * f) // prev for a, b in zip(rows[i], top)]
        rank, prev = rank + 1, top[col]
    return rank, sign * prev if rank == len(rows) == cols else 0


def _affinely_independent(monos) -> bool:
    """Whether the exponent vectors e_j of `monos` are affinely independent:
    the rows (1, e_j) have full rank over the rationals."""
    variables = {var for mono in monos for var, _ in mono}
    rows = []
    for mono in monos:
        exps = dict(mono)
        rows.append([1] + [exps.get(var, 0) for var in variables])
    return _bareiss(rows)[0] == len(rows)


def _multinomial_power(terms: dict, k: int) -> dict:
    """The terms of (sum_j c_j m_j)^k as the sum over the compositions alpha
    of k of k!/alpha! prod_j c_j^alpha_j m_j^alpha_j, for r >= 2 base terms.
    The exponent vectors of the m_j must be affinely independent, so that
    distinct compositions give distinct monomials and each result term is
    written once.  Rational base coefficients are cleared once: the base
    times the lcm D of their denominators is expanded in ints, and each
    result coefficient is divided once by D^k."""
    variables = sorted({var for mono in terms for var, _ in mono})
    slot = {var: i for i, var in enumerate(variables)}
    denominator = _denominator(terms.values())
    # per base term: its exponent vector times a, and its cleared coefficient to the a, for a = 0..k
    factors = []
    for mono, c in _cleared(terms, denominator).items():
        vec = [0] * len(variables)
        for var, e in mono:
            vec[slot[var]] = e
        factors.append(([tuple(a * e for e in vec) for a in range(k + 1)],
                        [c**a for a in range(k + 1)]))
    *head, (last_vecs, last_pows) = factors
    add = int.__add__
    # partial sums over the head terms: (exponent vector, coefficient, k left);
    # the last term takes what is left
    states = [((0,) * len(variables), 1, k)]
    for vecs, pows in head:
        states = [(tuple(map(add, vec, vecs[a])), c * comb(left, a) * pows[a], left - a)
                  for vec, c, left in states for a in range(left + 1)]
    scale = denominator**k
    out: dict[Mono, int | Fraction] = {}
    for vec, c, left in states:
        exps = tuple(map(add, vec, last_vecs[left]))
        c *= last_pows[left]
        out[tuple(compress(zip(variables, exps), exps))] = c if scale == 1 else _divide(c, scale)
    return out


def _mono_div(a: Mono, b: Mono) -> Mono | None:
    """a / b as a monomial, or None if some exponent would go negative."""
    exps = dict(a)
    for var, e in b:
        left = exps.get(var, 0) - e
        if left < 0:
            return None
        exps[var] = left
    return tuple((var, e) for var, e in exps.items() if e)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Immutable sparse polynomial: monomial -> nonzero int or Fraction (an
    int wherever a constructor, a division or a scaling makes the value
    integral).

    Values are never mutated after construction; every operation returns a
    fresh polynomial, so instances may be shared freely across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Fraction | int] | None = None):
        """Monomials are brought into canonical form: factors sorted by
        rank, repeated variables merged, zero exponents dropped."""
        self.terms: dict[Mono, int | Fraction] = {}
        if terms:
            exact = ((mono, _rational(c)) for mono, c in terms.items())
            _add_into(self.terms, ((_canonical(mono), c) for mono, c in exact if c))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        """Internal: adopt terms that are already canonical (sorted
        monomials, nonzero int or Fraction coefficients) without a check."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def constant(cls, value: Fraction | int) -> "Poly":
        c = _rational(value)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, var: Var) -> "Poly":
        return cls._raw({((var, 1),): 1})

    # -- basic protocol ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, o.terms.items())
        return Poly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, ((mono, -c) for mono, c in o.terms.items()))
        return Poly._raw(out)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.terms == _ONE:
            return self
        if self.terms == _ONE:
            return o
        if len(self.terms) <= 1:
            self, o = o, self
        out: dict[Mono, int | Fraction] = {}
        if len(o.terms) == 1:  # times a monomial: distinct monomials stay distinct
            [(mb, cb)] = o.terms.items()
            for ma, ca in self.terms.items():
                out[mono_mul(ma, mb)] = ca * cb
        elif o.terms:
            left, right = self.terms.items(), o.terms.items()
            _add_into(out, ((mono_mul(ma, mb), ca * cb) for ma, ca in left for mb, cb in right))
        return Poly._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self._scale(Fraction(1) / other)
        return NotImplemented

    def _scale(self, q: Fraction) -> "Poly":
        """Every coefficient times the nonzero rational q."""
        if q == 1:
            return self
        return Poly._raw({mono: _exact(c * q) for mono, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        """Powers by the multinomial formula or by repeated products
        (Fateman 1974 analyses both); the first power is the base itself.

        A one-term base is raised directly.  A base of r >= 2 terms whose
        exponent vectors are affinely independent (the rows (1, e_j) have
        rank r, an exact integer test) is expanded by the multinomial
        formula: distinct compositions of the exponent give distinct
        monomials, so each of the C(k + r - 1, r - 1) result terms is
        written once, with no merge and no product of polynomials.  Any
        other base, the zero polynomial included, is multiplied in k - 1
        times, which on sparse polynomials takes fewer term pairs than
        repeated squaring.  On a dependent base such as 1 + x + x^2, or the
        dense u + u^2 + ... + u^10, the compositions far outnumber the
        result terms, so the multinomial sum would be the slower one."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if exponent == 0:
            return Poly.constant(1)
        if exponent == 1:
            return self
        if len(self.terms) == 1:
            [(mono, coeff)] = self.terms.items()
            return Poly._raw({tuple((var, e * exponent) for var, e in mono): coeff**exponent})
        if len(self.terms) >= 2 and _affinely_independent(self.terms):
            return Poly._raw(_multinomial_power(self.terms, exponent))
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    # -- structure -----------------------------------------------------------

    def variables(self) -> set:
        return {var for mono in self.terms for var, _ in mono}

    def jet_order(self) -> int:
        """Highest derivative order among jet variables present (0 if none)."""
        return max((mono_jet_order(m) for m in self.terms), default=0)

    def constant_term(self) -> int | Fraction:
        return self.terms.get((), 0)

    def sorted_terms(self) -> list:
        """Terms in descending canonical (graded) order; leading term first."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=mono_key, reverse=True)]

    # -- calculus ------------------------------------------------------------

    def partial(self, var: Var) -> "Poly":
        """Formal partial derivative with respect to a single coordinate.
        Lowering one exponent maps distinct monomials to distinct ones, so
        every term is stored once."""
        out: dict[Mono, int | Fraction] = {}
        for mono, coeff in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v == var:
                    head = mono[:pos] + ((v, e - 1),) if e > 1 else mono[:pos]
                    out[head + mono[pos + 1 :]] = coeff * e if e > 1 else coeff
                    break
        return Poly._raw(out)

    def jet_partials(self) -> dict[Var, "Poly"]:
        """The partial derivative along every jet variable present, in one
        walk over each monomial's factors: jet variable -> Poly."""
        parts: dict[Var, dict] = {}
        for mono, coeff in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v > _MASK:
                    head = mono[:pos] + ((v, e - 1),) if e > 1 else mono[:pos]
                    parts.setdefault(v, {})[head + mono[pos + 1 :]] = coeff * e if e > 1 else coeff
        return {v: Poly._raw(t) for v, t in parts.items()}

    def total_derivative(self, mu: int) -> "Poly":
        """Total derivative d_mu in one walk over each monomial's factors: x^mu
        is lowered, and a jet factor z^i_Lambda is lowered and multiplied by
        its promotion z^i_{Lambda+1_mu}, built once per call and shared.  The
        terms are generated into the sum, so no list of them is held.
        Raises InvalidSystemError rather than promote a variable whose order
        is at the budget MAX_ORDER."""
        promoted: dict[Var, Mono] = {}

        def derived():
            for mono, coeff in self.terms.items():
                for pos, (v, e) in enumerate(mono):
                    if v > _MASK:
                        up = promoted.get(v)
                        if up is None:
                            up = promoted[v] = ((_promoted(v, mu), 1),)
                    elif v == mu:  # the base coordinate x^mu
                        up = ()
                    else:
                        continue
                    # the promoted variable ranks above v: it merges into the tail
                    head = mono[:pos] + ((v, e - 1),) if e > 1 else mono[:pos]
                    yield head + mono_mul(mono[pos + 1 :], up), coeff * e if e > 1 else coeff

        out: dict[Mono, int | Fraction] = {}
        _add_into(out, derived())
        return Poly._raw(out)

    def vertical_part(self) -> "Poly":
        """The components of vertical degree >= 1."""
        out = {m: c for m, c in self.terms.items() if mono_vertical_degree(m) > 0}
        return Poly._raw(out)

    def scale_integrate(self, exponent: int) -> "Poly":
        """Exact value of the scaling integral over t in [0, 1] of
        t^exponent * p(x, t*y, t*z): each monomial of vertical degree d picks
        the weight 1/(d + exponent + 1).

        Raises NonIntegrableError when some monomial has d + exponent + 1 <= 0.
        """
        out: dict[Mono, int | Fraction] = {}
        for mono, coeff in self.terms.items():
            denom = mono_vertical_degree(mono) + exponent + 1
            if denom <= 0:
                raise NonIntegrableError(
                    f"scaling integral diverges: monomial of vertical degree "
                    f"{mono_vertical_degree(mono)} with t-exponent {exponent}"
                )
            out[mono] = _divide(coeff, denom)
        return Poly._raw(out)

    # -- substitution ----------------------------------------------------------

    def substitute(self, mapping: Mapping[Var, "Poly"]) -> "Poly":
        """Replace variables by polynomials; unmapped variables stay themselves.
        Each term's image is added into one dict; a term is dropped at its
        first factor that maps to zero, and each power of a replacement is
        raised once per call."""
        out: dict[Mono, int | Fraction] = {}
        powers: dict = {}
        for mono, coeff in self.terms.items():
            term = Poly._raw({tuple(f for f in mono if f[0] not in mapping): coeff})
            for factor in mono:
                repl = mapping.get(factor[0])
                if repl is not None:
                    if repl.is_zero:
                        break
                    if factor not in powers:
                        powers[factor] = repl ** factor[1]
                    term = term * powers[factor]
            else:
                _add_into(out, term.terms.items())
        return Poly._raw(out)

    def evaluate(self, assignment: Mapping[Var, Fraction]) -> Fraction:
        """Exact value at a point; every variable present must be assigned."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for var, e in mono:
                value *= _rational(assignment[var]) ** e
            total += value
        return total

    # -- exact division ---------------------------------------------------------

    def div_exact(self, divisor: "Poly") -> "Poly | None":
        """Exact polynomial quotient self / divisor, or None when not divisible.

        The remainder is kept in a dict and its leading monomial is taken
        from a heap.  Every term of q * divisor other than the one that
        cancels the leading term ranks below it (the order is a monomial
        order), so the quotient monomials come out strictly decreasing."""
        if divisor.is_zero:
            raise ZeroDivisionError("division of a polynomial by zero")
        if tuple(divisor.terms) == ((),):
            return self._scale(Fraction(1) / divisor.terms[()])
        lead_mono = max(divisor.terms, key=mono_key)
        lead_coeff = divisor.terms[lead_mono]
        tail = [(m, c) for m, c in divisor.terms.items() if m != lead_mono]
        rem = dict(self.terms)
        heap = [(_heap_key(m), m) for m in rem]
        heapify(heap)
        quot: dict[Mono, int | Fraction] = {}
        while heap:
            mono = heappop(heap)[1]
            coeff = rem.pop(mono, None)
            if coeff is None:  # cancelled after it was pushed
                continue
            q_mono = _mono_div(mono, lead_mono)
            if q_mono is None:
                return None
            if lead_coeff == 1:
                q_coeff = _exact(coeff)
            elif lead_coeff == -1:
                q_coeff = _exact(-coeff)
            else:
                q_coeff = _exact(Fraction(coeff) / lead_coeff)
            quot[q_mono] = q_coeff
            # not `_add_into`: a new remainder monomial must also go on the heap
            for m, c in tail:
                prod = mono_mul(q_mono, m)
                prev = rem.get(prod)
                if prev is None:
                    rem[prod] = -q_coeff * c
                    heappush(heap, (_heap_key(prod), prod))
                else:
                    s = prev - q_coeff * c
                    if s:
                        rem[prod] = s
                    else:
                        del rem[prod]
        return Poly._raw(quot)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def _valid_name(name: str) -> bool:
    return name.isascii() and name.isalnum() and name[0].isalpha()


class Chart(namedtuple("Chart", "base_names field_names rho")):
    """A fibred chart: named base coordinates, named field components and a
    polynomial volume density in the base coordinates (default 1)."""

    __slots__ = ()

    def __new__(cls, base_names, field_names, rho=None):
        self = super().__new__(cls, tuple(base_names), tuple(field_names),
                               Poly.constant(1) if rho is None else _polynomial(rho))
        if not self.base_names or not self.field_names:
            raise InvalidSystemError("a chart needs at least one base coordinate and one field")
        if max(len(self.base_names), len(self.field_names)) > _MASK + 1:
            raise InvalidSystemError(f"a chart has at most {_MASK + 1} base coordinates and fields")
        names = self.base_names + self.field_names
        if len(set(names)) != len(names):
            raise InvalidSystemError("chart names must be distinct")
        for name in names:
            if not _valid_name(name):
                raise InvalidSystemError(
                    f"invalid name {name!r}: names are letters followed by letters/digits"
                )
        if self.rho.is_zero:
            raise InvalidSystemError("the volume density must not be the zero polynomial")
        variables = self.rho.variables()
        self.validate_variables(variables)
        if any(var > _MASK for var in variables):
            raise InvalidSystemError("the volume density may only involve base coordinates")
        return self

    @classmethod
    def _make(cls, iterable) -> "Chart":
        """A chart from its three fields through `__new__`; the named tuple's
        `_replace` calls this, so a replaced chart is checked too."""
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.base_names)

    @property
    def m(self) -> int:
        return len(self.field_names)

    def zero_index(self) -> tuple:
        return (0,) * self.n

    # polynomial constructors bound to this chart
    def x(self, mu: int) -> Poly:
        self._check_base(mu)
        return Poly.variable(base_var(mu))

    def field(self, i: int) -> Poly:
        self._check_field(i)
        return Poly.variable(jet_var(i, self.zero_index()))

    def jet(self, i: int, counts: Iterable[int]) -> Poly:
        return Poly.variable(jet_var(i, self._check_jet(i, counts)))

    def _check_jet(self, i: int, counts: Iterable[int]) -> tuple:
        """The multi-index as a tuple, once field i and it fit the chart: the
        one check of a generator (i, counts) that a caller names."""
        counts = tuple(counts)
        self._check_field(i)
        if len(counts) != self.n or any(type(c) is not int or c < 0 for c in counts):
            raise InvalidSystemError(f"multi-index {counts} does not fit a chart with n={self.n}")
        if sum(counts) > MAX_ORDER:
            raise InvalidSystemError(
                f"multi-index {counts} exceeds the derivative-order budget of {MAX_ORDER}")
        return counts

    def _check_base(self, mu: int) -> None:
        if type(mu) is not int or not 0 <= mu < self.n:
            raise InvalidSystemError(f"base index {mu!r} is not an int in range for n={self.n}")

    def _check_field(self, i: int) -> None:
        if type(i) is not int or not 0 <= i < self.m:
            raise InvalidSystemError(f"field index {i!r} is not an int in range for m={self.m}")

    def validate_poly(self, p: Poly) -> None:
        """Check that p is a Poly and every variable of p a variable of this chart."""
        self.validate_variables(_polynomial(p).variables())

    def validate_variables(self, variables: Iterable[Var]) -> None:
        """Check that each variable is a variable of this chart: an int code,
        either a base coordinate below n or a jet variable of the width of n
        multi-index slots whose order slot is the sum of its counts and whose
        field is below m."""
        width = _SLOT * (self.n + 2)  # the bit length of a jet variable, less one
        shifts = range(_SLOT, width - _SLOT, _SLOT)  # those of the multi-index slots
        for var in variables:
            if type(var) is not int or var < 0:
                raise InvalidSystemError(f"{var!r} is neither a base coordinate nor a jet variable")
            if var <= _MASK:
                self._check_base(var)
            elif var.bit_length() - 1 != width:
                raise InvalidSystemError(f"variable code {var:#x} is not a jet variable for n={self.n}")
            elif sum(var >> shift & _MASK for shift in shifts) != var >> width - _SLOT & _MASK:
                raise InvalidSystemError(f"jet variable {var:#x} stores an order other than |Lambda|")
            else:
                self._check_field(var & _MASK)

    def var_name(self, var: Var) -> str:
        if var <= _MASK:
            return self.base_names[var]
        i, counts = jet_parts(var)
        name = self.field_names[i]
        return f"{name}_{suffix(self.base_names, counts)}" if any(counts) else name


def suffix(names, counts) -> str:
    """The multi-index suffix: each coordinate name repeated by its count."""
    return "".join(name * c for name, c in zip(names, counts))


def _generic_name(var: Var) -> str:
    if var <= _MASK:
        return f"x{var}"
    i, counts = jet_parts(var)
    return f"y{i}_d{suffix(map(str, range(len(counts))), counts)}" if any(counts) else f"y{i}"


class TermTable:
    """The sort keys and texts of the monomials of one render.

    Each variable is named once, and each distinct monomial gets its sort key
    (`mono_key`) and its factor text once, however many polynomials of the
    render hold it.  `name` renders a variable, `power` lays out a factor
    and its exponent and `fraction` a non-integral magnitude's numerator and
    denominator.  A table serves one render: its caller makes it, hands it
    to every leaf renderer and drops it, so nothing outlives the render and
    two renders share nothing."""

    __slots__ = ("name", "power", "fraction", "names", "monos")

    def __init__(self, name: Callable[[Var], str] | None = None, power: str = "{}^{}",
                 fraction: str = "{}/{}"):
        self.name = _generic_name if name is None else name
        self.power = power
        self.fraction = fraction
        self.names: dict[Var, str] = {}  # variable -> its name
        self.monos: dict[Mono, tuple] = {}  # monomial -> (sort key, factor text)

    def enter(self, mono: Mono) -> tuple:
        """Key and text a monomial the table does not hold yet."""
        names, power, parts = self.names, self.power, []
        for var, e in mono:
            name = names.get(var)
            if name is None:
                name = names[var] = self.name(var)
            parts.append(name if e == 1 else power.format(name, e))
        entry = self.monos[mono] = (mono_key(mono), " ".join(parts))
        return entry


_row_key = itemgetter(0)


def render_terms(p: Poly, table: TermTable) -> str:
    """The polynomial term walker: terms in descending graded order joined by
    their signs, each the coefficient magnitude (left out when it is 1 on a
    non-constant monomial) followed by the factors, as laid out by `table`."""
    if p.is_zero:
        return "0"
    monos, enter, fraction = table.monos, table.enter, table.fraction
    rows = []
    for mono, coeff in p.terms.items():
        key, text = monos.get(mono) or enter(mono)
        rows.append((key, text, coeff))
    rows.sort(key=_row_key, reverse=True)
    pieces: list[str] = []
    for _, text, coeff in rows:
        num, den = coeff.numerator, coeff.denominator
        sign = (" - " if num < 0 else " + ") if pieces else ("-" if num < 0 else "")
        num = abs(num)
        if den != 1 or num != 1 or not text:
            mag = fraction.format(num, den) if den != 1 else str(num)
            text = f"{mag} {text}" if text else mag
        pieces.append(sign + text)
    return "".join(pieces)


def poly_text(p: Poly, chart: Chart | None = None, table: TermTable | None = None) -> str:
    """Canonical text rendering: terms in descending graded order, rationals
    as p/q, factors separated by spaces (juxtaposition parses as product).
    A `table` made for a render is shared by all its polynomials; without
    one, the chart's names (or generic ones) fill a one-off table."""
    if table is None:
        table = TermTable(chart.var_name if chart is not None else None)
    return render_terms(p, table)
