"""Command line front end: a small declaration language for balance systems,
analysis drivers, and text / LaTeX / structured renderers.

`run` looks the command up in a table of section builders; each builder
fills a `Report` whose sections map names to dicts of raw values (`Poly`,
`Form`, `Fraction`, booleans, nested dicts of them, lists, and matrices as
lists of rows).  The renderers share one walk over those sections that turns
each section into labelled entries (scalar, list, matrix, error) with a
per-format leaf formatter for the values; text and LaTeX lay the entries
out by per-format line templates, and a small override table lets a format
lay out a whole section itself (the R1/S1 labels of `equations`, and the
LaTeX quasi-Lagrangian with its divergence presentation).

System files are semicolon-separated statements:

    base t x;
    fields u;
    F[u,t] = u;
    F[u,x] = -(u^2/2 + u_x);
    Pi[u] = 0;

* ``base`` and ``fields`` declare coordinate and field names (letters then
  letters/digits; the underscore is reserved for jet tokens).
* ``density`` (optional, at most once) sets a nonzero polynomial volume
  density in the base coordinates; default 1.
* ``F[field, coords] = expr`` declares a flux entry.  ``coords`` is a run of
  base-coordinate names read as a multiset, so ``F[u,xx]`` is a second-order
  entry; entries of order one form an ordinary balance system.
* ``Pi[field] = expr`` declares a source.
* ``title "..."`` (at most once) and ``note "..."`` (any number) attach
  metadata.

Expressions use integers, rationals p/q, ``+ - * ^`` with the usual
precedence, parentheses, and juxtaposition as multiplication; division is
defined only by nonzero rational constants.  Jet tokens are field names with
a coordinate suffix (``u_t``, ``u_xx``, ``v_xy``); the explicit form
``d(u; 2,0)`` is accepted for charts whose names make suffixes ambiguous.

Exit status: 0 when the analyses ran (verdicts may be negative), 2 on input
errors, 3 on internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .balance import (
    BalanceSystem,
    OrderTooHighError,
    balance_residuals,
    decompose,
    evaluate_on_section,
    godunov_check,
    helmholtz_check,
    quasi_lagrangian,
    symmetric_hyperbolicity,
)
from .jetforms import Form, form_latex, form_text, latex_rational, latex_table, poly_latex
from .symcore import (
    MAX_ORDER, Chart, EngineError, InvalidSystemError, Poly, TermTable, _ONE, _add_into, _exact,
    base_var, jet_parts, jet_var, poly_text, suffix, var_field, var_order,
)
from .variational import _euler_sum, higher_balance_residuals

FORMATS = ("text", "latex", "structured")

FOOTNOTE_SOURCE_WEIGHT = (
    "Source terms enter the quasi-Lagrangian through the scaling integral: a "
    "source linear in the fields contributes with weight 1/2, so the "
    "non-divergence part is half the raw pairing of fields with sources."
)
FOOTNOTE_SIGN_CONVENTION = (
    "Signs of non-divergence derivative-square terms follow the scaling-"
    "integral convention; presentations that fold such terms into divergences "
    "differently can show the opposite sign."
)
FOOTNOTE_DENSITY = (
    "Higher-order flux entries are weighted by the same volume density as "
    "first-order balance laws, so data with only single derivatives reduces "
    "exactly to the first-order residuals."
)
SPLITTING_FOOTNOTES = (FOOTNOTE_SOURCE_WEIGHT, FOOTNOTE_SIGN_CONVENTION)


class ParseError(EngineError):
    code = "parse"

    def __init__(self, message, line=None, col=None, expected=()):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = tuple(expected)

    def __str__(self):
        base = super().__str__()
        where = f" at line {self.line}, col {self.col}" if self.line is not None else ""
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{base}{where}{hint}"


class UndeclaredNameError(ParseError):
    code = "undeclared-name"


class DuplicateRelationError(ParseError):
    code = "duplicate-relation"


class NumberTooLongError(EngineError):
    """A report number has more decimal digits than the interpreter turns into
    text; the process-wide limit is left as it is."""

    code = "number-too-long"


class EncodingError(EngineError):
    """Input bytes that are not UTF-8."""

    code = "encoding"


def _decode(data: bytes, name: str) -> str:
    """Strict UTF-8 text of an input, newlines translated as text-mode reading
    does; an invalid byte raises EncodingError naming its offset."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(
            f"{name} is not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# Tokens are names (an ASCII letter, then letters, digits and `_`), runs of
# ASCII digits, strings on one line and the symbols ;,=+-*/^()[], between
# blanks (space, tab, carriage return, newline) and comments (`#` to the end
# of the line).  `_SCAN.match` passes over all of these and stops at the
# first character no token starts with, or at a string without its closing
# quote.  The match always succeeds, so it never backtracks into a run it
# has read.  `_TOKEN.findall` then gives each token's text, and '' for each
# comment.
_SCAN = re.compile(r'(?:[A-Za-z][A-Za-z0-9_]*|[0-9;,=+\-*/^()\[\] \t\r\n]+|#[^\n]*|"[^"\n]*")*')
_TOKEN = re.compile(r'#[^\n]*|([A-Za-z][A-Za-z0-9_]*|[0-9]+|"[^"\n]*"|[;,=+\-*/^()\[\]])')


def _tokens(text: str) -> list:
    """The token texts of `text`, then '' for the end of input; a kind is
    read off the first character."""
    stop = _SCAN.match(text).end()
    if stop < len(text):
        char = text[stop]
        message = "unterminated string" if char == '"' else f"unexpected character {char!r}"
        raise ParseError(message, *_line_col(text, stop))
    return [*filter(None, _TOKEN.findall(text)), ""]


def _line_col(text: str, offset: int) -> tuple:
    """Line and column of a text offset; a tab or a carriage return is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_offset(text: str, index: int) -> int:
    """The offset of token `index` of `text`, found by scanning again, since
    only errors need it.  Past the last token it is the end of input: the
    end of the text, or the `#` of a comment that runs to it."""
    offset = len(text)
    for match in _TOKEN.finditer(text):
        if match.group(1) is None:
            if match.end() == len(text):
                offset = match.start()
        elif index:
            index -= 1
        else:
            return match.start()
    return offset


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


class SystemDocument(BalanceSystem):
    """A parsed system declaration: the validated `BalanceSystem` with the
    title and notes of its text.  Zero declarations are dropped, so that
    rendering and reparsing is the identity."""

    __slots__ = ("title", "notes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemDocument):
            return NotImplemented
        return (self.chart, self.entries, self.title, self.notes) == (
            other.chart, other.entries, other.title, other.notes
        )

    @property
    def fluxes(self) -> dict:
        """The flux entries keyed by (field, multi-index), in that order."""
        return dict(sorted((jet_parts(var), p) for var, p in self.entries.items() if var_order(var)))

    @property
    def sources(self) -> dict:
        return {var_field(var): p for var, p in self.entries.items() if not var_order(var)}

    @property
    def has_higher_entries(self) -> bool:
        return any(var_order(var) > 1 for var in self.entries)

    def to_balance_system(self) -> BalanceSystem:
        if self.has_higher_entries:
            raise InvalidSystemError(
                "this document declares flux entries of order >= 2; only the "
                "'higher' analysis applies"
            )
        return self

    def to_higher_data(self) -> BalanceSystem:
        return self


def _segment_suffix(suffix: str, base_names) -> tuple | None:
    """Split a jet suffix into declared coordinate names, longest name first,
    backing up to the next-longest name where the rest cannot be split;
    returns the derivative multi-index or None.  A position the rest cannot
    be split from is marked dead, so the search is linear in the suffix."""
    ordered = sorted(range(len(base_names)), key=lambda k: -len(base_names[k]))
    dead = set()
    chosen = []  # (position, index into `ordered`) of each name taken
    pos = j = 0
    while pos < len(suffix):
        for j in range(j, len(ordered)):
            name = base_names[ordered[j]]
            if suffix.startswith(name, pos) and pos + len(name) not in dead:
                chosen.append((pos, j))
                pos, j = pos + len(name), 0
                break
        else:
            if not chosen:
                return None
            dead.add(pos)
            pos, j = chosen.pop()
            j += 1
    counts = [0] * len(base_names)
    for _, j in chosen:
        counts[ordered[j]] += 1
    return tuple(counts)


MAX_PAREN_DEPTH = 100  # each level costs a few interpreter frames


class _Parser:
    """Recursive descent over the token texts of one input.  A token is
    addressed by its index, and an error finds the line and column of its
    token from the text only when it is raised."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self.pos = 0  # the next token; never moves past the end of input ''
        self.depth = 0  # open parentheses around the current position
        self.segments = {}  # jet suffix -> its multi-index, split once per parse

    def fail(self, message, at=None, expected=(), error=ParseError):
        """Raise `error` at token `at`, by default the next one."""
        offset = _token_offset(self.text, self.pos if at is None else at)
        raise error(message, *_line_col(self.text, offset), expected)

    def expect_sym(self, sym) -> None:
        if self.tokens[self.pos] != sym:
            self.fail(f"expected {sym!r}", expected=(repr(sym),))
        self.pos += 1

    def expect_name(self, what: str) -> int:
        """The index of the next token, a name."""
        at = self.pos
        if not self.tokens[at].isidentifier():
            self.fail(f"expected a {what}", expected=(what,))
        self.pos += 1
        return at

    def expect_int(self, what: str) -> int:
        value = self._int(self.pos, what)
        self.pos += 1
        return value

    def _int(self, at: int, what: str) -> int:
        tok = self.tokens[at]
        if not tok.isdigit():
            self.fail(f"expected {what}", at, ("integer",))
        try:
            return int(tok)
        except ValueError:  # CPython's int-string digit limit
            self.fail(f"integer literal of {len(tok)} digits is too long", at)

    def expect_string(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] != '"':
            self.fail("expected a quoted string", expected=("string",))
        self.pos += 1
        return tok[1:-1]

    def segment(self, suffix: str, base_names, at: int) -> tuple | None:
        """The multi-index of the jet suffix or flux coordinates of token
        `at`, or None if they do not split; an order past the budget fails
        at the token."""
        if suffix not in self.segments:
            self.segments[suffix] = _segment_suffix(suffix, list(base_names))
        counts = self.segments[suffix]
        if counts is not None:
            self._check_order(sum(counts), at)
        return counts

    def _check_order(self, order: int, at: int) -> None:
        if order > MAX_ORDER:
            self.fail(f"derivative order {order} exceeds the budget of {MAX_ORDER}", at)

    def declaration(self, keyword: str, missing: str, empty: str, taken=()) -> tuple:
        """The names of a `base` or `fields` statement.  Each name is checked
        at its own token: `_` is reserved for jet tokens and `d` for the
        explicit derivative form, and no name repeats one declared before it
        here or in `taken`."""
        if self.tokens[self.pos] != keyword:
            self.fail(missing, expected=(repr(keyword),))
        self.pos += 1
        names = list(taken)
        while self.tokens[self.pos].isidentifier():
            name = self.tokens[self.pos]
            if "_" in name:
                self.fail(f"declared name {name!r} contains '_', which is reserved for jet tokens")
            if name == "d":
                self.fail("declared name 'd' is reserved for the explicit derivative form")
            if name in names:
                self.fail("chart names must be distinct")
            names.append(name)
            self.pos += 1
        if len(names) == len(taken):
            self.fail(empty, expected=("name",))
        self.end_statement()
        return tuple(names[len(taken):])

    def expect_field(self, fields: dict) -> tuple:
        """A declared field name: its token's index and its index in `fields`."""
        at = self.expect_name("field name")
        name = self.tokens[at]
        if name not in fields:
            self.fail(f"undeclared field {name!r}", at, error=UndeclaredNameError)
        return at, fields[name]

    def end_statement(self):
        if self.tokens[self.pos]:
            self.expect_sym(";")

    # -- expressions ---------------------------------------------------------

    def expr(self, scope) -> Poly:
        """A sum of products, added into one dict, so that an N-term literal
        parses in time linear in N; `- term` hands its sign to the product.
        An integral coefficient, a sum's or a group product's too, is an int."""
        out = dict(self._product(scope).terms)
        while (tok := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            _add_into(out, self._product(scope, -1 if tok == "-" else 1).terms.items())
        return Poly._raw({mono: _exact(c) for mono, c in out.items()})

    def _product(self, scope, coeff=1) -> Poly:
        """A product read as one term: numbers multiply into `coeff` (which
        starts as the sign), division by a constant divides it, and names
        add into the exponents.  Names of the scope's map and integers, with
        their powers, are read in this loop; other factors go through
        `_factor`.  Only parenthesised groups are polynomials, multiplied in
        once the term is built."""
        tokens, known = self.tokens, scope["variables"]
        exps, groups = {}, []
        pos = self.pos
        while True:
            tok = tokens[pos]
            var = known.get(tok)
            if var is None and not tok.isdigit():
                self.pos = pos
                coeff *= self._factor(scope, exps, groups)
                pos = self.pos
            else:
                value = self._int(pos, "a number") if var is None else var
                pos += 1
                k = 1
                if tokens[pos] == "^":
                    k = self._int(pos + 1, "a nonnegative integer exponent")
                    pos += 2
                if var is None:
                    coeff *= value**k
                elif k:
                    exps[var] = exps.get(var, 0) + k
            while (tok := tokens[pos]) == "/":
                self.pos = pos + 1
                coeff = self._divide(scope, coeff)
                pos = self.pos
            if tok == "*":
                pos += 1
            elif not (tok.isidentifier() or tok.isdigit() or tok == "("):  # nor juxtaposition
                break
        self.pos = pos
        mono = tuple(sorted(exps.items()))
        value = Poly._raw({mono: coeff} if coeff else {})
        for group in groups:
            value = group if value.terms == _ONE else value * group
        return value

    def _divide(self, scope, coeff):
        """`coeff` divided by the factor after a '/', a nonzero rational constant."""
        at, names, group = self.pos, {}, []
        divisor = self._factor(scope, names, group)
        if group:
            divisor = 0 if group[0].variables() else divisor * group[0].constant_term()
        if names or not divisor:
            self.fail("division is only defined by nonzero rational constants", at)
        return Fraction(coeff, divisor)

    def _factor(self, scope, exps: dict, groups: list):
        """Read one signed factor and its power into a product: a name adds
        its exponent into `exps` and a group joins `groups`.  Returns the
        number the factor multiplies the coefficient by: its sign, times its
        value if it is a number."""
        sign = 1
        while (tok := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            if tok == "-":
                sign = -sign
        number = tok.isdigit()
        if number:
            value = self.expect_int("a number")
        elif tok.isidentifier():
            value = self._resolve_name(scope)
        else:
            value = self._group(scope)
        k = 1
        if self.tokens[self.pos] == "^":
            self.pos += 1
            k = self.expect_int("a nonnegative integer exponent")
        if number:
            return sign * value**k
        if isinstance(value, Poly):
            groups.append(value if k == 1 else value**k)
        elif k:
            exps[value] = exps.get(value, 0) + k
        return sign

    def _group(self, scope) -> Poly:
        if self.tokens[self.pos] != "(":
            self.fail("expected an expression", expected=("number", "name", "'('"))
        if self.depth == MAX_PAREN_DEPTH:
            self.fail(f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels")
        self.pos += 1
        self.depth += 1
        value = self.expr(scope)
        self.expect_sym(")")
        self.depth -= 1
        return value

    def _derivative_call(self, head: int, scope) -> tuple:
        self.expect_sym("(")
        _, i = self.expect_field(scope["fields"])
        self.expect_sym(";")
        counts = []
        while True:
            counts.append(self.expect_int("a derivative count"))
            self._check_order(sum(counts), self.pos - 1)
            if self.tokens[self.pos] != ",":
                break
            self.pos += 1
        self.expect_sym(")")
        n = len(scope["base"])
        if len(counts) != n:
            self.fail(f"expected {n} derivative counts, got {len(counts)}", head)
        return jet_var(i, counts)

    def _resolve_name(self, scope) -> tuple:
        """The variable a name token, or the d(field; counts) call it opens,
        stands for.  A jet token's variable joins the scope's map."""
        at = self.pos
        name = self.tokens[at]
        self.pos += 1
        var = scope["variables"].get(name)
        if var is not None:
            return var
        base, fields = scope["base"], scope["fields"]
        call = name == "d" and self.tokens[self.pos] == "("  # a declared `d` is in the map
        if fields is None and (call or "_" in name):
            self.fail("jet variables are not allowed in this expression", at)
        if call:
            return self._derivative_call(at, scope)
        if "_" not in name:
            self.fail(f"undeclared name {name!r}", at, error=UndeclaredNameError)
        head, suffix = name.split("_", 1)
        if head not in fields:
            self.fail(f"undeclared field {head!r}", at, error=UndeclaredNameError)
        if "_" in suffix or not suffix:
            self.fail(f"malformed jet token {name!r}", at)
        counts = self.segment(suffix, base, at)
        if counts is None:
            self.fail(f"cannot segment derivative suffix {suffix!r} into base coordinates", at)
        var = scope["variables"][name] = jet_var(fields[head], counts)
        return var


_STATEMENTS = ("F", "Pi", "density", "title", "note")


def _scopes(base_names, field_names) -> tuple:
    """The name scopes of one parse: base coordinates alone, then base
    coordinates and fields.  `base` and `fields` map a name to its index,
    and `variables` maps each name token to its variable: it starts with
    the declared names, and each jet token joins it when it is first read,
    so a name is resolved once per parse."""
    base = {name: k for k, name in enumerate(base_names)}
    fields = {name: k for k, name in enumerate(field_names)}
    coords = {name: base_var(k) for name, k in base.items()}
    zero = (0,) * len(base)
    plain = {name: jet_var(k, zero) for name, k in fields.items()}
    return ({"base": base, "fields": None, "variables": coords},
            {"base": base, "fields": fields, "variables": {**coords, **plain}})


def parse_system(text: str) -> SystemDocument:
    """Parse a system declaration; raises ParseError and relatives with
    positions and, where helpful, an expected-token hint."""
    parser = _Parser(text)
    tokens = parser.tokens
    base_names = parser.declaration("base", "a system starts with the 'base' declaration",
                                    "at least one base coordinate is required")
    field_names = parser.declaration("fields", "the 'fields' declaration must follow 'base'",
                                     "at least one field is required", base_names)
    base_scope, full_scope = _scopes(base_names, field_names)

    density = Poly.constant(1)
    title = None
    notes = []
    entries = {}
    once = set()  # the density and title statements seen
    expected = tuple(repr(keyword) for keyword in _STATEMENTS)

    while keyword := tokens[parser.pos]:
        at = parser.pos
        if not keyword.isidentifier():
            parser.fail("expected a statement", at, expected)
        if keyword not in _STATEMENTS:
            parser.fail(f"unknown statement {keyword!r}", at, expected)
        if keyword in once:
            parser.fail(f"duplicate {keyword} statement", at, error=DuplicateRelationError)
        parser.pos += 1
        if keyword in ("density", "title"):
            once.add(keyword)
        if keyword == "density":
            density = parser.expr(base_scope)
            if density.is_zero:
                parser.fail("the density must be a nonzero polynomial", at)
        elif keyword == "title":
            title = parser.expect_string()
        elif keyword == "note":
            notes.append(parser.expect_string())
        else:
            parser.expect_sym("[")
            name_at, i = parser.expect_field(full_scope["fields"])
            if keyword == "F":
                parser.expect_sym(",")
                coord_at = parser.expect_name("coordinate suffix")
                coords = tokens[coord_at]
                counts = parser.segment(coords, base_names, coord_at)
                if counts is None:  # a name token is never empty, so neither are its counts
                    parser.fail(f"cannot read {coords!r} as a run of base coordinates", coord_at)
                key = (i, counts)
                what = f"flux entry F[{tokens[name_at]},{coords}]"
            else:
                key = (i, (0,) * len(base_names))
                what = f"source entry Pi[{tokens[name_at]}]"
            parser.expect_sym("]")
            parser.expect_sym("=")
            if key in entries:
                parser.fail(f"duplicate {what}", name_at, error=DuplicateRelationError)
            entries[key] = parser.expr(full_scope)
        parser.end_statement()

    doc = SystemDocument.from_entries(Chart(base_names, field_names, density), entries)
    doc.title, doc.notes = title, tuple(notes)
    return doc


def parse_section(text: str, doc: SystemDocument) -> list:
    """Parse a section file: one 'field = polynomial-in-base-coordinates;'
    statement per declared field."""
    chart = doc.chart
    parser = _Parser(text)
    scope, full_scope = _scopes(chart.base_names, chart.field_names)
    values = {}
    while parser.tokens[parser.pos]:
        name_at, i = parser.expect_field(full_scope["fields"])
        if i in values:
            parser.fail(f"duplicate section entry for {parser.tokens[name_at]!r}", name_at,
                        error=DuplicateRelationError)
        parser.expect_sym("=")
        values[i] = parser.expr(scope)
        parser.end_statement()
    missing = [chart.field_names[i] for i in range(chart.m) if i not in values]
    if missing:
        parser.fail(f"section misses fields: {', '.join(missing)}")
    return [values[i] for i in range(chart.m)]


def render_system(doc: SystemDocument) -> str:
    """Canonical text of a document; parsing it back yields an equal document."""
    chart = doc.chart
    table = TermTable(chart.var_name)
    lines = [f"base {' '.join(chart.base_names)};", f"fields {' '.join(chart.field_names)};"]
    if chart.rho != Poly.constant(1):
        lines.append(f"density {poly_text(chart.rho, chart, table)};")
    if doc.title is not None:
        lines.append(f'title "{doc.title}";')
    for note in doc.notes:
        lines.append(f'note "{note}";')
    for (i, counts), p in doc.fluxes.items():
        lines.append(
            f"F[{chart.field_names[i]},{suffix(chart.base_names, counts)}] = "
            f"{poly_text(p, chart, table)};"
        )
    for i, p in sorted(doc.sources.items()):
        lines.append(f"Pi[{chart.field_names[i]}] = {poly_text(p, chart, table)};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class Report:
    """The sections and footnotes that one command fills in for a document."""

    def __init__(self, doc: SystemDocument):
        self.doc = doc
        self.sections: dict = {}
        self.footnotes: list = []

    @property
    def has_error(self) -> bool:
        return any("error" in section for section in self.sections.values())

    def error_section(self, name: str, exc: EngineError) -> None:
        self.sections[name] = {"error": {"code": exc.code, "message": str(exc)}}


def _by_field(chart: Chart, values) -> dict:
    return {chart.field_names[i]: v for i, v in enumerate(values)}


def _by_coord(chart: Chart, values) -> dict:
    return {chart.base_names[mu]: v for mu, v in enumerate(values)}


# Section builders: each fills a fresh report for one command.


def _equations(report: Report, at, section_text) -> None:
    bs = report.doc.to_balance_system()
    sources = _euler_sum(bs.chart, bs.entries.items())  # the residuals are their negation
    report.sections["equations"] = {
        "residuals": _by_field(bs.chart, [-c for c in sources]),
        "source_components": _by_field(bs.chart, sources),
    }


def _check(report: Report, at, section_text) -> None:
    bs = report.doc.to_balance_system()
    chart = bs.chart
    hel = helmholtz_check(bs)
    report.sections["helmholtz"] = {
        "closed": hel.closed,
        "residual": hel.residual,
        "lagrangian": hel.lagrangian,
    }
    ltilde = hel.lagrangian if hel.closed else quasi_lagrangian(bs)
    report.sections["quasi_lagrangian"] = {
        "value": ltilde,
        "is_trivial": ltilde.is_zero,
    }
    report.footnotes.extend(SPLITTING_FOOTNOTES)
    god = godunov_check(bs)
    section = report.sections["godunov"] = {
        "applicable": god.is_zero_order,
        "flux_symmetric": _by_coord(chart, god.flux_symmetric),
        "potentials": None if god.potentials is None else _by_coord(chart, god.potentials),
        "source_pairing": god.source_pairing,
        "pairing_constant": god.pairing_constant,
        "verdict": god.verdict,
    }
    if not god.is_zero_order:
        section["note"] = (
            f"Godunov classification is defined for zero-order systems; this one has order {bs.order}"
        )


def _decompose(report: Report, at, section_text) -> None:
    bs = report.doc.to_balance_system()
    chart = bs.chart
    dec = decompose(bs)
    report.sections["quasi_lagrangian"] = {
        "value": dec.quasi_lagrangian,
        "is_trivial": dec.trivial_quasi_lagrangian,
        "divergence_potentials": _by_coord(chart, dec.divergence_potentials),
        "non_divergence_part": dec.non_divergence_part,
    }
    report.sections["k_split"] = {
        "lagrangian_part": dec.lagrangian_part,
        "non_lagrangian_part": dec.nonlagrangian_part,
        "helmholtz_closed": dec.helmholtz_closed,
    }
    report.sections["f_split"] = {
        "euler_lagrange_components": _by_field(chart, dec.euler_lagrange_form.components()),
        "godunov_components": _by_field(chart, dec.godunov_part.components()),
    }
    report.footnotes.extend(SPLITTING_FOOTNOTES)


def _hyperbolic(report: Report, at, section_text) -> None:
    bs = report.doc.to_balance_system()
    chart = bs.chart
    if at is None:
        raise InvalidSystemError("the hyperbolic analysis needs --at rational coordinates")
    try:
        rep = symmetric_hyperbolicity(bs, at)
    except OrderTooHighError as exc:
        report.error_section("hyperbolicity", exc)
        return
    report.sections["hyperbolicity"] = {
        "symmetric": _by_coord(chart, rep.symmetric),
        "matrices": _by_coord(chart, ([list(row) for row in m] for m in rep.matrices)),
        "point": list(rep.point),
        "leading_minors": list(rep.leading_minors),
        "singular": rep.singular,
        "verdict": rep.verdict,
    }


def _higher(report: Report, at, section_text) -> None:
    residuals = higher_balance_residuals(report.doc.to_higher_data())
    report.sections["higher_order"] = {"residuals": _by_field(report.doc.chart, residuals)}
    report.footnotes.append(FOOTNOTE_DENSITY)


def _verify(report: Report, at, section_text) -> None:
    bs = report.doc.to_balance_system()
    chart = bs.chart
    if section_text is None:
        raise InvalidSystemError("the verify analysis needs --section <file>")
    section = parse_section(section_text, report.doc)
    residuals = [evaluate_on_section(r, section, chart) for r in balance_residuals(bs)]
    report.sections["section_check"] = {
        "section": _by_field(chart, section),
        "residuals": _by_field(chart, residuals),
        "solves": all(r.is_zero for r in residuals),
    }


# command -> (section builder, help text)
_COMMANDS = {
    "equations": (_equations, "balance residuals and the source form"),
    "check": (_check, "Helmholtz closedness, triviality and Godunov classification"),
    "decompose": (_decompose, "quasi-Lagrangian and the Lagrangian / non-Lagrangian splitting"),
    "hyperbolic": (_hyperbolic, "symmetric hyperbolicity of the Godunov component at a point"),
    "higher": (_higher, "residuals of higher-order flux data"),
    "verify": (_verify, "evaluate the residuals on an explicit section"),
}


def run(command: str, doc: SystemDocument, at=None, section_text: str | None = None) -> Report:
    """Drive one analysis command over a parsed document."""
    if command not in _COMMANDS:
        raise InvalidSystemError(f"unknown command {command!r}")
    report = Report(doc)
    _COMMANDS[command][0](report, at, section_text)
    return report


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


# A leaf renders one report value; `table` is the render's term table
# (a one-off table when it is None).
def _text_leaf(value, chart: Chart, table: TermTable | None = None) -> str:
    if isinstance(value, Poly):
        return poly_text(value, chart, table)
    if isinstance(value, Form):
        return form_text(value, table)
    if isinstance(value, bool):
        return "true" if value else "false"
    return "none" if value is None else str(value)


# LaTeX text-mode specials; an unescaped `_` in `\text{}` does not compile.
_TEXT_ESCAPES = str.maketrans({
    "\\": "\\textbackslash{}", "{": "\\{", "}": "\\}", "$": "\\$", "&": "\\&", "#": "\\#",
    "^": "\\^{}", "_": "\\_", "%": "\\%", "~": "\\~{}",
})


def _latex_text(text: str) -> str:
    return f"\\text{{{text.translate(_TEXT_ESCAPES)}}}"


def _latex_leaf(value, chart: Chart, table: TermTable | None = None) -> str:
    if isinstance(value, Poly):
        return poly_latex(value, chart, table)
    if isinstance(value, Form):
        return form_latex(value, table)
    if isinstance(value, Fraction):
        return latex_rational(value)
    return _latex_text(_text_leaf(value, chart))


def _structured_leaf(value, chart: Chart, table: TermTable | None = None):
    return _text_leaf(value, chart, table) if isinstance(value, (Poly, Form, Fraction)) else value


_LEAVES = {"text": _text_leaf, "latex": _latex_leaf, "structured": _structured_leaf}


def _walk(report: Report, fmt: str, table: TermTable):
    """The one walk over `report.sections`: yields each section's name, its
    content and, lazily, its labelled entries (kind, path, value) with every
    leaf formatted for `fmt` through the render's term table.  Kind is
    scalar, list, matrix (a list of rows inside a nested dict) or error;
    path is (key,) or (key, inner key)."""
    chart = report.doc.chart
    leaf = _LEAVES[fmt]

    def entries(content):
        for key, value in content.items():
            if key == "error":
                yield "error", (key,), value
            elif isinstance(value, dict):
                for sub, inner in value.items():
                    if isinstance(inner, list):
                        rows = [[leaf(c, chart, table) for c in row] for row in inner]
                        yield "matrix", (key, sub), rows
                    else:
                        yield "scalar", (key, sub), leaf(inner, chart, table)
            elif isinstance(value, (list, tuple)):
                yield "list", (key,), [leaf(v, chart, table) for v in value]
            else:
                yield "scalar", (key,), leaf(value, chart, table)

    for name, content in report.sections.items():
        yield name, content, entries(content)


def _equation_lines(template: str, leaf):
    """Override for the equations section: residual k as R<k>, then source
    component k as S<k>."""

    def lines(content: dict, chart: Chart, table: TermTable) -> list:
        return [
            template.format(letter, k, leaf(value, chart, table))
            for letter, key in (("R", "residuals"), ("S", "source_components"))
            for k, value in enumerate(content[key].values(), 1)
        ]

    return lines


def _latex_quasi_lagrangian(content: dict, chart: Chart, table: TermTable) -> list:
    """LaTeX override for the quasi-Lagrangian section: L~, its divergence
    presentation when the section carries one, and the triviality verdict."""

    def leaf(value):
        return _latex_leaf(value, chart, table)

    lines = [f"\\[ \\tilde{{L}} = {leaf(content['value'])} \\]"]
    if "divergence_potentials" in content:
        parts = [
            f"d_{{{leaf(chart.x(mu))}}}\\left({leaf(pot)}\\right)"
            for mu, pot in enumerate(content["divergence_potentials"].values())
            if not pot.is_zero
        ]
        if not content["non_divergence_part"].is_zero:
            parts.append(leaf(content["non_divergence_part"]))
        if parts:
            lines.append("\\[ \\tilde{L} = " + " + ".join(parts).replace(" + -", " - ") + " \\]")
    lines.append(f"\\[ \\text{{trivial: }} {leaf(content['is_trivial'])} \\]")
    return lines


# Per line format: an entry's line template per kind, the separators of
# matrix rows and cells, and the label layout.
_TEMPLATES = {
    "text": (
        {
            "scalar": "{label}: {value}",
            "list": "{label}: {value}",
            "matrix": "{label}:\n    {value}",
            "error": "{label}: {code}: {message}",
        },
        "\n    ",
        "  ",
        str,
    ),
    "latex": (
        {
            "scalar": "\\[ {label} = {value} \\]",
            "list": "\\[ {label} = ({value}) \\]",
            "matrix": "\\[ {label} = \\begin{{pmatrix}} {value} \\end{{pmatrix}} \\]",
            "error": "% error {code}: {message}",
        },
        " \\\\ ",
        " & ",
        _latex_text,
    ),
}
# Sections a format lays out by itself instead of entry by entry.
_SECTION_OVERRIDES = {
    ("text", "equations"): _equation_lines("{}{}: {}", _text_leaf),
    ("latex", "equations"): _equation_lines("\\[ {}_{{{}}} = {} \\]", _latex_leaf),
    ("latex", "quasi_lagrangian"): _latex_quasi_lagrangian,
}


def _lines(report: Report, fmt: str, table: TermTable):
    """(section name, lines) for the text or LaTeX format."""
    templates, row_sep, cell_sep, label_layout = _TEMPLATES[fmt]
    for name, content, entries in _walk(report, fmt, table):
        override = _SECTION_OVERRIDES.get((fmt, name))
        if override is not None:
            yield name, override(content, report.doc.chart, table)
            continue
        lines = []
        for kind, path, value in entries:
            if kind == "matrix":
                value = row_sep.join(cell_sep.join(row) for row in value)
            elif kind == "list":
                value = ", ".join(value)
            label = label_layout(path[0] if len(path) == 1 else f"{path[0]}[{path[1]}]")
            fields = value if kind == "error" else {"value": value}
            lines.append(templates[kind].format(label=label, **fields))
        yield name, lines


def _system_summary(doc: SystemDocument, table: TermTable) -> dict:
    chart = doc.chart
    fluxes = {name: {} for name in chart.field_names}
    for (i, counts), p in doc.fluxes.items():
        fluxes[chart.field_names[i]][suffix(chart.base_names, counts)] = poly_text(p, chart, table)
    return {
        "title": doc.title,
        "base": list(chart.base_names),
        "fields": list(chart.field_names),
        "density": poly_text(chart.rho, chart, table),
        "order": doc.order,
        "fluxes": fluxes,
        "sources": {
            chart.field_names[i]: poly_text(doc.source(i), chart, table)
            for i in range(chart.m)
        },
        "notes": list(doc.notes),
    }


# Each renderer makes one term table for its report and drops it on return.
def render_structured(report: Report) -> str:
    table = TermTable(report.doc.chart.var_name)
    analyses = {}
    for name, _, entries in _walk(report, "structured", table):
        section = analyses[name] = {}
        for _, path, value in entries:
            node = section if len(path) == 1 else section.setdefault(path[0], {})
            node[path[-1]] = value
    payload = {
        "system": _system_summary(report.doc, table),
        "analyses": analyses,
        "footnotes": list(report.footnotes),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_text(report: Report) -> str:
    chart = report.doc.chart
    table = TermTable(chart.var_name)
    lines = [
        f"system: {report.doc.title or '(untitled)'}",
        f"base: {' '.join(chart.base_names)}",
        f"fields: {' '.join(chart.field_names)}",
        f"density: {poly_text(chart.rho, chart, table)}",
        "",
    ]
    for name, section in _lines(report, "text", table):
        lines += [f"== {name} ==", *section, ""]
    if report.footnotes:
        lines += ["footnotes:", *(f"  - {note}" for note in report.footnotes), ""]
    return "\n".join(lines)


def render_latex(report: Report) -> str:
    lines = [f"% system: {report.doc.title or '(untitled)'}"]
    for name, section in _lines(report, "latex", latex_table(report.doc.chart)):
        lines += [f"% {name}", *section]
    lines += [f"% footnote: {note}" for note in report.footnotes]
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str = "text") -> bytes:
    renderers = {"text": render_text, "latex": render_latex, "structured": render_structured}
    if fmt not in renderers:
        raise InvalidSystemError(f"unknown format {fmt!r}")
    try:
        text = renderers[fmt](report)
    except ValueError as exc:  # CPython's int-string digit limit, met by `str` of a number
        raise NumberTooLongError(
            f"a report number has more than {sys.get_int_max_str_digits()} decimal digits"
        ) from exc
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# an --at coordinate: a signed ASCII integer, p/q or decimal; an exponent matches to be refused
_POINT = re.compile(r"\s*([+-]?(?:\d+(?:/\d+|\.\d*)?|\.\d+))([eE][+-]?\d+)?\s*", re.ASCII)


def _parse_point(text: str) -> list:
    """The `--at` coordinates.  An exponent is refused: `Fraction` would
    expand `1e-999999999` before any check."""
    matches = [_POINT.fullmatch(part) for part in text.split(",")]
    if None in matches:
        raise InvalidSystemError(f"cannot read rational coordinates from {text!r}")
    if any(match[2] for match in matches):
        raise InvalidSystemError(f"--at takes integers, p/q or decimals, not exponents: {text!r}")
    try:
        return [Fraction(match[1]) for match in matches]
    except (ValueError, ZeroDivisionError) as exc:  # p/0, or past the int digit limit
        raise InvalidSystemError(f"cannot read rational coordinates from {text!r}") from exc


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetbalance",
        description="exact variational analysis of balance systems on jet coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("system", help="system file ('-' reads stdin)")
        cmd.add_argument("--format", choices=FORMATS, default="text")
        cmd.add_argument("--output", help="write the report here instead of stdout")
        if name == "hyperbolic":
            cmd.add_argument("--at", required=True, help="comma-separated rationals, base then fields")
        if name == "verify":
            cmd.add_argument("--section", required=True, help="section file (field = poly; ...)")
    return parser


def _diagnostic(exc: EngineError) -> str:
    return f"error[{exc.code}]: {exc}"


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.system == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.system, "rb") as handle:
                data = handle.read()
        section_data = None
        if getattr(args, "section", None):
            with open(args.section, "rb") as handle:
                section_data = handle.read()
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    try:
        text = _decode(data, "standard input" if args.system == "-" else args.system)
        section_text = None if section_data is None else _decode(section_data, args.section)
        doc = parse_system(text)
        at = _parse_point(args.at) if getattr(args, "at", None) else None
        report = run(args.command, doc, at=at, section_text=section_text)
        payload = render(report, args.format)
    except EngineError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation; never expected on valid input
        print(f"error[internal]: {exc!r}", file=sys.stderr)
        return 3
    if args.output:
        try:
            with open(args.output, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error[io]: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode("utf-8"))
    for content in report.sections.values():
        if "error" in content:
            print(f"error[{content['error']['code']}]: {content['error']['message']}", file=sys.stderr)
    return 2 if report.has_error else 0


if __name__ == "__main__":
    sys.exit(main())
