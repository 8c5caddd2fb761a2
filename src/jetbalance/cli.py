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
import string
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
    Chart, EngineError, InvalidSystemError, Poly, TermTable, _add_into, poly_text, suffix,
)
from .variational import higher_balance_residuals

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


class _Token(NamedTuple):
    kind: str  # name | int | string | eof, or the symbol itself
    text: str
    line: int
    col: int


_SYMBOLS = set(";,=+-*/^()[]")
_DIGITS = frozenset(string.digits)  # ASCII: str.isalpha/isdigit admit other scripts
_LETTERS = frozenset(string.ascii_letters)
_NAME_CHARS = _LETTERS | _DIGITS | {"_"}
# the first character of a name or an integer -> (token kind, characters of its run)
_RUNS = {
    **dict.fromkeys(_LETTERS, ("name", _NAME_CHARS)), **dict.fromkeys(_DIGITS, ("int", _DIGITS))
}


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        start_col = col
        run = _RUNS.get(ch)
        if run is not None:
            kind, chars = run
            j = i + 1
            while j < size and text[j] in chars:
                j += 1
            tokens.append(_Token(kind, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < size and text[j] not in '"\n':
                j += 1
            if j == size or text[j] == "\n":
                raise ParseError("unterminated string", line, start_col)
            tokens.append(_Token("string", text[i + 1 : j], line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


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
        return {(i, counts): p for (i, counts), p in self.entries.items() if any(counts)}

    @property
    def sources(self) -> dict:
        return {i: p for (i, counts), p in self.entries.items() if not any(counts)}

    @property
    def has_higher_entries(self) -> bool:
        return any(sum(counts) > 1 for _, counts in self.entries)

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
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.segments = {}  # jet suffix -> its multi-index, split once per parse

    def peek(self, ahead=0) -> _Token:
        # next() never moves past the eof token, so only a lookahead needs the clamp
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1) if ahead else self.pos]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None, expected=()):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def expect_sym(self, sym) -> _Token:
        tok = self.peek()
        if tok.kind == sym:
            return self.next()
        self.fail(f"expected {sym!r}", tok, expected=(repr(sym),))

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind == "name":
            return self.next()
        self.fail(f"expected a {what}", tok, expected=(what,))

    def expect_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected {what}", tok, ("integer",))
        self.next()
        try:
            return int(tok.text)
        except ValueError:  # CPython's int-string digit limit
            self.fail(f"integer literal of {len(tok.text)} digits is too long", tok)

    def expect_string(self) -> str:
        tok = self.peek()
        if tok.kind == "string":
            return self.next().text
        self.fail("expected a quoted string", tok, ("string",))

    def segment(self, suffix: str, base_names) -> tuple | None:
        if suffix not in self.segments:
            self.segments[suffix] = _segment_suffix(suffix, list(base_names))
        return self.segments[suffix]

    def declaration(self, keyword: str, missing: str, empty: str, taken=()) -> tuple:
        """The names of a `base` or `fields` statement.  Each name is checked
        at its own token: `_` is reserved for jet tokens, and no name repeats
        one declared before it here or in `taken`."""
        tok = self.peek()
        if not (tok.kind == "name" and tok.text == keyword):
            self.fail(missing, tok, (repr(keyword),))
        self.next()
        names = list(taken)
        while self.peek().kind == "name":
            tok = self.next()
            if "_" in tok.text:
                self.fail(
                    f"declared name {tok.text!r} contains '_', which is reserved for jet tokens",
                    tok,
                )
            if tok.text in names:
                self.fail("chart names must be distinct", tok)
            names.append(tok.text)
        if len(names) == len(taken):
            self.fail(empty, expected=("name",))
        self.end_statement()
        return tuple(names[len(taken):])

    def expect_field(self, fields: dict) -> tuple:
        """A declared field name: its token and its index in `fields`."""
        tok = self.expect_name("field name")
        if tok.text not in fields:
            raise UndeclaredNameError(f"undeclared field {tok.text!r}", tok.line, tok.col)
        return tok, fields[tok.text]

    def end_statement(self):
        if self.peek().kind != "eof":
            self.expect_sym(";")

    # -- expressions ---------------------------------------------------------

    def expr(self, scope) -> Poly:
        """A sum of products, added into one dict, so that an N-term
        literal parses in time linear in N."""
        out = dict(self._product(scope).terms)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            terms = self._product(scope).terms.items()
            _add_into(out, terms if op == "+" else ((mono, -c) for mono, c in terms))
        return Poly._raw(out)

    def _product(self, scope) -> Poly:
        value = self._signed_factor(scope)
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.next()
                value = value * self._signed_factor(scope)
            elif kind == "/":
                self.next()
                div_tok = self.peek()
                divisor = self._signed_factor(scope)
                if divisor.variables() or divisor.is_zero:
                    self.fail(
                        "division is only defined by nonzero rational constants", div_tok
                    )
                value = value / divisor.constant_term()
            elif kind in ("name", "int", "("):  # juxtaposition
                value = value * self._factor(scope)
            else:
                return value

    def _signed_factor(self, scope) -> Poly:
        negate = False
        while self.peek().kind in ("+", "-"):
            negate ^= self.next().kind == "-"
        value = self._factor(scope)
        return -value if negate else value

    def _factor(self, scope) -> Poly:
        value = self._atom(scope)
        if self.peek().kind == "^":
            self.next()
            value = value ** self.expect_int("a nonnegative integer exponent")
        return value

    def _atom(self, scope) -> Poly:
        tok = self.peek()
        if tok.kind == "int":
            return Poly.constant(self.expect_int("a number"))
        if tok.kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels", tok)
            self.next()
            self.depth += 1
            value = self.expr(scope)
            self.expect_sym(")")
            self.depth -= 1
            return value
        if tok.kind == "name":
            fields = scope["fields"]
            call = (tok.text == "d" and self.peek(1).kind == "("
                    and "d" not in scope["base"] and "d" not in (fields or ()))
            if fields is None and (call or "_" in tok.text):
                self.fail("jet variables are not allowed in this expression", tok)
            if call:
                return self._derivative_call(scope)
            self.next()
            return self._resolve_name(tok, scope)
        self.fail("expected an expression", tok, ("number", "name", "'('"))

    def _derivative_call(self, scope) -> Poly:
        head = self.next()  # 'd'
        self.expect_sym("(")
        _, i = self.expect_field(scope["fields"])
        self.expect_sym(";")
        counts = [self.expect_int("a derivative count")]
        while self.peek().kind == ",":
            self.next()
            counts.append(self.expect_int("a derivative count"))
        self.expect_sym(")")
        n = len(scope["base"])
        if len(counts) != n:
            self.fail(f"expected {n} derivative counts, got {len(counts)}", head)
        return Poly.variable(("j", i, tuple(counts)))

    def _resolve_name(self, tok, scope) -> Poly:
        name = tok.text
        base = scope["base"]
        fields = scope["fields"]
        if "_" in name:
            head, suffix = name.split("_", 1)
            if head not in fields:
                raise UndeclaredNameError(f"undeclared field {head!r}", tok.line, tok.col)
            if "_" in suffix or not suffix:
                self.fail(f"malformed jet token {name!r}", tok)
            counts = self.segment(suffix, base)
            if counts is None:
                self.fail(
                    f"cannot segment derivative suffix {suffix!r} into base coordinates",
                    tok,
                )
            return Poly.variable(("j", fields[head], counts))
        if name in base:
            return Poly.variable(("b", base[name]))
        if fields is not None and name in fields:
            return Poly.variable(("j", fields[name], (0,) * len(base)))
        raise UndeclaredNameError(f"undeclared name {name!r}", tok.line, tok.col)


_STATEMENTS = ("F", "Pi", "density", "title", "note")


def _scopes(base_names, field_names) -> tuple:
    """The name scopes of a chart: base coordinates alone, then base
    coordinates and fields; each maps a name to its index."""
    base = {name: k for k, name in enumerate(base_names)}
    fields = {name: k for k, name in enumerate(field_names)}
    return {"base": base, "fields": None}, {"base": base, "fields": fields}


def parse_system(text: str) -> SystemDocument:
    """Parse a system declaration; raises ParseError and relatives with
    positions and, where helpful, an expected-token hint."""
    parser = _Parser(_tokenize(text))
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

    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind != "name":
            parser.fail("expected a statement", tok, expected)
        keyword = tok.text
        if keyword not in _STATEMENTS:
            parser.fail(f"unknown statement {keyword!r}", tok, expected)
        parser.next()
        if keyword in once:
            raise DuplicateRelationError(f"duplicate {keyword} statement", tok.line, tok.col)
        if keyword in ("density", "title"):
            once.add(keyword)
        if keyword == "density":
            density = parser.expr(base_scope)
            if density.is_zero:
                parser.fail("the density must be a nonzero polynomial", tok)
        elif keyword == "title":
            title = parser.expect_string()
        elif keyword == "note":
            notes.append(parser.expect_string())
        else:
            parser.expect_sym("[")
            name_tok, i = parser.expect_field(full_scope["fields"])
            if keyword == "F":
                parser.expect_sym(",")
                coord_tok = parser.expect_name("coordinate suffix")
                counts = parser.segment(coord_tok.text, base_names)
                if counts is None:  # a name token is never empty, so neither are its counts
                    parser.fail(
                        f"cannot read {coord_tok.text!r} as a run of base coordinates",
                        coord_tok,
                    )
                key = (i, counts)
                what = f"flux entry F[{name_tok.text},{coord_tok.text}]"
            else:
                key = (i, (0,) * len(base_names))
                what = f"source entry Pi[{name_tok.text}]"
            parser.expect_sym("]")
            parser.expect_sym("=")
            if key in entries:
                raise DuplicateRelationError(f"duplicate {what}", name_tok.line, name_tok.col)
            entries[key] = parser.expr(full_scope)
        parser.end_statement()

    doc = SystemDocument.from_entries(Chart(base_names, field_names, density), entries)
    doc.title, doc.notes = title, tuple(notes)
    return doc


def parse_section(text: str, doc: SystemDocument) -> list:
    """Parse a section file: one 'field = polynomial-in-base-coordinates;'
    statement per declared field."""
    chart = doc.chart
    parser = _Parser(_tokenize(text))
    scope, full_scope = _scopes(chart.base_names, chart.field_names)
    values = {}
    while parser.peek().kind != "eof":
        name_tok, i = parser.expect_field(full_scope["fields"])
        if i in values:
            raise DuplicateRelationError(
                f"duplicate section entry for {name_tok.text!r}",
                name_tok.line,
                name_tok.col,
            )
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
    for (i, counts), p in sorted(doc.fluxes.items()):
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


@dataclass
class Report:
    doc: SystemDocument
    sections: dict = field(default_factory=dict)
    footnotes: list = field(default_factory=list)
    has_error: bool = False

    def error_section(self, name: str, exc: EngineError) -> None:
        self.sections[name] = {"error": {"code": exc.code, "message": str(exc)}}
        self.has_error = True


def _by_field(chart: Chart, values) -> dict:
    return {chart.field_names[i]: v for i, v in enumerate(values)}


def _by_coord(chart: Chart, values) -> dict:
    return {chart.base_names[mu]: v for mu, v in enumerate(values)}


# Section builders: each fills a fresh report for one command.


def _equations(report: Report, at, section_text) -> None:
    bs = report.doc.to_balance_system()
    residuals = balance_residuals(bs)
    report.sections["equations"] = {
        "residuals": _by_field(bs.chart, residuals),
        "source_components": _by_field(bs.chart, [-r for r in residuals]),
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
    return {
        "title": doc.title,
        "base": list(chart.base_names),
        "fields": list(chart.field_names),
        "density": poly_text(chart.rho, chart, table),
        "order": doc.order,
        "fluxes": {
            chart.field_names[i]: {
                suffix(chart.base_names, counts): poly_text(p, chart, table)
                for (j, counts), p in sorted(doc.fluxes.items())
                if j == i
            }
            for i in range(chart.m)
        },
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


def _parse_point(text: str) -> list:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
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
    for name, content in report.sections.items():
        if isinstance(content.get("error"), dict):
            print(f"error[{content['error']['code']}]: {content['error']['message']}", file=sys.stderr)
    return 2 if report.has_error else 0


if __name__ == "__main__":
    sys.exit(main())
