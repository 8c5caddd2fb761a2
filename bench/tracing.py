"""Span recorder for the traced run.

The benchmark wraps the program's public functions from outside: module
functions are rebound in every module namespace that holds them (`cli`
imports the `balance` functions by name), and `Poly`/`Form` methods are
replaced on the class so that operator dispatch goes through the wrappers.
Spans (name, start, end, parent, job id) stay in memory and are written out
when the traced pass ends; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from fractions import Fraction

LAYERS = {
    "symcore": (
        "Poly.__mul__", "Poly.__add__", "Poly.__pow__", "Poly.partial", "Poly.total_derivative",
        "Poly.scale_integrate", "Poly.div_exact", "Poly.substitute", "Poly.sorted_terms",
        "poly_text",
    ),
    "jetforms": (
        "Form.wedge", "Form.d_V", "Form.d_H", "Form.total_derivative", "Form.contract",
        "form_text", "form_latex", "poly_latex",
    ),
    "variational": (
        "interior_euler", "vertical_homotopy", "vertical_decompose", "euler_lagrange",
        "higher_balance_residuals",
    ),
    "balance": (
        "balance_form", "balance_residuals", "source_form", "pairing_polynomial",
        "quasi_lagrangian", "helmholtz_check", "decompose", "divergence_split", "godunov_check",
        "symmetric_hyperbolicity", "evaluate_on_section",
    ),
    "cli": (
        "parse_system", "parse_section", "run", "render_text", "render_latex",
        "render_structured",
    ),
}
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
STAGES = {
    "cli.parse": ("cli.parse_system", "cli.parse_section"),
    "cli.run": ("cli.run",),
    "cli.render": ("cli.render_text", "cli.render_latex", "cli.render_structured"),
}


def _terms(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if value else 0


def coeff_bits(value) -> int:
    """Largest numerator or denominator bit length in a report value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, dict):
        value = value.values()
    elif hasattr(value, "terms"):  # Poly: monomial -> Fraction; Form: word -> Poly
        value = value.terms.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    return max((coeff_bits(v) for v in value), default=0)


def _measures() -> dict:
    """Per-span counters, taken after the span has ended."""
    def pairs(args, out):
        return 0 if out is NotImplemented else len(args[0].terms) * _terms(args[1])

    def copied(args, out):
        return 0 if out is NotImplemented else len(args[0].terms)

    def doc_terms(args, doc):
        polys = [doc.chart.rho, *doc.fluxes.values(), *doc.sources.values()]
        return sum(len(p.terms) for p in polys)

    def report_bits(args, report):
        return max(coeff_bits(report.sections), coeff_bits(report.doc.chart.rho))

    rendered = lambda args, text: len(text.encode("utf-8"))  # noqa: E731
    return {
        "symcore.Poly.__mul__": pairs,
        "symcore.Poly.__add__": copied,
        "symcore.Poly.__pow__": lambda args, out: len(out.terms),
        "symcore.Poly.div_exact": lambda args, out: 0 if out is None else len(out.terms),
        "cli.parse_system": doc_terms,
        "cli.run": report_bits,
        "cli.render_text": rendered,
        "cli.render_latex": rendered,
        "cli.render_structured": rendered,
    }


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.measure = array("q")
        self.stack: list = []
        self.job_id = 0

    def wrap(self, name: str, fn, measure=None):
        nid = SPAN_NAMES.index(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.measure.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if measure is not None:
                self.measure[idx] = measure(args, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function; returns a callable that undoes it."""
        import jetbalance
        from jetbalance import balance, cli, jetforms, symcore, variational

        modules = {"symcore": symcore, "jetforms": jetforms, "variational": variational,
                   "balance": balance, "cli": cli}
        namespaces = [*modules.values(), jetbalance]
        measures = _measures()
        undo = []
        for layer, names in LAYERS.items():
            for qualname in names:
                span = f"{layer}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owners = [getattr(modules[layer], owner_name)]
                    original = owners[0].__dict__[attr]
                else:
                    owners = namespaces
                    original = getattr(modules[layer], attr)
                wrapped = self.wrap(span, original, measures.get(span))
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:  # also catches Poly.__radd__ / __rmul__
                            setattr(owner, key, wrapped)
                            undo.append((owner, key, original))

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return restore

    def spans(self):
        """The recorded spans as (parent, job, name, start, end, measure)."""
        for i in range(len(self.name)):
            yield (self.parent[i], self.job[i], SPAN_NAMES[self.name[i]],
                   self.start[i], self.end[i], self.measure[i])


def read_spans(path) -> list:
    """Spans written by `Tracer.write` or `write_spans`, as tuples
    (parent, job, name, start, end, measure); parent is a row index or -1."""
    spans = []
    with open(path, encoding="utf-8") as rows:
        for line in rows:
            parent, job, name, start, end, measure = line.rstrip("\n").split("\t")
            spans.append((int(parent), int(job), name, float(start), float(end), int(measure)))
    return spans


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for parent, job, name, start, end, measure in spans:
            out.write(f"{parent}\t{job}\t{name}\t{start!r}\t{end!r}\t{measure}\n")


def self_times(spans) -> list:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[0] >= 0:
            children.setdefault(span[0], []).append((span[3], span[4]))
    out = []
    for i, (_, _, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans, jobs: int) -> dict:
    """Per-layer metrics of a traced pass over `jobs` jobs: per function and
    per layer self time and calls per job, plus the exact counters."""
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    measure = dict.fromkeys(SPAN_NAMES, 0)
    pow_pairs = div_copied = max_bits = 0
    for (parent, _, name, _, _, value), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        measure[name] += value
        parent_name = spans[parent][2] if parent >= 0 else None
        if name == "symcore.Poly.__mul__" and parent_name == "symcore.Poly.__pow__":
            pow_pairs += value
        elif name == "symcore.Poly.__add__" and parent_name == "symcore.Poly.div_exact":
            div_copied += value
        elif name == "cli.run":
            max_bits = max(max_bits, value)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_ms"] = 1000 * self_s[name] / jobs
        out[f"{name}.calls"] = calls[name] / jobs
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_ms"] = sum(out[f"{n}.self_ms"] for n in SPAN_NAMES
                                          if n.startswith(layer + "."))
    for stage, names in STAGES.items():
        out[f"{stage}.self_ms"] = sum(out[f"{n}.self_ms"] for n in names)
    out["symcore.Poly.__mul__.term_pairs"] = measure["symcore.Poly.__mul__"] / jobs
    out["symcore.Poly.__pow__.pairs_per_result_term"] = (
        pow_pairs / measure["symcore.Poly.__pow__"] if measure["symcore.Poly.__pow__"] else 0.0)
    out["symcore.Poly.div_exact.terms_copied_per_quotient_term"] = (
        div_copied / measure["symcore.Poly.div_exact"] if measure["symcore.Poly.div_exact"] else 0.0)
    out["cli.parse_system.terms"] = measure["cli.parse_system"] / jobs
    out["cli.render.bytes"] = sum(measure[n] for n in STAGES["cli.render"]) / jobs
    out["max_coeff_bits"] = max_bits
    return out
