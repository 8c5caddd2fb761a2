"""Renderer pin: text and LaTeX of polynomials, forms and report leaves on a
fixed case table.

The bundled systems all use the unit density, and every form a report prints
carries the volume marker, so the golden reports never show a marked form
over a non-unit density, the `dx` factors of an unmarked top-degree word,
chart-less names or greek names.  This table pins those cases string by
string.  A marked form prints its cofactors against eta and an unmarked one
its dx factors, whatever its coefficients: the rows whose coefficients are
multiples of a density show that no division finds eta.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from jetbalance import balance_form
from jetbalance.cli import _latex_leaf, _text_leaf, parse_system, render_system
from jetbalance.jetforms import Form, form_latex, form_text, poly_latex
from jetbalance.symcore import Chart, Poly, base_var, jet_var, poly_text

PLAIN = Chart(("t", "x"), ("u", "v"))
RHO_1_X2 = Chart(("t", "x"), ("u",), Poly.constant(1) + Poly.variable(base_var(1)) ** 2)
RHO_2_TX = Chart(
    ("t", "x"), ("u", "v"), Poly.constant(2) + Poly.variable(base_var(0)) * Poly.variable(base_var(1))
)
GREEK = Chart(("xi", "eta"), ("alpha",))


def _jet(chart, i, *counts):
    return chart.jet(i, counts)


def _forms(chart):
    """Forms over `chart` covering every word shape the renderers print."""
    t, x = chart.x(0), chart.x(1)
    u, u_x = chart.field(0), _jet(chart, 0, 0, 1)
    vol = Form.volume(chart)
    dt, dx = Form.dx(chart, 0), Form.dx(chart, 1)
    w_u, w_ut = Form.contact(chart, 0), Form.contact(chart, 0, (1, 0))
    w_uxx = Form.contact(chart, 0, (0, 2))
    return {
        "volume": vol,
        "minus_volume": -vol,
        "rational_volume": vol * Fraction(-3, 4),
        "poly_volume": vol * (u**2 * u_x + Fraction(1, 2) * t),
        "dx_fallback": dt.wedge(dx) * (u + x),
        "dx_fallback_one": dt.wedge(dx),
        "contact_volume": w_u.wedge(vol) * u - w_uxx.wedge(vol) * Fraction(2, 3),
        "contact_fallback": w_ut.wedge(dt).wedge(dx) * (x * u - 1),
        "lower_degree": dx * u_x - dt * Fraction(1, 2) + dt.wedge(w_u) * (t * u_x),
        "function": Form.function(chart, u**3 - Fraction(5, 7) * x + 1),
        "zero_word": Form.function(chart, Poly.constant(-1)) + w_uxx * -1,
        "mixed": Form.function(chart, u) + dx.wedge(w_u) + vol * x + w_u.wedge(w_uxx) * 2,
        "zero": Form.zero(chart),
    }


def _polys(chart):
    t, x = chart.x(0), chart.x(1)
    u, u_x, u_tx = chart.field(0), _jet(chart, 0, 0, 1), _jet(chart, 0, 1, 1)
    a_xx = _jet(chart, chart.m - 1, 0, 2)
    return {
        "zero": Poly.zero(),
        "one": Poly.constant(1),
        "minus_rational": Poly.constant(Fraction(-3, 4)),
        "monic": u_x * u**2 - u_tx,
        "rational": Fraction(-1, 2) * u**2 + Fraction(7, 3) * t * x**3 - 1,
        "powers": (u + x) ** 3 * a_xx - Fraction(2, 5) * a_xx**2,
        "leading_minus": -u_x - t,
    }


def _integral_cases(kind) -> dict:
    """Case id -> rendering, over coefficients 2, -1 and 1 made by `kind`
    (int or Fraction): constant and non-constant polynomials, and +-1 form
    words.  A sum of Fractions that comes out integral stays a Fraction, so
    both types reach the renderers."""
    [mono] = (PLAIN.field(0) ** 2 * _jet(PLAIN, 0, 0, 1)).terms
    [t] = PLAIN.x(0).terms
    cases = {}
    for value in (2, -1, 1):
        c = kind(value)
        for name, p in (("constant", Poly._raw({(): c})), ("monomial", Poly._raw({mono: c, t: c}))):
            cases[f"poly_text.integral.{name}_{value}"] = lambda p=p: poly_text(p, PLAIN)
            cases[f"poly_latex.integral.{name}_{value}"] = lambda p=p: poly_latex(p, PLAIN)
    for value in (1, -1):
        one = Poly._raw({(): kind(value)})
        form = Form(PLAIN, {((), ()): one, ((1,), (jet_var(0, (0, 0)),)): one, ((0, 1), ()): one})
        cases[f"form_text.integral.words_{value}"] = lambda f=form: form_text(f)
        cases[f"form_latex.integral.words_{value}"] = lambda f=form: form_latex(f)
    return cases


def build_cases() -> dict:
    """Case id -> the rendered string (computed when the test runs)."""
    cases = {}
    for label, chart in (("plain", PLAIN), ("rho_1_x2", RHO_1_X2), ("rho_2_tx", RHO_2_TX),
                         ("greek", GREEK)):
        for name, form in _forms(chart).items():
            cases[f"form_text.{label}.{name}"] = lambda f=form: form_text(f)
            cases[f"form_latex.{label}.{name}"] = lambda f=form: form_latex(f)
        for name, p in _polys(chart).items():
            cases[f"poly_text.{label}.{name}"] = lambda p=p, c=chart: poly_text(p, c)
            cases[f"poly_latex.{label}.{name}"] = lambda p=p, c=chart: poly_latex(p, c)
        # labelled ('b', mu) and ('j', field, counts)
        variables = {"('b', 1)": base_var(1), "('j', 0, (0, 0))": jet_var(0, (0, 0)),
                     f"('j', {chart.m - 1}, (2, 1))": jet_var(chart.m - 1, (2, 1))}
        for tag, var in variables.items():
            cases[f"var_name.{label}.{tag}"] = lambda v=var, c=chart: c.var_name(v)
    # unmarked top words whose coefficients are multiples of the density, and one that is not
    for label, chart in (("rho_1_x2", RHO_1_X2), ("rho_2_tx", RHO_2_TX)):
        rho, u = chart.rho, chart.field(0)
        top = {(): rho, (jet_var(0, (0, 0)),): rho * u**2}  # contact word -> coefficient
        coefficients = {
            "rho": top[()],
            "minus_rho": -rho,
            "half_rho": rho * Fraction(-1, 2),
            "rho_times_u": rho * u,
            "not_divisible": rho + 1,
        }
        for name, coeff in coefficients.items():
            form = Form(chart, {((0, 1), ()): coeff})
            cases[f"form_text.{label}.{name}"] = lambda f=form: form_text(f)
            cases[f"form_latex.{label}.{name}"] = lambda f=form: form_latex(f)
        contact = Form(chart, {((0, 1), c): coeff for c, coeff in top.items()})
        cases[f"form_text.{label}.contact_rho_u2"] = lambda f=contact: form_text(f)
        cases[f"form_latex.{label}.contact_rho_u2"] = lambda f=contact: form_latex(f)
        cases[f"poly_text.{label}.density"] = lambda c=chart: poly_text(c.rho, c)
        cases[f"poly_latex.{label}.density"] = lambda c=chart: poly_latex(c.rho, c)
    greek_contact = Form.contact(GREEK, 0, (1, 1)).wedge(Form.volume(GREEK))
    cases["form_text.greek.contact"] = lambda: form_text(greek_contact)
    cases["form_latex.greek.contact"] = lambda: form_latex(greek_contact)
    # chart-less generic names
    generic = (
        Poly.variable(jet_var(0, (0, 1))) * Poly.variable(base_var(0)) ** 2
        - Fraction(3, 2) * Poly.variable(jet_var(1, (2, 0, 1)))
        + Poly.variable(jet_var(2, (0, 0, 0)))
    )
    cases["poly_text.generic.mixed"] = lambda: poly_text(generic)
    cases["poly_text.generic.zero"] = lambda: poly_text(Poly.zero())
    cases["poly_text.generic.jet"] = lambda: poly_text(Poly.variable(jet_var(0, (0, 1))))
    cases["poly_repr.generic"] = lambda: repr(generic)
    # report leaves
    for value in (Fraction(-3, 4), Fraction(5), Fraction(0), Fraction(7, 2), True, None,
                  "symmetric hyperbolic"):
        cases[f"latex_leaf.{value!r}"] = lambda v=value: _latex_leaf(v, PLAIN)
        cases[f"text_leaf.{value!r}"] = lambda v=value: _text_leaf(v, PLAIN)
    # the canonical system text, including a higher-order flux suffix
    doc = parse_system(
        "base t x; fields u v; density 1 + x^2; title \"pin\";\n"
        "F[u,t] = u; F[u,xx] = -u_x^2/3; F[v,tx] = v u_tx; Pi[u] = 2 t; Pi[v] = 0;"
    )
    cases["render_system"] = lambda: render_system(doc)
    cases.update(_integral_cases(Fraction))
    return cases


CASES = build_cases()

EXPECTED = {
    'form_latex.greek.contact': '\\omega^{\\alpha}_{\\xi\\eta} \\wedge \\eta',
    'form_latex.greek.contact_fallback': '\\left(\\eta \\alpha - 1\\right) d\\xi \\wedge d\\eta \\wedge \\omega^{\\alpha}_{\\xi}',
    'form_latex.greek.contact_volume': '\\left(\\alpha\\right) \\omega^{\\alpha} \\wedge \\eta + \\left(-\\frac{2}{3}\\right) \\omega^{\\alpha}_{\\eta\\eta} \\wedge \\eta',
    'form_latex.greek.dx_fallback': '\\left(\\alpha + \\eta\\right) d\\xi \\wedge d\\eta',
    'form_latex.greek.dx_fallback_one': 'd\\xi \\wedge d\\eta',
    'form_latex.greek.function': '\\alpha^{3} - \\frac{5}{7} \\eta + 1',
    'form_latex.greek.lower_degree': '\\left(-\\frac{1}{2}\\right) d\\xi + \\left(\\alpha_{\\eta}\\right) d\\eta + \\left(\\xi \\alpha_{\\eta}\\right) d\\xi \\wedge \\omega^{\\alpha}',
    'form_latex.greek.minus_volume': '-\\eta',
    'form_latex.greek.mixed': '\\alpha + \\left(\\eta\\right) d\\xi \\wedge d\\eta + d\\eta \\wedge \\omega^{\\alpha} + \\left(2\\right) \\omega^{\\alpha} \\wedge \\omega^{\\alpha}_{\\eta\\eta}',
    'form_latex.greek.poly_volume': '\\left(\\alpha^{2} \\alpha_{\\eta} + \\frac{1}{2} \\xi\\right) \\eta',
    'form_latex.greek.rational_volume': '\\left(-\\frac{3}{4}\\right) \\eta',
    'form_latex.greek.volume': '\\eta',
    'form_latex.greek.zero': '0',
    'form_latex.greek.zero_word': '-1 - \\omega^{\\alpha}_{\\eta\\eta}',
    'form_latex.integral.words_-1': '-1 - dt \\wedge dx - dx \\wedge \\omega^{u}',
    'form_latex.integral.words_1': '1 + dt \\wedge dx + dx \\wedge \\omega^{u}',
    'form_latex.plain.contact_fallback': '\\left(x u - 1\\right) dt \\wedge dx \\wedge \\omega^{u}_{t}',
    'form_latex.plain.contact_volume': '\\left(u\\right) \\omega^{u} \\wedge \\eta + \\left(-\\frac{2}{3}\\right) \\omega^{u}_{xx} \\wedge \\eta',
    'form_latex.plain.dx_fallback': '\\left(u + x\\right) dt \\wedge dx',
    'form_latex.plain.dx_fallback_one': 'dt \\wedge dx',
    'form_latex.plain.function': 'u^{3} - \\frac{5}{7} x + 1',
    'form_latex.plain.lower_degree': '\\left(-\\frac{1}{2}\\right) dt + \\left(u_{x}\\right) dx + \\left(t u_{x}\\right) dt \\wedge \\omega^{u}',
    'form_latex.plain.minus_volume': '-\\eta',
    'form_latex.plain.mixed': 'u + \\left(x\\right) dt \\wedge dx + dx \\wedge \\omega^{u} + \\left(2\\right) \\omega^{u} \\wedge \\omega^{u}_{xx}',
    'form_latex.plain.poly_volume': '\\left(u^{2} u_{x} + \\frac{1}{2} t\\right) \\eta',
    'form_latex.plain.rational_volume': '\\left(-\\frac{3}{4}\\right) \\eta',
    'form_latex.plain.volume': '\\eta',
    'form_latex.plain.zero': '0',
    'form_latex.plain.zero_word': '-1 - \\omega^{u}_{xx}',
    'form_latex.rho_1_x2.contact_fallback': '\\left(x u - 1\\right) dt \\wedge dx \\wedge \\omega^{u}_{t}',
    'form_latex.rho_1_x2.contact_rho_u2': '\\left(x^{2} + 1\\right) dt \\wedge dx + \\left(x^{2} u^{2} + u^{2}\\right) dt \\wedge dx \\wedge \\omega^{u}',
    'form_latex.rho_1_x2.contact_volume': '\\left(u\\right) \\omega^{u} \\wedge \\eta + \\left(-\\frac{2}{3}\\right) \\omega^{u}_{xx} \\wedge \\eta',
    'form_latex.rho_1_x2.dx_fallback': '\\left(u + x\\right) dt \\wedge dx',
    'form_latex.rho_1_x2.dx_fallback_one': 'dt \\wedge dx',
    'form_latex.rho_1_x2.function': 'u^{3} - \\frac{5}{7} x + 1',
    'form_latex.rho_1_x2.half_rho': '\\left(-\\frac{1}{2} x^{2} - \\frac{1}{2}\\right) dt \\wedge dx',
    'form_latex.rho_1_x2.lower_degree': '\\left(-\\frac{1}{2}\\right) dt + \\left(u_{x}\\right) dx + \\left(t u_{x}\\right) dt \\wedge \\omega^{u}',
    'form_latex.rho_1_x2.minus_rho': '\\left(-x^{2} - 1\\right) dt \\wedge dx',
    'form_latex.rho_1_x2.minus_volume': '-\\eta',
    'form_latex.rho_1_x2.mixed': 'u + \\left(x^{3} + x\\right) dt \\wedge dx + dx \\wedge \\omega^{u} + \\left(2\\right) \\omega^{u} \\wedge \\omega^{u}_{xx}',
    'form_latex.rho_1_x2.not_divisible': '\\left(x^{2} + 2\\right) dt \\wedge dx',
    'form_latex.rho_1_x2.poly_volume': '\\left(u^{2} u_{x} + \\frac{1}{2} t\\right) \\eta',
    'form_latex.rho_1_x2.rational_volume': '\\left(-\\frac{3}{4}\\right) \\eta',
    'form_latex.rho_1_x2.rho': '\\left(x^{2} + 1\\right) dt \\wedge dx',
    'form_latex.rho_1_x2.rho_times_u': '\\left(x^{2} u + u\\right) dt \\wedge dx',
    'form_latex.rho_1_x2.volume': '\\eta',
    'form_latex.rho_1_x2.zero': '0',
    'form_latex.rho_1_x2.zero_word': '-1 - \\omega^{u}_{xx}',
    'form_latex.rho_2_tx.contact_fallback': '\\left(x u - 1\\right) dt \\wedge dx \\wedge \\omega^{u}_{t}',
    'form_latex.rho_2_tx.contact_rho_u2': '\\left(t x + 2\\right) dt \\wedge dx + \\left(t x u^{2} + 2 u^{2}\\right) dt \\wedge dx \\wedge \\omega^{u}',
    'form_latex.rho_2_tx.contact_volume': '\\left(u\\right) \\omega^{u} \\wedge \\eta + \\left(-\\frac{2}{3}\\right) \\omega^{u}_{xx} \\wedge \\eta',
    'form_latex.rho_2_tx.dx_fallback': '\\left(u + x\\right) dt \\wedge dx',
    'form_latex.rho_2_tx.dx_fallback_one': 'dt \\wedge dx',
    'form_latex.rho_2_tx.function': 'u^{3} - \\frac{5}{7} x + 1',
    'form_latex.rho_2_tx.half_rho': '\\left(-\\frac{1}{2} t x - 1\\right) dt \\wedge dx',
    'form_latex.rho_2_tx.lower_degree': '\\left(-\\frac{1}{2}\\right) dt + \\left(u_{x}\\right) dx + \\left(t u_{x}\\right) dt \\wedge \\omega^{u}',
    'form_latex.rho_2_tx.minus_rho': '\\left(-t x - 2\\right) dt \\wedge dx',
    'form_latex.rho_2_tx.minus_volume': '-\\eta',
    'form_latex.rho_2_tx.mixed': 'u + \\left(t x^{2} + 2 x\\right) dt \\wedge dx + dx \\wedge \\omega^{u} + \\left(2\\right) \\omega^{u} \\wedge \\omega^{u}_{xx}',
    'form_latex.rho_2_tx.not_divisible': '\\left(t x + 3\\right) dt \\wedge dx',
    'form_latex.rho_2_tx.poly_volume': '\\left(u^{2} u_{x} + \\frac{1}{2} t\\right) \\eta',
    'form_latex.rho_2_tx.rational_volume': '\\left(-\\frac{3}{4}\\right) \\eta',
    'form_latex.rho_2_tx.rho': '\\left(t x + 2\\right) dt \\wedge dx',
    'form_latex.rho_2_tx.rho_times_u': '\\left(t x u + 2 u\\right) dt \\wedge dx',
    'form_latex.rho_2_tx.volume': '\\eta',
    'form_latex.rho_2_tx.zero': '0',
    'form_latex.rho_2_tx.zero_word': '-1 - \\omega^{u}_{xx}',
    'form_text.greek.contact': 'w(alpha_xieta)^eta',
    'form_text.greek.contact_fallback': '(eta alpha - 1) dxi^deta^w(alpha_xi)',
    'form_text.greek.contact_volume': '(alpha) w(alpha)^eta + (-2/3) w(alpha_etaeta)^eta',
    'form_text.greek.dx_fallback': '(alpha + eta) dxi^deta',
    'form_text.greek.dx_fallback_one': 'dxi^deta',
    'form_text.greek.function': 'alpha^3 - 5/7 eta + 1',
    'form_text.greek.lower_degree': '(-1/2) dxi + (alpha_eta) deta + (xi alpha_eta) dxi^w(alpha)',
    'form_text.greek.minus_volume': '-eta',
    'form_text.greek.mixed': 'alpha + (eta) dxi^deta + deta^w(alpha) + (2) w(alpha)^w(alpha_etaeta)',
    'form_text.greek.poly_volume': '(alpha^2 alpha_eta + 1/2 xi) eta',
    'form_text.greek.rational_volume': '(-3/4) eta',
    'form_text.greek.volume': 'eta',
    'form_text.greek.zero': '0',
    'form_text.greek.zero_word': '-1 - w(alpha_etaeta)',
    'form_text.integral.words_-1': '-1 - dt^dx - dx^w(u)',
    'form_text.integral.words_1': '1 + dt^dx + dx^w(u)',
    'form_text.plain.contact_fallback': '(x u - 1) dt^dx^w(u_t)',
    'form_text.plain.contact_volume': '(u) w(u)^eta + (-2/3) w(u_xx)^eta',
    'form_text.plain.dx_fallback': '(u + x) dt^dx',
    'form_text.plain.dx_fallback_one': 'dt^dx',
    'form_text.plain.function': 'u^3 - 5/7 x + 1',
    'form_text.plain.lower_degree': '(-1/2) dt + (u_x) dx + (t u_x) dt^w(u)',
    'form_text.plain.minus_volume': '-eta',
    'form_text.plain.mixed': 'u + (x) dt^dx + dx^w(u) + (2) w(u)^w(u_xx)',
    'form_text.plain.poly_volume': '(u^2 u_x + 1/2 t) eta',
    'form_text.plain.rational_volume': '(-3/4) eta',
    'form_text.plain.volume': 'eta',
    'form_text.plain.zero': '0',
    'form_text.plain.zero_word': '-1 - w(u_xx)',
    'form_text.rho_1_x2.contact_fallback': '(x u - 1) dt^dx^w(u_t)',
    'form_text.rho_1_x2.contact_rho_u2': '(x^2 + 1) dt^dx + (x^2 u^2 + u^2) dt^dx^w(u)',
    'form_text.rho_1_x2.contact_volume': '(u) w(u)^eta + (-2/3) w(u_xx)^eta',
    'form_text.rho_1_x2.dx_fallback': '(u + x) dt^dx',
    'form_text.rho_1_x2.dx_fallback_one': 'dt^dx',
    'form_text.rho_1_x2.function': 'u^3 - 5/7 x + 1',
    'form_text.rho_1_x2.half_rho': '(-1/2 x^2 - 1/2) dt^dx',
    'form_text.rho_1_x2.lower_degree': '(-1/2) dt + (u_x) dx + (t u_x) dt^w(u)',
    'form_text.rho_1_x2.minus_rho': '(-x^2 - 1) dt^dx',
    'form_text.rho_1_x2.minus_volume': '-eta',
    'form_text.rho_1_x2.mixed': 'u + (x^3 + x) dt^dx + dx^w(u) + (2) w(u)^w(u_xx)',
    'form_text.rho_1_x2.not_divisible': '(x^2 + 2) dt^dx',
    'form_text.rho_1_x2.poly_volume': '(u^2 u_x + 1/2 t) eta',
    'form_text.rho_1_x2.rational_volume': '(-3/4) eta',
    'form_text.rho_1_x2.rho': '(x^2 + 1) dt^dx',
    'form_text.rho_1_x2.rho_times_u': '(x^2 u + u) dt^dx',
    'form_text.rho_1_x2.volume': 'eta',
    'form_text.rho_1_x2.zero': '0',
    'form_text.rho_1_x2.zero_word': '-1 - w(u_xx)',
    'form_text.rho_2_tx.contact_fallback': '(x u - 1) dt^dx^w(u_t)',
    'form_text.rho_2_tx.contact_rho_u2': '(t x + 2) dt^dx + (t x u^2 + 2 u^2) dt^dx^w(u)',
    'form_text.rho_2_tx.contact_volume': '(u) w(u)^eta + (-2/3) w(u_xx)^eta',
    'form_text.rho_2_tx.dx_fallback': '(u + x) dt^dx',
    'form_text.rho_2_tx.dx_fallback_one': 'dt^dx',
    'form_text.rho_2_tx.function': 'u^3 - 5/7 x + 1',
    'form_text.rho_2_tx.half_rho': '(-1/2 t x - 1) dt^dx',
    'form_text.rho_2_tx.lower_degree': '(-1/2) dt + (u_x) dx + (t u_x) dt^w(u)',
    'form_text.rho_2_tx.minus_rho': '(-t x - 2) dt^dx',
    'form_text.rho_2_tx.minus_volume': '-eta',
    'form_text.rho_2_tx.mixed': 'u + (t x^2 + 2 x) dt^dx + dx^w(u) + (2) w(u)^w(u_xx)',
    'form_text.rho_2_tx.not_divisible': '(t x + 3) dt^dx',
    'form_text.rho_2_tx.poly_volume': '(u^2 u_x + 1/2 t) eta',
    'form_text.rho_2_tx.rational_volume': '(-3/4) eta',
    'form_text.rho_2_tx.rho': '(t x + 2) dt^dx',
    'form_text.rho_2_tx.rho_times_u': '(t x u + 2 u) dt^dx',
    'form_text.rho_2_tx.volume': 'eta',
    'form_text.rho_2_tx.zero': '0',
    'form_text.rho_2_tx.zero_word': '-1 - w(u_xx)',
    "latex_leaf.'symmetric hyperbolic'": '\\text{symmetric hyperbolic}',
    'latex_leaf.Fraction(-3, 4)': '-\\frac{3}{4}',
    'latex_leaf.Fraction(0, 1)': '0',
    'latex_leaf.Fraction(5, 1)': '5',
    'latex_leaf.Fraction(7, 2)': '\\frac{7}{2}',
    'latex_leaf.None': '\\text{none}',
    'latex_leaf.True': '\\text{true}',
    'poly_latex.greek.leading_minus': '-\\alpha_{\\eta} - \\xi',
    'poly_latex.greek.minus_rational': '-\\frac{3}{4}',
    'poly_latex.greek.monic': '\\alpha^{2} \\alpha_{\\eta} - \\alpha_{\\xi\\eta}',
    'poly_latex.greek.one': '1',
    'poly_latex.greek.powers': '\\alpha^{3} \\alpha_{\\eta\\eta} + 3 \\eta \\alpha^{2} \\alpha_{\\eta\\eta} + 3 \\eta^{2} \\alpha \\alpha_{\\eta\\eta} + \\eta^{3} \\alpha_{\\eta\\eta} - \\frac{2}{5} \\alpha_{\\eta\\eta}^{2}',
    'poly_latex.greek.rational': '\\frac{7}{3} \\xi \\eta^{3} - \\frac{1}{2} \\alpha^{2} - 1',
    'poly_latex.greek.zero': '0',
    'poly_latex.integral.constant_-1': '-1',
    'poly_latex.integral.constant_1': '1',
    'poly_latex.integral.constant_2': '2',
    'poly_latex.integral.monomial_-1': '-u^{2} u_{x} - t',
    'poly_latex.integral.monomial_1': 'u^{2} u_{x} + t',
    'poly_latex.integral.monomial_2': '2 u^{2} u_{x} + 2 t',
    'poly_latex.plain.leading_minus': '-u_{x} - t',
    'poly_latex.plain.minus_rational': '-\\frac{3}{4}',
    'poly_latex.plain.monic': 'u^{2} u_{x} - u_{tx}',
    'poly_latex.plain.one': '1',
    'poly_latex.plain.powers': 'u^{3} v_{xx} + 3 x u^{2} v_{xx} + 3 x^{2} u v_{xx} + x^{3} v_{xx} - \\frac{2}{5} v_{xx}^{2}',
    'poly_latex.plain.rational': '\\frac{7}{3} t x^{3} - \\frac{1}{2} u^{2} - 1',
    'poly_latex.plain.zero': '0',
    'poly_latex.rho_1_x2.density': 'x^{2} + 1',
    'poly_latex.rho_1_x2.leading_minus': '-u_{x} - t',
    'poly_latex.rho_1_x2.minus_rational': '-\\frac{3}{4}',
    'poly_latex.rho_1_x2.monic': 'u^{2} u_{x} - u_{tx}',
    'poly_latex.rho_1_x2.one': '1',
    'poly_latex.rho_1_x2.powers': 'u^{3} u_{xx} + 3 x u^{2} u_{xx} + 3 x^{2} u u_{xx} + x^{3} u_{xx} - \\frac{2}{5} u_{xx}^{2}',
    'poly_latex.rho_1_x2.rational': '\\frac{7}{3} t x^{3} - \\frac{1}{2} u^{2} - 1',
    'poly_latex.rho_1_x2.zero': '0',
    'poly_latex.rho_2_tx.density': 't x + 2',
    'poly_latex.rho_2_tx.leading_minus': '-u_{x} - t',
    'poly_latex.rho_2_tx.minus_rational': '-\\frac{3}{4}',
    'poly_latex.rho_2_tx.monic': 'u^{2} u_{x} - u_{tx}',
    'poly_latex.rho_2_tx.one': '1',
    'poly_latex.rho_2_tx.powers': 'u^{3} v_{xx} + 3 x u^{2} v_{xx} + 3 x^{2} u v_{xx} + x^{3} v_{xx} - \\frac{2}{5} v_{xx}^{2}',
    'poly_latex.rho_2_tx.rational': '\\frac{7}{3} t x^{3} - \\frac{1}{2} u^{2} - 1',
    'poly_latex.rho_2_tx.zero': '0',
    'poly_repr.generic': 'Poly(x0^2 y0_d1 - 3/2 y1_d002 + y2)',
    'poly_text.generic.jet': 'y0_d1',
    'poly_text.generic.mixed': 'x0^2 y0_d1 - 3/2 y1_d002 + y2',
    'poly_text.generic.zero': '0',
    'poly_text.greek.leading_minus': '-alpha_eta - xi',
    'poly_text.greek.minus_rational': '-3/4',
    'poly_text.greek.monic': 'alpha^2 alpha_eta - alpha_xieta',
    'poly_text.greek.one': '1',
    'poly_text.greek.powers': 'alpha^3 alpha_etaeta + 3 eta alpha^2 alpha_etaeta + 3 eta^2 alpha alpha_etaeta + eta^3 alpha_etaeta - 2/5 alpha_etaeta^2',
    'poly_text.greek.rational': '7/3 xi eta^3 - 1/2 alpha^2 - 1',
    'poly_text.greek.zero': '0',
    'poly_text.integral.constant_-1': '-1',
    'poly_text.integral.constant_1': '1',
    'poly_text.integral.constant_2': '2',
    'poly_text.integral.monomial_-1': '-u^2 u_x - t',
    'poly_text.integral.monomial_1': 'u^2 u_x + t',
    'poly_text.integral.monomial_2': '2 u^2 u_x + 2 t',
    'poly_text.plain.leading_minus': '-u_x - t',
    'poly_text.plain.minus_rational': '-3/4',
    'poly_text.plain.monic': 'u^2 u_x - u_tx',
    'poly_text.plain.one': '1',
    'poly_text.plain.powers': 'u^3 v_xx + 3 x u^2 v_xx + 3 x^2 u v_xx + x^3 v_xx - 2/5 v_xx^2',
    'poly_text.plain.rational': '7/3 t x^3 - 1/2 u^2 - 1',
    'poly_text.plain.zero': '0',
    'poly_text.rho_1_x2.density': 'x^2 + 1',
    'poly_text.rho_1_x2.leading_minus': '-u_x - t',
    'poly_text.rho_1_x2.minus_rational': '-3/4',
    'poly_text.rho_1_x2.monic': 'u^2 u_x - u_tx',
    'poly_text.rho_1_x2.one': '1',
    'poly_text.rho_1_x2.powers': 'u^3 u_xx + 3 x u^2 u_xx + 3 x^2 u u_xx + x^3 u_xx - 2/5 u_xx^2',
    'poly_text.rho_1_x2.rational': '7/3 t x^3 - 1/2 u^2 - 1',
    'poly_text.rho_1_x2.zero': '0',
    'poly_text.rho_2_tx.density': 't x + 2',
    'poly_text.rho_2_tx.leading_minus': '-u_x - t',
    'poly_text.rho_2_tx.minus_rational': '-3/4',
    'poly_text.rho_2_tx.monic': 'u^2 u_x - u_tx',
    'poly_text.rho_2_tx.one': '1',
    'poly_text.rho_2_tx.powers': 'u^3 v_xx + 3 x u^2 v_xx + 3 x^2 u v_xx + x^3 v_xx - 2/5 v_xx^2',
    'poly_text.rho_2_tx.rational': '7/3 t x^3 - 1/2 u^2 - 1',
    'poly_text.rho_2_tx.zero': '0',
    'render_system': 'base t x;\nfields u v;\ndensity x^2 + 1;\ntitle "pin";\nF[u,xx] = -1/3 u_x^2;\nF[u,t] = u;\nF[v,tx] = v u_tx;\nPi[u] = 2 t;\n',
    "text_leaf.'symmetric hyperbolic'": 'symmetric hyperbolic',
    'text_leaf.Fraction(-3, 4)': '-3/4',
    'text_leaf.Fraction(0, 1)': '0',
    'text_leaf.Fraction(5, 1)': '5',
    'text_leaf.Fraction(7, 2)': '7/2',
    'text_leaf.None': 'none',
    'text_leaf.True': 'true',
    "var_name.greek.('b', 1)": 'eta',
    "var_name.greek.('j', 0, (0, 0))": 'alpha',
    "var_name.greek.('j', 0, (2, 1))": 'alpha_xixieta',
    "var_name.plain.('b', 1)": 'x',
    "var_name.plain.('j', 0, (0, 0))": 'u',
    "var_name.plain.('j', 1, (2, 1))": 'v_ttx',
    "var_name.rho_1_x2.('b', 1)": 'x',
    "var_name.rho_1_x2.('j', 0, (0, 0))": 'u',
    "var_name.rho_1_x2.('j', 0, (2, 1))": 'u_ttx',
    "var_name.rho_2_tx.('b', 1)": 'x',
    "var_name.rho_2_tx.('j', 0, (0, 0))": 'u',
    "var_name.rho_2_tx.('j', 1, (2, 1))": 'v_ttx',
}


def test_case_table_is_pinned():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("case", sorted(CASES))
def test_render(case):
    assert CASES[case]() == EXPECTED[case]


def test_integral_fractions_render_like_ints():
    as_int, as_fraction = _integral_cases(int), _integral_cases(Fraction)
    assert {k: f() for k, f in as_fraction.items()} == {k: f() for k, f in as_int.items()}


# Words whose generators print in another order than the codes store them.
# The stored word of w(u_t)^w(u_xx) is (u_t, u_xx), since a code ranks by
# derivative order first; it prints by field, then multi-index, as
# w(u_xx)^w(u_t), with the sign of that swap.
TX = Chart(("t", "x"), ("u",))
TWO_FIELDS = Chart(("t", "X"), ("v", "f"))  # "X" sorts before "t" by name, after it by index


def _two_contact_form() -> Form:
    vol, w_ut = Form.volume(TX), Form.contact(TX, 0, (1, 0))
    swapped = w_ut.wedge(Form.contact(TX, 0, (0, 2))).wedge(vol) * TX.x(1)
    return Form.contact(TX, 0).wedge(w_ut).wedge(vol) * 3 + swapped


def _two_field_form() -> Form:
    chart = TWO_FIELDS
    v, f = chart.field(0), chart.field(1)
    data = [((0, (0, 0)), f), ((0, (0, 1)), v * f), ((0, (1, 0)), -v), ((1, (0, 0)), Fraction(1, 2)),
            ((1, (0, 1)), f**2), ((1, (1, 0)), chart.x(0)), ((0, (0, 2)), -1), ((1, (1, 1)), v)]
    terms = [Form.contact(chart, i, counts).wedge(Form.volume(chart)) * p for (i, counts), p in data]
    return sum(terms[1:], terms[0])


def test_generators_print_by_field_then_multi_index():
    two = _two_contact_form()
    assert form_text(two) == "(3) w(u)^w(u_t)^eta + (-x) w(u_xx)^w(u_t)^eta"
    assert form_latex(two) == (
        "\\left(3\\right) \\omega^{u} \\wedge \\omega^{u}_{t} \\wedge \\eta + "
        "\\left(-x\\right) \\omega^{u}_{xx} \\wedge \\omega^{u}_{t} \\wedge \\eta"
    )
    bare = Form.contact(TX, 0, (1, 0)).wedge(Form.contact(TX, 0, (0, 2))).wedge(Form.volume(TX))
    assert form_text(bare) == "-w(u_xx)^w(u_t)^eta"
    assert form_latex(bare) == "-\\omega^{u}_{xx} \\wedge \\omega^{u}_{t} \\wedge \\eta"


def test_fields_print_before_multi_indices():
    form = _two_field_form()
    assert form_text(form) == (
        "(f) w(v)^eta + (v f) w(v_X)^eta - w(v_XX)^eta + (-v) w(v_t)^eta + (1/2) w(f)^eta"
        " + (f^2) w(f_X)^eta + (t) w(f_t)^eta + (v) w(f_tX)^eta"
    )
    assert form_latex(form) == (
        "\\left(f\\right) \\omega^{v} \\wedge \\eta + \\left(v f\\right) \\omega^{v}_{X} \\wedge \\eta"
        " - \\omega^{v}_{XX} \\wedge \\eta + \\left(-v\\right) \\omega^{v}_{t} \\wedge \\eta"
        " + \\left(\\frac{1}{2}\\right) \\omega^{f} \\wedge \\eta"
        " + \\left(f^{2}\\right) \\omega^{f}_{X} \\wedge \\eta"
        " + \\left(t\\right) \\omega^{f}_{t} \\wedge \\eta + \\left(v\\right) \\omega^{f}_{tX} \\wedge \\eta"
    )


# A word stores its dx factors first and prints eta after its r contact
# factors, so eta ^ w = (-1)^n w ^ eta prints with a minus sign on odd n.
ETA_CHARTS = {1: Chart(("x",), ("u", "v")), 2: Chart(("t", "x"), ("u", "v")),
              3: Chart(("t", "x", "y"), ("u", "v"))}


@pytest.mark.parametrize("eta_first", [False, True])
@pytest.mark.parametrize("n", sorted(ETA_CHARTS))
def test_eta_takes_the_sign_of_its_move(n, eta_first):
    chart = ETA_CHARTS[n]
    vol, w_u = Form.volume(chart), Form.contact(chart, 0)
    w_v = Form.contact(chart, 1, (1,) + (0,) * (n - 1))
    one = vol.wedge(w_u) if eta_first else w_u.wedge(vol)
    two = vol.wedge(w_u).wedge(w_v) if eta_first else w_u.wedge(w_v).wedge(vol)
    sign = "-" if eta_first and n % 2 else ""
    first = chart.base_names[0]
    assert form_text(one) == f"{sign}w(u)^eta"
    assert form_latex(one) == f"{sign}\\omega^{{u}} \\wedge \\eta"
    assert form_text(two) == f"w(u)^w(v_{first})^eta"
    assert form_latex(two) == f"\\omega^{{u}} \\wedge \\omega^{{v}}_{{{first}}} \\wedge \\eta"
    assert form_text(two * -1) == f"-w(u)^w(v_{first})^eta"


def test_one_coordinate_encoding():
    """The encoding is sum (F w(z_x) + Pi w(y)) ^ eta, signs as written."""
    doc = parse_system("base x; fields u; F[u,x] = u^2; Pi[u] = x;")
    form = balance_form(doc.to_balance_system())
    assert form_text(form) == "(x) w(u)^eta + (u^2) w(u_x)^eta"
    assert form_latex(form) == (
        "\\left(x\\right) \\omega^{u} \\wedge \\eta + \\left(u^{2}\\right) \\omega^{u}_{x} \\wedge \\eta"
    )
