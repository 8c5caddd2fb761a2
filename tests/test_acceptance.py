"""Acceptance criteria.

Every criterion below runs at its stated tolerance (exact rational equality
unless noted) and prints one pass/fail line; the suite is the exit gate for
the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from jetbalance import (
    BalanceSystem,
    Chart,
    Poly,
    balance_form,
    balance_residuals,
    delta_V,
    euler_lagrange,
    functional_from_components,
    godunov_check,
    helmholtz_check,
    higher_balance_residuals,
    interior_euler,
    quasi_lagrangian,
    symmetric_hyperbolicity,
    vertical_decompose,
    vertical_homotopy,
)
from jetbalance.cli import parse_system, render, run
from jetbalance.symcore import jet_var

from conftest import random_form, random_poly, random_system

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def _verdict(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _unit(n: int, mu: int) -> tuple:
    return tuple(1 if k == mu else 0 for k in range(n))


def test_criterion_01_table_reproduction():
    ok = True
    chart = Chart(("t", "x"), ("u",))
    u = chart.field(0)
    zt, zx = chart.jet(0, (1, 0)), chart.jet(0, (0, 1))
    zxx = chart.jet(0, (0, 2))

    # (a) conservation law with quadratic constitutive function
    bs = BalanceSystem(chart, [[u, u**2]], [Poly.zero()])
    ltilde = quasi_lagrangian(bs)
    ok &= ltilde == u * zt / 2 + u**2 * zx / 3
    ok &= euler_lagrange(chart, ltilde).is_zero

    # (b) KdV; the divergence expansion reproduces the tabulated fluxes
    bs = BalanceSystem(chart, [[u, 3 * u**2 + zxx]], [Poly.zero()])
    ltilde = quasi_lagrangian(bs)
    ok &= ltilde == u * zt / 2 + u**2 * zx + zx * zxx / 2
    expansion = (u**2 / 4).total_derivative(0) + (zx**2 / 4 + u**3 / 3).total_derivative(1)
    ok &= ltilde == expansion
    ok &= euler_lagrange(chart, ltilde).is_zero

    # (c) Burgers
    bs = BalanceSystem(chart, [[u, -(u**2 / 2 + zx)]], [Poly.zero()])
    ltilde = quasi_lagrangian(bs)
    ok &= ltilde == u * zt / 2 - u**2 * zx / 6 - zx**2 / 2
    expansion = (u**2 / 4).total_derivative(0) + (-(u**3) / 18).total_derivative(1) - zx**2 / 2
    ok &= ltilde == expansion
    ok &= euler_lagrange(chart, ltilde).components() == (zxx,)

    # (d) filtration: Euler-Lagrange form is the spatial Laplacian, and the
    # decompose report carries the sign-convention footnote
    doc = parse_system((SYSTEMS / "filtration.bal").read_text())
    fbs = doc.to_balance_system()
    ltilde = quasi_lagrangian(fbs)
    ok &= ltilde == u * zt / 2 - zt * zxx / 2 - zx**2 / 2
    ok &= euler_lagrange(chart, ltilde).components() == (zxx,)
    report = run("decompose", doc)
    ok &= any("opposite sign" in note for note in report.footnotes)

    _verdict("01 table-of-examples reproduction", bool(ok))


def test_criterion_02_plasticity():
    doc = parse_system((SYSTEMS / "plasticity.bal").read_text())
    bs = doc.to_balance_system()
    chart = bs.chart
    u, v = chart.field(0), chart.field(1)
    ltilde = quasi_lagrangian(bs)
    el = euler_lagrange(chart, ltilde)
    ok = el.components() == (-v / 2, -u / 2)
    ok &= el.components() == tuple(bs.Pi)
    from jetbalance import divergence_split

    _, remainder = divergence_split(chart, ltilde)
    ok &= remainder == -u * v / 2
    report = run("decompose", doc)
    ok &= any("weight 1/2" in note for note in report.footnotes)
    _verdict("02 plasticity source recovery", bool(ok))


def test_criterion_03_hyperelasticity():
    doc = parse_system((SYSTEMS / "hyperelastic.bal").read_text())
    bs = doc.to_balance_system()
    chart = bs.chart
    body_force = Poly.constant(2)
    ltilde = quasi_lagrangian(bs)
    el = euler_lagrange(chart, ltilde)
    expected = functional_from_components(chart, [body_force, Poly.zero()])
    ok = el.form == expected.form
    # the remaining part of the quasi-Lagrangian is a pure divergence
    v = chart.field(0)
    ok &= euler_lagrange(chart, ltilde - body_force * v).is_zero
    _verdict("03 hyperelasticity trivial-plus-source split", bool(ok))


def test_criterion_04_closure_equivalence():
    rng = random.Random(104)
    chart = Chart(("t", "x"), ("u", "v"))
    ok = True
    for _ in range(100):
        lagrangian = random_poly(rng, chart, max_order=1, max_degree=4, max_terms=3)
        bs = BalanceSystem.from_lagrangian(chart, lagrangian)
        result = helmholtz_check(bs)
        ok &= result.closed
        ok &= result.lagrangian == lagrangian.vertical_part()
    for _ in range(100):
        lagrangian = random_poly(rng, chart, max_order=1, max_degree=4, max_terms=3)
        bs = BalanceSystem.from_lagrangian(chart, lagrangian)
        i = rng.randrange(chart.m)
        mu = rng.randrange(chart.n)
        scale = Fraction(rng.choice([1, 2, 3]))
        bump = chart.field(i) * chart.jet(i, _unit(chart.n, mu)) * scale
        F = [list(row) for row in bs.F]
        F[i][mu] = F[i][mu] + bump
        perturbed = BalanceSystem(chart, F, bs.Pi)
        ok &= not helmholtz_check(perturbed).closed
    _verdict("04 closedness equivalence on 100+100 systems", bool(ok))


def test_criterion_05_homotopy_identity():
    rng = random.Random(105)
    charts = (
        Chart(("x",), ("u",)),
        Chart(("t", "x"), ("u", "v")),
        Chart(("t", "x", "y"), ("u", "v", "w")),
    )
    ok = True
    samples = 0
    for _ in range(210):
        chart = rng.choice(charts)
        s = rng.randint(0, chart.n)
        r = rng.randint(1, 2)
        form = random_form(rng, chart, s=s, r=r, max_order=2, max_terms=2)
        if form.is_zero:
            continue
        samples += 1
        exact, complement = vertical_decompose(form)
        ok &= exact + complement == form
        projected = vertical_homotopy(form.d_V())
        ok &= vertical_homotopy(projected.d_V()) == projected
        ok &= vertical_homotopy(form.d_V()).d_V() == form.d_V()
    ok &= samples >= 200
    _verdict(f"05 homotopy identity on {samples} random forms", bool(ok))


def test_criterion_06_projector_and_complex():
    rng = random.Random(106)
    chart = Chart(("t", "x"), ("u", "v"))
    ok = True
    for _ in range(100):
        lagrangian = random_poly(rng, chart, max_order=1, max_degree=4, max_terms=3)
        el = euler_lagrange(chart, lagrangian)
        ok &= interior_euler(el.form).form == el.form
        ok &= delta_V(el).is_zero
        encoding = balance_form(random_system(rng, chart, max_order=1, max_degree=2))
        two_contact = encoding.d_V()
        if not two_contact.is_zero:
            projected = interior_euler(two_contact).form
            ok &= interior_euler(projected).form == projected
    _verdict("06 interior Euler idempotence and delta_V . E = 0", bool(ok))


def test_criterion_07_godunov_round_trip():
    rng = random.Random(107)
    chart = Chart(("t", "x"), ("u", "v"))
    fields = [jet_var(i, (0, 0)) for i in range(2)]
    ok = True
    for _ in range(50):
        potentials = [
            random_poly(rng, chart, max_order=0, max_degree=4, with_base=False)
            for _ in range(chart.n)
        ]
        F = [[g.partial(fields[i]) for g in potentials] for i in range(2)]
        bs = BalanceSystem(chart, F, [Poly.zero(), Poly.zero()])
        report = godunov_check(bs)
        ok &= report.verdict
        ok &= report.potentials == tuple(g.vertical_part() for g in potentials)
        for mu in range(chart.n):
            for i in range(2):
                ok &= report.potentials[mu].partial(fields[i]) == F[i][mu]
        # a one-sided field dependence breaks the symmetry provably
        i = rng.randrange(2)
        j = 1 - i
        F2 = [list(row) for row in F]
        mu = rng.randrange(chart.n)
        F2[i][mu] = F2[i][mu] + chart.field(j) ** 2
        ok &= not godunov_check(BalanceSystem(chart, F2, bs.Pi)).verdict
    u, v = chart.field(0), chart.field(1)
    zero_flux = [[Poly.zero()] * 2, [Poly.zero()] * 2]
    constant_pairing = godunov_check(BalanceSystem(chart, zero_flux, [v, -u]))
    ok &= constant_pairing.pairing_constant == 0 and constant_pairing.verdict
    varying_pairing = godunov_check(BalanceSystem(chart, zero_flux, [u, Poly.zero()]))
    ok &= varying_pairing.pairing_constant is None and not varying_pairing.verdict
    _verdict("07 Godunov classification round trip (50 tuples)", bool(ok))


def test_criterion_08_symmetric_hyperbolicity():
    rng = random.Random(108)
    chart = Chart(("t", "x"), ("u", "v"))
    fields = [jet_var(i, (0, 0)) for i in range(2)]
    u, v = chart.field(0), chart.field(1)

    def gradient_system(g0, g1):
        F = [[g.partial(fields[i]) for g in (g0, g1)] for i in range(2)]
        return BalanceSystem(chart, F, [Poly.zero(), Poly.zero()])

    ok = True
    definite = gradient_system((u**2 + v**2) / 2, u * v)
    for _ in range(10):
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        report = symmetric_hyperbolicity(definite, point)
        ok &= report.verdict and not report.singular
    indefinite = gradient_system(u * v, (u**2 + v**2) / 2)
    report = symmetric_hyperbolicity(indefinite, [0, 0, 1, 2])
    ok &= not report.verdict
    degenerate = gradient_system(u**2 / 2, u * v)
    report = symmetric_hyperbolicity(degenerate, [1, 2, 3, 4])
    ok &= report.singular and not report.verdict and Fraction(0) in report.leading_minors
    _verdict("08 symmetric hyperbolicity verdicts", bool(ok))


def test_criterion_09_higher_order_residual():
    chart = Chart(("x",), ("u",))
    zxx = chart.jet(0, (2,))
    z4 = chart.jet(0, (4,))
    data = BalanceSystem.from_entries(chart, {(0, (2,)): zxx})
    ok = higher_balance_residuals(data) == (-z4,)
    chart2 = Chart(("t", "x"), ("u", "v"))
    rng = random.Random(109)
    for _ in range(10):
        bs = random_system(rng, chart2, max_order=1, max_degree=3)
        coeffs = {}
        for i in range(2):
            for mu in range(2):
                coeffs[(i, _unit(2, mu))] = bs.F[i][mu]
            coeffs[(i, (0, 0))] = bs.Pi[i]
        data = BalanceSystem.from_entries(chart2, coeffs)
        ok &= higher_balance_residuals(data) == balance_residuals(bs)
    _verdict("09 higher-order residuals", bool(ok))


def test_criterion_10_cli_determinism():
    jobs = [
        ("equations", "burgers.bal", {}),
        ("check", "burgers.bal", {}),
        ("decompose", "burgers.bal", {}),
        ("verify", "burgers.bal", {"section_text": "u = 4;"}),
        ("equations", "plasticity.bal", {}),
        ("check", "plasticity.bal", {}),
        ("decompose", "plasticity.bal", {}),
        ("hyperbolic", "plasticity.bal", {"at": [0, 0, 1, 2]}),
        ("equations", "kdv.bal", {}),
        ("decompose", "kdv.bal", {}),
        ("hyperbolic", "godunov_pair.bal", {"at": [0, 0, 1, 2]}),
        ("higher", "biharmonic.bal", {}),
    ]
    ok = True
    for command, filename, kwargs in jobs:
        source = (SYSTEMS / filename).read_text()
        outputs = []
        for _ in range(5):
            doc = parse_system(source)
            report = run(command, doc, **kwargs)
            ok &= not report.has_error
            outputs.append(render(report, "structured"))
        ok &= all(payload == outputs[0] for payload in outputs)
    _verdict("10 structured output byte-stable over 5 runs x 12 jobs", bool(ok))
