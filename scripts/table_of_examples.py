#!/usr/bin/env python3
"""Reproduce the quasi-Lagrangians and Euler-Lagrange parts of the classic
example equations (conservation law, KdV, Burgers, filtration) and print
them in divergence-split presentation."""

from __future__ import annotations

from jetbalance import BalanceSystem, Chart, Poly, decompose, poly_text


def show(name: str, bs: BalanceSystem) -> None:
    chart = bs.chart
    dec = decompose(bs)
    potentials, remainder = dec.divergence_potentials, dec.non_divergence_part
    pieces = [
        f"d_{chart.base_names[mu]}({poly_text(potentials[mu], chart)})"
        for mu in range(chart.n)
        if not potentials[mu].is_zero
    ]
    if not remainder.is_zero:
        pieces.append(poly_text(remainder, chart))
    joined = " + ".join(pieces).replace(" + -", " - ") if pieces else "0"
    print(f"{name}:")
    print(f"  quasi-Lagrangian  {poly_text(dec.quasi_lagrangian, chart)}")
    print(f"  divergence form   {joined}")
    print(
        "  Lagrangian part   "
        + ", ".join(poly_text(c, chart) for c in dec.euler_lagrange_form.components())
        + " = 0"
    )
    print()


def main() -> int:
    chart = Chart(("t", "x"), ("u",))
    u = chart.field(0)
    zx = chart.jet(0, (0, 1))
    zxx = chart.jet(0, (0, 2))
    show("conservation law, C(u) = u^2", BalanceSystem(chart, [[u, u**2]], [Poly.zero()]))
    show("KdV", BalanceSystem(chart, [[u, 3 * u**2 + zxx]], [Poly.zero()]))
    show("Burgers", BalanceSystem(chart, [[u, -(u**2 / 2 + zx)]], [Poly.zero()]))
    show("filtration", BalanceSystem(chart, [[u - zxx, -zx]], [Poly.zero()]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
