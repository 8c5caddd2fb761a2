"""Seeded inputs for the jetbalance benchmark.

Every input is system or section text in the declaration language, built
from `random.Random(seed)`; the program under test only ever sees that text.
Sizes and exponents are drawn and used as drawn, never filtered.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

FORMATS = ("text", "latex", "structured")
ANALYSES = ("equations", "check", "decompose")
COMMANDS = ANALYSES + ("hyperbolic", "higher", "verify")
FIELDS = ("u", "v", "w")
BASES = {1: ("x",), 2: ("t", "x"), 3: ("t", "x", "y")}

# Rungs (base coordinates n, fields m, jet order, degree, terms per entry) and
# how many seeded systems each rung gets per pass.  The top rung costs about
# as much as all lower rungs together, so it gets the fewest systems.
LADDER = ((1, 1, 1, 3, 3), (2, 1, 2, 3, 4), (2, 2, 2, 4, 6), (3, 2, 2, 4, 8), (3, 3, 3, 5, 10))
LADDER_SYSTEMS = (4, 4, 3, 3, 2)

_NUMERATORS = (-3, -2, -1, 1, 2, 3, 5)
_DENOMINATORS = (1, 1, 2, 3, 4)


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def jet_names(base: tuple, fields: tuple, order: int) -> list:
    """Names of every jet variable up to `order`, suffixes in chart order."""
    names = []
    for f in fields:
        for total in range(order + 1):
            for combo in combinations_with_replacement(base, total):
                names.append(f + "_" + "".join(combo) if combo else f)
    return names


def random_poly_text(rng: random.Random, pool: list, degree: int, terms: int) -> str:
    """`terms` monomials over `pool` with rational coefficients.  Monomial
    degrees run through 0..`degree` in turn rather than being drawn, so that
    entries of one rung differ in their variables, not in their size."""
    pieces = []
    for k in range(terms):
        c = Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
        exps: dict = {}
        for _ in range(k % (degree + 1)):
            name = rng.choice(pool)
            exps[name] = exps.get(name, 0) + 1
        factors = " ".join(v if e == 1 else f"{v}^{e}" for v, e in exps.items())
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {_coeff_text(abs(c))} {factors}".rstrip())
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def _header(base: tuple, fields: tuple, density: str | None = None) -> list:
    lines = [f"base {' '.join(base)};", f"fields {' '.join(fields)};"]
    if density:
        lines.append(f"density {density};")
    return lines


def ladder_system(rng: random.Random, rung: tuple, order: int | None = None) -> str:
    """A first-order balance system on the rung's chart; `order` overrides the
    rung's jet order (0 gives the zero-order companion used by `hyperbolic`)."""
    n, m, jet_order, degree, terms = rung
    base, fields = BASES[n], FIELDS[:m]
    pool = list(base) + jet_names(base, fields, jet_order if order is None else order)
    lines = _header(base, fields)
    for f in fields:
        for x in base:
            lines.append(f"F[{f},{x}] = {random_poly_text(rng, pool, degree, terms)};")
        lines.append(f"Pi[{f}] = {random_poly_text(rng, pool, degree, terms)};")
    return "\n".join(lines) + "\n"


def higher_system(rng: random.Random, rung: tuple) -> str:
    """Flux data with one entry per field and coordinate whose multi-index
    has order 2 or 3, analysed by the `higher` command."""
    n, m, jet_order, degree, terms = rung
    base, fields = BASES[n], FIELDS[:m]
    pool = list(base) + jet_names(base, fields, jet_order)
    lines = _header(base, fields)
    for f in fields:
        suffixes = set()
        for x in base:
            extra = rng.choices(base, k=rng.randint(1, 2))
            suffixes.add("".join(sorted([x] + extra, key=base.index)))
        for suffix in sorted(suffixes):
            lines.append(f"F[{f},{suffix}] = {random_poly_text(rng, pool, degree, terms)};")
        lines.append(f"Pi[{f}] = {random_poly_text(rng, pool, degree, terms)};")
    return "\n".join(lines) + "\n"


def section_text(rng: random.Random, n: int, m: int) -> str:
    """A polynomial section: each field a polynomial of degree <= 2 in the base."""
    base = list(BASES[n])
    lines = [f"{f} = {random_poly_text(rng, base, 2, rng.randint(1, 3))};" for f in FIELDS[:m]]
    return "\n".join(lines) + "\n"


def point(rng: random.Random, n: int, m: int) -> str:
    """A rational point for `hyperbolic --at`: base coordinates then fields."""
    values = [rng.randint(-2, 2) for _ in range(n)] + [rng.randint(1, 3) for _ in range(m)]
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# compact powers
# ---------------------------------------------------------------------------

# Exponent ranges of the two families: [5, 12] and [12, 31].  The first
# range's top, 12, runs in every pass with the density: its renders are among
# the largest jobs, where job_ms_p90 falls.  The rest of the ranges is cut into strata
# and a pass draws one exponent from each.  `Poly.__pow__` squares once past
# the highest power of two below the exponent, so its cost steps at powers of
# two, and a stratum starts at each such step.  Narrow strata keep the work
# of a pass, and so the percentiles, nearly independent of the seed: over
# 300 seeds, with job times measured once per system, the interquartile
# range over median of job_ms_p50 and job_ms_p90 was 0.08 and 0.06; with one
# draw below and one above the step per family, plus both range tops, it
# was 0.24 and 0.12.
POWER_TOP = ("u + u_x + x + 1", 12, True)  # (family, exponent, with density?)
POWER_STRATA = (
    ("u + u_x + x + 1", ((5, 7), (8, 11))),
    ("u + x + 1", ((12, 15), (16, 19), (20, 23), (24, 27), (28, 31))),
)
DENSITY = "1 + x^2"


def power_exponents(rng: random.Random) -> list:
    """(family polynomial, exponent, with density?) of one pass: the range
    top, then one draw per stratum, every second one with the density."""
    drawn = [(poly, rng.randint(lo, hi)) for poly, strata in POWER_STRATA for lo, hi in strata]
    return [POWER_TOP] + [(poly, k, i % 2 == 0) for i, (poly, k) in enumerate(drawn)]


def power_system(base_poly: str, k: int, density: str | None) -> str:
    lines = _header(("t", "x"), ("u",), density)
    lines += ["F[u,t] = u;", f"F[u,x] = ({base_poly})^{k};", "Pi[u] = 0;"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _lib_jobs(key: str, commands=ANALYSES, **extra) -> list:
    return [dict(system=key, command=c, format=f, **extra) for c in commands for f in FORMATS]


def ladder_workload(seed: int) -> dict:
    """Seeded systems over the size ladder; every job runs in-process."""
    rng = random.Random(seed)
    systems, sections, jobs = {}, {}, []
    for r, (rung, count) in enumerate(zip(LADDER, LADDER_SYSTEMS)):
        n, m = rung[0], rung[1]
        for s in range(count):
            key = f"rung{r + 1}.{s}"
            systems[key] = ladder_system(rng, rung)
            sections[key] = section_text(rng, n, m)
            systems[key + ".zero"] = ladder_system(rng, rung, order=0)
            systems[key + ".higher"] = higher_system(rng, rung)
            jobs += _lib_jobs(key)
            jobs += _lib_jobs(key + ".zero", ("hyperbolic",), at=point(rng, n, m))
            jobs += _lib_jobs(key, ("verify",), section=key)
            jobs += _lib_jobs(key + ".higher", ("higher",))
    return {"kind": "lib", "systems": systems, "sections": sections, "jobs": jobs}


def powers_workload(seed: int) -> dict:
    """Compact-power fluxes expanded by the parser; five of the eight
    systems carry the density 1 + x^2.  The range top comes first in a pass,
    so that in a run of less than two passes its jobs, among the largest, get
    a second repetition."""
    rng = random.Random(seed)
    systems, jobs = {}, []
    for poly, k, with_density in power_exponents(rng):
        density = DENSITY if with_density else None
        key = f"({poly})^{k}" + (" rho=1+x^2" if density else "")
        systems[key] = power_system(poly, k, density)
        jobs += _lib_jobs(key)
    return {"kind": "lib", "systems": systems, "sections": {}, "jobs": jobs}


# Catalog jobs that must exit 2, with the diagnostic code they must print.
CATALOG_ERRORS = {
    **{("biharmonic.bal", c): "invalid-system" for c in COMMANDS if c != "higher"},
    ("burgers.bal", "hyperbolic"): "order-too-high",
    ("filtration.bal", "hyperbolic"): "order-too-high",
    ("kdv.bal", "hyperbolic"): "order-too-high",
    ("godunov_pair.bal", "verify"): "undeclared-name",
    ("hyperelastic.bal", "verify"): "undeclared-name",
    ("plasticity.bal", "verify"): "parse",
}
CATALOG_SECTION = "systems/burgers_constant.sec"


def catalog_workload(seed: int, root: Path) -> dict:
    """Every bundled system x every command x every format, run through the
    command line; the seed draws the `hyperbolic --at` points."""
    rng = random.Random(seed)
    systems, jobs = {}, []
    for path in sorted((root / "systems").glob("*.bal")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        systems[rel] = text
        decl = read_bal(text)
        at = point(rng, len(decl["base"]), len(decl["fields"]))
        for command in COMMANDS:
            code = CATALOG_ERRORS.get((path.name, command))
            for fmt in FORMATS:
                argv = [command, rel, "--format", fmt]
                job = dict(system=rel, command=command, format=fmt, argv=argv,
                           expect=[2 if code else 0, code])
                if command == "hyperbolic":
                    argv.append(f"--at={at}")  # a leading '-' is not an option
                    job["at"] = at
                if command == "verify":
                    argv += ["--section", CATALOG_SECTION]
                    job["section"] = CATALOG_SECTION
                jobs.append(job)
    sections = {CATALOG_SECTION: (root / CATALOG_SECTION).read_text(encoding="utf-8")}
    return {"kind": "cli", "systems": systems, "sections": sections, "jobs": jobs}


WORKLOADS = {
    "catalog_cli": catalog_workload,
    "ladder_lib": lambda seed, root: ladder_workload(seed),
    "powers_lib": lambda seed, root: powers_workload(seed),
}


def read_bal(text: str) -> dict:
    """A small reader of system files, independent of the program's parser:
    the chart names, the density text and the flux and source expression
    texts keyed by (field, coordinate run) and field."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    decl = {"base": (), "fields": (), "density": None, "fluxes": {}, "sources": {}}
    for statement in body.split(";"):
        statement = " ".join(statement.split())
        if not statement:
            continue
        head, _, rest = statement.partition(" ")
        if head in ("base", "fields"):
            decl[head] = tuple(rest.split())
        elif head == "density":
            decl["density"] = rest
        elif statement.startswith("F["):
            target, expr = statement.split("=", 1)
            field, coords = target.strip()[2:-1].split(",")
            decl["fluxes"][(field.strip(), coords.strip())] = expr.strip()
        elif statement.startswith("Pi["):
            target, expr = statement.split("=", 1)
            decl["sources"][target.strip()[3:-1].strip()] = expr.strip()
    return decl
