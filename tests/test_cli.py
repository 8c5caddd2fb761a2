"""Declaration language, report pipeline, renderers and exit codes."""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from jetbalance import Chart, EngineError, Form, Poly, cli, form_text, poly_text
from jetbalance.symcore import suffix
from jetbalance.cli import (
    DuplicateRelationError,
    NumberTooLongError,
    ParseError,
    UndeclaredNameError,
    _latex_leaf,
    _parse_point,
    main,
    parse_section,
    parse_system,
    render,
    render_system,
    run,
)

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "latex", "structured")

BURGERS = "base t x; fields u; F[u,t]=u; F[u,x]=-(u^2/2+u_x); Pi[u]=0"
PLASTICITY = (
    "base xi eta; fields u v; F[u,xi]=u; F[v,eta]=v; Pi[u]=-1/2*v; Pi[v]=-1/2*u"
)
KDV = "base t x; fields u; F[u,t]=u; F[u,x]=3*u^2+u_xx; Pi[u]=0"


class TestParsing:
    def test_burgers(self):
        doc = parse_system(BURGERS)
        chart = doc.chart
        assert chart.base_names == ("t", "x") and chart.field_names == ("u",)
        u = chart.field(0)
        zx = chart.jet(0, (0, 1))
        bs = doc.to_balance_system()
        assert bs.flux(0, 0) == u
        assert bs.flux(0, 1) == -(u**2 / 2 + zx)
        assert bs.source(0).is_zero

    def test_plasticity(self):
        doc = parse_system(PLASTICITY)
        chart = doc.chart
        v = chart.field(1)
        bs = doc.to_balance_system()
        assert bs.flux(0, 0) == chart.field(0)
        assert bs.source(0) == -v / 2

    def test_empty_expression_position(self):
        with pytest.raises(ParseError) as err:
            parse_system("base t x; fields u; F[u,t]=")
        assert err.value.line == 1
        assert err.value.col == 28

    def test_undeclared_name(self):
        with pytest.raises(UndeclaredNameError):
            parse_system("base t x; fields u; F[u,t]=w")

    def test_duplicate_relation(self):
        with pytest.raises(DuplicateRelationError):
            parse_system("base t x; fields u; F[u,t]=u; F[u,t]=2*u")

    @pytest.mark.parametrize("twice", ["density 1 + x^2; density 1;", 'title "a"; title "b";'])
    def test_density_and_title_once(self, twice):
        """A second density or title is an error located at the second
        statement, not silently taken in place of the first."""
        with pytest.raises(DuplicateRelationError) as err:
            parse_system(f"base x; fields u;\n{twice}\nF[u,x]=u")
        second = twice.rindex(twice.split()[0])
        assert (err.value.line, err.value.col) == (2, second + 1)

    def test_notes_repeat(self):
        doc = parse_system('base x; fields u; note "a"; note "b"; F[u,x]=u')
        assert doc.notes == ("a", "b")

    def test_multiletter_coordinate_suffix(self):
        doc = parse_system("base xi eta; fields u v; F[u,xi]=u_xieta; Pi[u]=0")
        assert doc.fluxes[(0, (1, 0))] == doc.chart.jet(0, (1, 1))

    @pytest.mark.parametrize("base, suffix, counts", [
        ("xy x yz", "xyz", (0, 1, 1)),  # xy leaves z, which no name reads
        ("xy x yz", "xyx", (1, 1, 0)),
        ("ab a bc c", "abc", (1, 0, 0, 1)),  # the longest reading still wins
        ("a aa aaa", "aaaaa", (0, 1, 1)),
    ])
    def test_suffix_backs_up_to_a_shorter_name(self, base, suffix, counts):
        doc = parse_system(f"base {base}; fields u; F[u,{suffix}] = u_{suffix};")
        assert doc.fluxes == {(0, counts): doc.chart.jet(0, counts)}
        numeric = f"d(u; {','.join(map(str, counts))})"
        numeric = parse_system(f"base {base}; fields u; F[u,{suffix}] = {numeric};")
        assert numeric == doc and parse_system(render_system(doc)) == doc

    def test_unsplittable_suffix(self, tmp_path, capsys):
        """Each position is given up once, so a long suffix that no run of
        names reads fails at once."""
        bad = tmp_path / "long.bal"
        bad.write_text("base a aa aaa; fields u; F[u,a] = u_" + "a" * 5000 + "b;")
        assert main(["equations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[parse]: cannot segment derivative suffix 'aaa")
        assert err.endswith("ab' into base coordinates at line 1, col 35\n")

    def test_numeric_jet_form(self):
        doc = parse_system("base t x; fields u; F[u,t]=d(u; 0,2); Pi[u]=0")
        assert doc.fluxes[(0, (1, 0))] == doc.chart.jet(0, (0, 2))

    def test_higher_order_bracket(self):
        doc = parse_system("base x; fields u; F[u,xx]=u_xx")
        assert doc.fluxes == {(0, (2,)): doc.chart.jet(0, (2,))}
        assert doc.has_higher_entries

    def test_density_statement(self):
        doc = parse_system("base x; fields u; density x^2+1; F[u,x]=u")
        x = doc.chart.x(0)
        assert doc.chart.rho == x**2 + 1

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_system("base t x; fields u; F[u,t]=1/u")

    def test_metadata(self):
        doc = parse_system('base x; fields u; title "demo"; note "a note"; F[u,x]=u')
        assert doc.title == "demo" and doc.notes == ("a note",)


class TestRoundTrip:
    def test_bundled_files(self):
        for path in sorted(SYSTEMS.glob("*.bal")):
            doc = parse_system(path.read_text())
            assert parse_system(render_system(doc)) == doc

    def test_random_documents(self):
        rng = random.Random(97)
        chart = Chart(("t", "x"), ("u", "v"))
        from conftest import random_system

        for _ in range(10):
            bs = random_system(rng, chart)
            lines = ["base t x;", "fields u v;"]
            for i in range(2):
                for mu, cname in enumerate(("t", "x")):
                    if not bs.F[i][mu].is_zero:
                        lines.append(
                            f"F[{chart.field_names[i]},{cname}] = {poly_text(bs.F[i][mu], chart)};"
                        )
                if not bs.Pi[i].is_zero:
                    lines.append(f"Pi[{chart.field_names[i]}] = {poly_text(bs.Pi[i], chart)};")
            doc = parse_system("\n".join(lines))
            assert parse_system(render_system(doc)) == doc

    def test_notes_and_title(self):
        doc = parse_system('base x; fields u; note "b c"; title "t"; note "a"; F[u,x]=u')
        text = render_system(doc)
        assert text == 'base x;\nfields u;\ntitle "t";\nnote "b c";\nnote "a";\nF[u,x] = u;\n'
        assert parse_system(text) == doc


class TestCommands:
    def test_equations_text_lines(self):
        report = run("equations", parse_system(PLASTICITY))
        text = render(report, "text").decode()
        assert "R1: u_xi + 1/2 v" in text
        assert "R2: v_eta + 1/2 u" in text

    def test_check_plasticity(self):
        report = run("check", parse_system(PLASTICITY))
        godunov = report.sections["godunov"]
        assert report.sections["helmholtz"]["closed"] is False
        assert godunov["applicable"] is True
        assert godunov["verdict"] is False
        assert godunov["pairing_constant"] is None
        assert not report.has_error

    def test_check_burgers_runs_clean(self):
        report = run("check", parse_system(BURGERS))
        assert not report.has_error
        godunov = report.sections["godunov"]
        assert godunov["applicable"] is False and godunov["verdict"] is False

    def test_decompose_burgers(self):
        report = run("decompose", parse_system(BURGERS))
        section = report.sections["quasi_lagrangian"]
        chart = report.doc.chart
        assert poly_text(section["value"], chart) == "-1/6 u^2 u_x + 1/2 u u_t - 1/2 u_x^2"
        el = report.sections["f_split"]["euler_lagrange_components"]["u"]
        assert poly_text(el, chart) == "u_xx"

    def test_verify_constant_section(self):
        report = run("verify", parse_system(BURGERS), section_text="u = 5;")
        assert report.sections["section_check"]["solves"] is True

    def test_verify_linear_section(self):
        report = run("verify", parse_system(BURGERS), section_text="u = x;")
        section = report.sections["section_check"]
        chart = report.doc.chart
        assert section["solves"] is False
        assert section["residuals"]["u"] == -chart.x(1)

    def test_hyperbolic_order_too_high(self):
        report = run("hyperbolic", parse_system(BURGERS), at=[0, 0, 1])
        assert report.has_error
        assert report.sections["hyperbolicity"]["error"]["code"] == "order-too-high"

    def test_hyperbolic_definite_pair(self):
        doc = parse_system((SYSTEMS / "godunov_pair.bal").read_text())
        report = run("hyperbolic", doc, at=[0, 0, 1, 2])
        section = report.sections["hyperbolicity"]
        assert section["verdict"] is True and section["singular"] is False

    def test_higher_biharmonic(self):
        doc = parse_system((SYSTEMS / "biharmonic.bal").read_text())
        report = run("higher", doc)
        chart = doc.chart
        assert report.sections["higher_order"]["residuals"]["u"] == -chart.jet(0, (4,))

    def test_higher_reduces_to_first_order(self):
        doc = parse_system(BURGERS)
        from jetbalance import balance_residuals

        report = run("higher", doc)
        expected = balance_residuals(doc.to_balance_system())
        assert report.sections["higher_order"]["residuals"]["u"] == expected[0]


class TestRendering:
    def test_structured_idempotent_bytes(self):
        doc = parse_system(PLASTICITY)
        once = render(run("check", doc), "structured")
        twice = render(run("check", doc), "structured")
        assert once == twice

    def test_structured_schema_keys(self):
        payload = json.loads(render(run("equations", parse_system(BURGERS)), "structured"))
        assert sorted(payload) == ["analyses", "footnotes", "system"]
        assert payload["system"]["fields"] == ["u"]

    def test_latex_kdv_flux_divergence(self):
        report = run("decompose", parse_system(KDV))
        latex = render(report, "latex").decode()
        assert "\\frac{1}{3} u^{3}" in latex
        assert "d_{x}" in latex

    def test_latex_compilable_tokens(self):
        latex = render(run("equations", parse_system(PLASTICITY)), "latex").decode()
        assert "\\xi" in latex and "u_{\\xi}" in latex

    def test_latex_text_mode_labels_and_strings(self):
        doc = parse_system((SYSTEMS / "godunov_pair.bal").read_text(encoding="utf-8"))
        latex = render(run("hyperbolic", doc, at=[0, 0, 1, 2]), "latex").decode()
        assert "\\text{leading\\_minors}" in latex and "\\text{matrices[t]} = " in latex
        assert _latex_leaf("a_b & 50% ~{x}$ #^\\", None) == (
            "\\text{a\\_b \\& 50\\% \\~{}\\{x\\}\\$ \\#\\^{}\\textbackslash{}}"
        )

    def test_footnotes_attached_on_decompose(self):
        report = run("decompose", parse_system(BURGERS))
        assert len(report.footnotes) == 2


class TestRenderIsolation:
    """Each render keys and names its monomials in a term table of its own:
    reports of different charts, rendered in turn or at once, give the bytes
    of the golden reports, which were each rendered alone."""

    PAIR = ("burgers", "plasticity")  # charts (t x; u) and (xi eta; u v)

    @staticmethod
    def _golden(name: str, command: str, fmt: str) -> bytes:
        record = (GOLDEN / f"{name}.{command}.{fmt}.txt").read_text(encoding="utf-8")
        return record.split("--- stdout\n", 1)[1].encode("utf-8")

    def _reports(self, command: str) -> dict:
        return {
            name: run(command, parse_system((SYSTEMS / f"{name}.bal").read_text(encoding="utf-8")))
            for name in self.PAIR
        }

    @pytest.mark.parametrize("command", ["equations", "decompose"])
    def test_alternating_charts_render_as_alone(self, command):
        reports = self._reports(command)
        for _ in range(2):
            for fmt in FORMATS:
                for name in self.PAIR:
                    assert render(reports[name], fmt) == self._golden(name, command, fmt)

    def test_threads_render_as_alone(self):
        """Two threads per report render it in every format at once."""
        reports = self._reports("decompose")
        names = self.PAIR * 2
        results: list = [[] for _ in names]

        def work(name, out):
            for _ in range(2):
                for fmt in FORMATS:
                    out.append((fmt, render(reports[name], fmt)))

        threads = [threading.Thread(target=work, args=args) for args in zip(names, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name, out in zip(names, results):
            assert [fmt for fmt, _ in out] == list(FORMATS) * 2  # no render raised
            for fmt, payload in out:
                assert payload == self._golden(name, "decompose", fmt)

    @pytest.mark.parametrize("path", sorted(SYSTEMS.glob("*.bal")), ids=lambda p: p.stem)
    def test_standalone_text_matches_the_structured_report(self, path):
        """Every polynomial and form of a report, rendered alone, reads as it
        does in the structured report, where it shares the render's table."""
        doc = parse_system(path.read_text(encoding="utf-8"))
        chart = doc.chart
        compared = 0
        for command in ("equations", "check", "decompose", "higher"):
            try:
                report = run(command, doc)
            except EngineError:
                continue
            payload = json.loads(render(report, "structured"))
            for (i, counts), p in doc.fluxes.items():
                flux = payload["system"]["fluxes"][chart.field_names[i]]
                assert flux[suffix(chart.base_names, counts)] == poly_text(p, chart)
            for section, content in report.sections.items():
                rendered = payload["analyses"][section]
                for key, value in content.items():
                    pairs = [(value, rendered[key])]
                    if isinstance(value, dict):
                        pairs = [(v, rendered[key][sub]) for sub, v in value.items()]
                    elif isinstance(value, (list, tuple)):
                        pairs = list(zip(value, rendered[key]))
                    for v, text in pairs:
                        if isinstance(v, Poly):
                            assert text == poly_text(v, chart)
                            compared += 1
                        elif isinstance(v, Form):
                            assert text == form_text(v)
                            compared += 1
        assert compared

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_number_too_long_leaves_no_table_behind(self, fmt):
        """A report coefficient past the int-string digit limit stops the
        render with `number-too-long`; the next render is unaffected."""
        big = run("equations", parse_system("base t x; fields u; F[u,t] = 2^15000 u;"))
        with pytest.raises(NumberTooLongError):
            render(big, fmt)
        report = self._reports("equations")["burgers"]
        assert render(report, fmt) == self._golden("burgers", "equations", fmt)


class TestMain:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            [
                "equations",
                str(SYSTEMS / "burgers.bal"),
                "--format",
                "structured",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert "analyses" in payload

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bal"
        bad.write_text("base t x; fields u; F[u,t]=")
        assert main(["equations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error[parse]" in err

    def test_exit_two_on_missing_file(self, capsys):
        assert main(["equations", "/nonexistent/system.bal"]) == 2

    def test_exit_two_on_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        assert main(["equations", str(SYSTEMS / "burgers.bal"), "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ") and "Traceback" not in err
        assert not target.exists()

    def test_exit_two_on_duplicate_density(self, tmp_path, capsys):
        twice = tmp_path / "twice.bal"
        twice.write_text("base x; fields u; density 1 + x^2; density 1; F[u,x] = u;")
        assert main(["equations", str(twice)]) == 2
        assert capsys.readouterr().err == (
            "error[duplicate-relation]: duplicate density statement at line 1, col 36\n"
        )

    def test_exit_two_on_inapplicable_hyperbolic(self, capsys):
        code = main(["hyperbolic", str(SYSTEMS / "burgers.bal"), "--at", "0,0,1"])
        assert code == 2
        assert "order-too-high" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "at, code", [("0,0,1e5", 2), ("0,0,2E-3", 2), ("0, -1/2, 1.25", 0), (" +1., .5 ,-3 ", 0)]
    )
    def test_point_forms(self, tmp_path, capsys, at, code):
        """`--at` reads signed ASCII integers, p/q and decimals, and refuses an
        exponent, which `Fraction` would expand digit by digit before any
        check.  Other digits are refused in `FRONT_END_ERRORS`."""
        system = tmp_path / "quadratic.bal"
        system.write_text("base t x; fields u; F[u,t] = u^2; F[u,x] = u;")
        assert main(["hyperbolic", str(system), "--at", at]) == code
        err = capsys.readouterr().err
        assert err.startswith("error[invalid-system]: --at takes") if code else err == ""

    def test_exit_two_on_too_long_coefficient(self, tmp_path, capsys):
        """A coefficient past the int-string digit limit is a coded error."""
        big = tmp_path / "big.bal"
        big.write_text("base t x; fields u; F[u,t] = 2^15000 u;")
        assert main(["equations", str(big)]) == 2
        assert capsys.readouterr().err.startswith("error[number-too-long]")

    @pytest.mark.parametrize("fmt", ["text", "latex", "structured"])
    def test_exit_two_on_too_long_report_number(self, tmp_path, capsys, fmt):
        """A leading minor past the int-string digit limit, in every format."""
        system = tmp_path / "quartic.bal"
        system.write_text("base t x; fields u; F[u,t] = u^4; F[u,x] = u;")
        at = "0,0,1" + "0" * 3000
        assert main(["hyperbolic", str(system), "--at", at, "--format", fmt]) == 2
        assert capsys.readouterr().err.startswith("error[number-too-long]")

    NOT_UTF8 = b'base t x; fields u; title "a\xffb"; F[u,t] = u;\n'

    def test_exit_two_on_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.bal"
        bad.write_bytes(self.NOT_UTF8)
        assert main(["equations", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error[encoding]: {bad} is not UTF-8: byte 0xff at offset 28\n")

    def test_exit_two_on_stdin_not_utf8(self, monkeypatch, capsys):
        # a terminal or C-locale stdin reads undecodable bytes as surrogates
        stdin = io.TextIOWrapper(io.BytesIO(self.NOT_UTF8), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["equations", "-"]) == 2
        assert capsys.readouterr().err == (
            "error[encoding]: standard input is not UTF-8: byte 0xff at offset 28\n")

    def test_exit_three_on_internal_error(self, monkeypatch, capsys):
        import jetbalance.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("forced invariant violation")

        monkeypatch.setattr(cli_mod, "run", boom)
        assert cli_mod.main(["equations", str(SYSTEMS / "burgers.bal")]) == 3
        assert "error[internal]" in capsys.readouterr().err

    def test_verify_via_main(self, tmp_path, capsys):
        section = tmp_path / "constant.sec"
        section.write_text("u = 4;\n")
        code = main(
            ["verify", str(SYSTEMS / "burgers.bal"), "--section", str(section)]
        )
        assert code == 0
        assert "solves: true" in capsys.readouterr().out

    def test_subprocess_determinism(self):
        cmd = [
            sys.executable,
            "-m",
            "jetbalance.cli",
            "decompose",
            str(SYSTEMS / "plasticity.bal"),
            "--format",
            "structured",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0

    def test_import_surface(self):
        """`import jetbalance.cli` adds none of the modules that `dataclasses`
        pulls in to a fresh interpreter.  The probe compares against the
        interpreter's own start-up, so a `site` that preloads modules does
        not count."""
        probe = (
            "import sys; before = set(sys.modules); import jetbalance.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        path = [str(Path(cli.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env).stdout
        added = set(out.split())
        assert "jetbalance.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


class TestRobustness:
    MALFORMED = [
        "",
        "base;",
        "fields u;",
        "base t x; fields u; F[u]=u",
        "base t x; fields u; F[u,t]=u_y",
        "base t x; fields u; F[u,t]=u^",
        "base t x; fields u; F[u,t]=((u)",
        "base t x; fields u; Pi[u]=1/0",
        "base t x; fields u; F[u,t]=d(u; 1)",
        "base t x; fields u_t; F[u_t,t]=1",
        'base t x; fields u; title unquoted;',
        "base t x; fields u; density u;",
        "base t x; fields u; ?",
        "base t x x; fields u;",
    ]

    def test_parse_never_crashes(self, tmp_path, capsys):
        from jetbalance import EngineError

        for source in self.MALFORMED:
            with pytest.raises(EngineError):
                parse_system(source)
            bad = tmp_path / "bad.bal"
            bad.write_text(source)
            assert main(["equations", str(bad)]) == 2
            capsys.readouterr()

    def test_deep_nesting(self, tmp_path, capsys):
        head = "base t x; fields u;\nF[u,x] = "
        bad = tmp_path / "deep.bal"
        bad.write_text(head + "(" * 5000 + "u" + ")" * 5000 + ";\n")
        assert main(["equations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[parse]: parentheses nested deeper than")
        assert "at line 2, col 110" in err  # the 101st parenthesis

        signs = tmp_path / "signs.bal"
        for count, residual in ((5000, "R1: u_x"), (5001, "R1: -u_x")):
            signs.write_text(head + "-" * count + "u;\n")
            assert main(["equations", str(signs)]) == 0
            assert residual in capsys.readouterr().out

        nested = tmp_path / "nested.bal"
        nested.write_text(head + "(" * 100 + "-u" + ")" * 100 + ";\n")
        assert main(["equations", str(nested)]) == 0
        assert "R1: -u_x" in capsys.readouterr().out

    @pytest.mark.parametrize("char", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
    def test_non_ascii_digit(self, tmp_path, capsys, char):
        bad = tmp_path / "digit.bal"
        bad.write_text(f"base t x;\nfields u;\nF[u,t] = u^{char};\n", encoding="utf-8")
        assert main(["equations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"error[parse]: unexpected character {char!r} at line 3, col 12\n"

    @pytest.mark.parametrize(
        "statement, col",
        [("F[u,t] = {} u;", 10), ("F[u,t] = u^{};", 12), ("F[u,t] = d(u; 0, {});", 18)],
        ids=["literal", "exponent", "count"],
    )
    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys, statement, col):
        """CPython converts at most 4300 digits by default; a longer literal is
        an input error, located at its first digit."""
        bad = tmp_path / "long.bal"
        bad.write_text("base t x;\nfields u;\n" + statement.format("1" * 5000) + "\n")
        assert main(["equations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"error[parse]: integer literal of 5000 digits is too long at line 3, col {col}\n"

    def test_comment_at_end_of_input(self):
        """A comment that runs to the end of the input is skipped whole."""
        assert parse_system(BURGERS + " # tail") == parse_system(BURGERS)

    @pytest.mark.parametrize("tail", ["", "@"])
    def test_trailing_blanks_scan_in_linear_time(self, tail):
        """A scan that could split a run of blanks in many ways would take
        seconds on 30 of them before it reports or accepts the text."""
        text = BURGERS + " " * 30 + tail
        start = time.perf_counter()
        if tail:
            with pytest.raises(ParseError, match="unexpected character '@'"):
                parse_system(text)
        else:
            assert parse_system(text) == parse_system(BURGERS)
        assert time.perf_counter() - start < 0.5


class TestFrontEndFuzz:
    """Seeded mutations of the bundled systems, run through `main` with
    random commands and formats."""

    PIECES = list("atxuvd_019 \t\r\n#\"@;,=+-*/^()[]\u00e9") + [
        "u_x", "d(u; 1, 0)", "F[u,t]", "Pi[u]", "density ", "title ", "^2", "/0", "/(1)", " # c",
    ]
    LOCATED = ("error[parse]", "error[undeclared-name]", "error[duplicate-relation]")

    @classmethod
    def _mutate(cls, rng: random.Random, text: str) -> str:
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.random()
            if op < 0.5:
                text = text[:i] + rng.choice(cls.PIECES) + text[i:]
            elif op < 0.8:
                text = text[:i] + text[i + rng.randint(1, 6):]
            else:
                text = text[:i]
        return text

    @staticmethod
    def _points_into(text: str, row: int, col: int) -> bool:
        """A located error points at a character of the text that is not a
        blank, or one past its end."""
        lines = text.split("\n")
        if not (1 <= row <= len(lines) and 1 <= col <= len(lines[row - 1]) + 1):
            return False
        offset = sum(len(line) + 1 for line in lines[: row - 1]) + col - 1
        return offset == len(text) or text[offset] not in " \t\n"

    def test_mutated_systems_exit_zero_or_two(self, tmp_path, capsys):
        """Every run exits 0 or 2, every exit 2 prints `error[code]`, and
        every parse error names a line and column inside the text it read
        (the system, or for `verify` perhaps the section), or one past its
        end at end of input."""
        rng = random.Random(21)
        texts = [path.read_text() for path in sorted(SYSTEMS.glob("*.bal"))]
        section = SYSTEMS / "burgers_constant.sec"
        target = tmp_path / "mutant.bal"
        for _ in range(250):
            text = self._mutate(rng, rng.choice(texts))
            target.write_bytes(text.encode("utf-8"))
            command, fmt = rng.choice(sorted(cli._COMMANDS)), rng.choice(FORMATS)
            argv = [command, str(target), "--format", fmt]
            read = [text.replace("\r\n", "\n").replace("\r", "\n")]
            if command == "hyperbolic":
                argv += ["--at", "0,0,1"]
            if command == "verify":
                argv += ["--section", str(section)]
                read.append(section.read_text())
            status = main(argv)
            err = capsys.readouterr().err
            assert status in (0, 2), (text, argv, err)
            if status == 2:
                assert re.search(r"^error\[[a-z-]+\]: ", err, re.M), (text, argv, err)
            for line in err.splitlines():
                where = re.search(r" at line (\d+), col (\d+)(?: \(expected .*\))?$", line)
                if line.startswith(self.LOCATED):
                    assert where, (text, line)
                if where:
                    row, col = int(where[1]), int(where[2])
                    assert any(self._points_into(t, row, col) for t in read), (text, line)


def _section_of_burgers(text: str):
    return lambda: parse_section(text, parse_system(BURGERS))


# name -> (call, code, message, line, col): front-end errors and where they point
FRONT_END_ERRORS = {
    "string-at-newline": (
        lambda: parse_system('base x; fields u;\ntitle "ab\n";'),
        "parse", "unterminated string", 2, 7,
    ),
    "string-at-eof": (
        lambda: parse_system('base x; fields u;\ntitle "ab'), "parse", "unterminated string", 2, 7,
    ),
    "empty-suffix": (
        lambda: parse_system("base t x; fields u; F[u,]=u"),
        "parse", "expected a coordinate suffix", 1, 25,
    ),
    "unknown-suffix": (
        lambda: parse_system("base t x; fields u; F[u,q]=u"),
        "parse", "cannot read 'q' as a run of base coordinates", 1, 25,
    ),
    "flux-field": (
        lambda: parse_system("base t x; fields u; F[w,t]=u"),
        "undeclared-name", "undeclared field 'w'", 1, 23,
    ),
    "source-field": (
        lambda: parse_system("base t x; fields u; Pi[w]=0"),
        "undeclared-name", "undeclared field 'w'", 1, 24,
    ),
    "section-field": (
        _section_of_burgers("u = 1;\nw = 2;"), "undeclared-name", "undeclared field 'w'", 2, 1,
    ),
    "missing-semicolon": (
        lambda: parse_system('base t x; fields u; title "a" F[u,t]=u'), "parse", "expected ';'", 1, 31,
    ),
    "jet-in-density": (
        lambda: parse_system("base t x; fields u; density d(u; 1);"),
        "parse", "jet variables are not allowed in this expression", 1, 29,
    ),
    "jet-double-underscore": (
        lambda: parse_system("base t x; fields u; F[u,t]=u__x"),
        "parse", "malformed jet token 'u__x'", 1, 28,
    ),
    "jet-empty-suffix": (
        lambda: parse_system("base t x; fields u; F[u,t]=u_"),
        "parse", "malformed jet token 'u_'", 1, 28,
    ),
    "no-fields": (
        lambda: parse_system("base t x;\nF[u,t]=u"),
        "parse", "the 'fields' declaration must follow 'base'", 2, 1,
    ),
    "empty-fields": (
        lambda: parse_system("base t x;\nfields;"), "parse", "at least one field is required", 2, 7,
    ),
    "statement-not-a-name": (
        lambda: parse_system("base t x; fields u; 3;"), "parse", "expected a statement", 1, 21,
    ),
    "unknown-statement": (
        lambda: parse_system("base t x; fields u; G[u,t]=u"), "parse", "unknown statement 'G'", 1, 21,
    ),
    "zero-density": (
        lambda: parse_system("base t x; fields u; density 0;"),
        "parse", "the density must be a nonzero polynomial", 1, 21,
    ),
    "duplicate-section-entry": (
        _section_of_burgers("u = 1;\nu = 2;"),
        "duplicate-relation", "duplicate section entry for 'u'", 2, 1,
    ),
    "underscore-in-declared-name": (
        lambda: parse_system("base t x;\nfields u v_1;"),
        "parse", "declared name 'v_1' contains '_', which is reserved for jet tokens", 2, 10,
    ),
    "d-declared-as-base": (
        lambda: parse_system("base t d;\nfields u;"),
        "parse", "declared name 'd' is reserved for the explicit derivative form", 1, 8,
    ),
    "d-declared-as-field": (
        lambda: parse_system("base t x;\nfields u d;"),
        "parse", "declared name 'd' is reserved for the explicit derivative form", 2, 10,
    ),
    "repeated-declared-name": (
        lambda: parse_system("base t x;\nfields u x;"), "parse", "chart names must be distinct", 2, 10,
    ),
    "section-misses-fields": (
        lambda: parse_section("v = 1;\n", parse_system("base t x; fields u v w;")),
        "parse", "section misses fields: u, w", 2, 1,
    ),
    "comment-at-end-of-input": (
        lambda: parse_system("base t x; fields u; F[u,t] = # c"),
        "parse", "expected an expression", 1, 30,
    ),
    "character-after-tabs": (
        lambda: parse_system("base t x; fields u; F[u,t] =\t\t@"),
        "parse", "unexpected character '@'", 1, 31,
    ),
    "suffix-after-carriage-return": (
        lambda: parse_system("base t x;\r fields u; F[u,t] = u u_q"),
        "parse", "cannot segment derivative suffix 'q' into base coordinates", 1, 33,
    ),
    "derivative-count-past-budget": (
        lambda: parse_system("base t x; fields u; F[u,t] = d(u; 65536, 0);"),
        "parse", "derivative order 65536 exceeds the budget of 65535", 1, 35,
    ),
    "derivative-counts-past-budget": (
        lambda: parse_system("base t x; fields u; F[u,t] = d(u; 40000, 30000);"),
        "parse", "derivative order 70000 exceeds the budget of 65535", 1, 42,
    ),
    "jet-suffix-past-budget": (
        lambda: parse_system("base t x; fields u; F[u,t] = u u_" + "x" * 65536 + ";"),
        "parse", "derivative order 65536 exceeds the budget of 65535", 1, 32,
    ),
    "flux-coordinates-past-budget": (
        lambda: parse_system("base t x; fields u; F[u," + "t" * 65536 + "] = u;"),
        "parse", "derivative order 65536 exceeds the budget of 65535", 1, 25,
    ),
    "unknown-command": (
        lambda: run("solve", parse_system(BURGERS)), "invalid-system", "unknown command 'solve'", None, None,
    ),
    "unknown-format": (
        lambda: render(run("equations", parse_system(BURGERS)), "pdf"),
        "invalid-system", "unknown format 'pdf'", None, None,
    ),
    "unreadable-point": (
        lambda: _parse_point("0,a"),
        "invalid-system", "cannot read rational coordinates from '0,a'", None, None,
    ),
    "exponent-in-point": (
        lambda: _parse_point("0,1e5"),
        "invalid-system", "--at takes integers, p/q or decimals, not exponents: '0,1e5'", None, None,
    ),
    "capital-exponent-in-point": (
        lambda: _parse_point("2E-3"),
        "invalid-system", "--at takes integers, p/q or decimals, not exponents: '2E-3'", None, None,
    ),
    "arabic-indic-digit-in-point": (
        lambda: _parse_point("0,0,\u0663"),
        "invalid-system", "cannot read rational coordinates from '0,0,\u0663'", None, None,
    ),
    "fullwidth-digit-in-point": (
        lambda: _parse_point("0,0, \uff13"),
        "invalid-system", "cannot read rational coordinates from '0,0, \uff13'", None, None,
    ),
    "underscore-in-point": (
        lambda: _parse_point("0,0,1_000"),
        "invalid-system", "cannot read rational coordinates from '0,0,1_000'", None, None,
    ),
}


class TestDiagnostics:
    @pytest.mark.parametrize("name", FRONT_END_ERRORS)
    def test_code_message_and_location(self, name):
        call, code, message, line, col = FRONT_END_ERRORS[name]
        with pytest.raises(EngineError) as err:
            call()
        exc = err.value
        assert (exc.code, exc.args[0], getattr(exc, "line", None), getattr(exc, "col", None)) == (
            code, message, line, col,
        )


class TestSectionFiles:
    def test_section_requires_all_fields(self):
        doc = parse_system(PLASTICITY)
        with pytest.raises(ParseError):
            parse_section("u = 0;", doc)

    def test_section_rejects_jets(self):
        doc = parse_system(BURGERS)
        with pytest.raises(ParseError):
            parse_section("u = u_x;", doc)

    def test_section_parses_base_polynomials(self):
        doc = parse_system(BURGERS)
        values = parse_section("u = t^2 - 3*x;", doc)
        chart = doc.chart
        assert values == [chart.x(0) ** 2 - 3 * chart.x(1)]
