"""Command-line interface: exit codes, pinned output, JSON reports."""

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import keller.cli as cli_module
import keller.groebner as groebner_module
from keller.cli import main
from keller.errors import MembershipFailedError
from keller.tame import random_tame


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the tame recipe of (x, y + x^2), first step first
_SHEAR_CERTIFICATE = [
    {"kind": "Affine", "a": "1", "b": "0", "c": "0", "d": "1", "e": "0", "f": "0"},
    {"kind": "ElementaryX", "coeff": "1", "power": 2},
]

# non-Keller maps whose lex tag basis has ever-growing coefficients
_STALL_MAPS = [
    ("3*y^3 + y^2 - x^2 - x^2*y^2", "y^3 + 1/2*x^2*y + 1/2*x*y^2 + 2*x^3*y"),
    ("x + x*y^2 + 3*x^3*y", "-y^3 + 1/2*x*y^2"),
]


class TestExitCodes:
    def test_completed_run_is_zero(self, capsys):
        code, _, _ = run(capsys, ["check", "-p", "x", "-q", "y + x^2"])
        assert code == 0

    def test_non_keller_verdict_still_zero(self, capsys):
        # a finished classification is a result, not a refusal
        code, out, _ = run(capsys, ["check", "-p", "x^2", "-q", "y"])
        assert code == 0
        assert "verdict = NotKellerNonConstantJacobian" in out

    def test_refused_inversion_is_one(self, capsys):
        code, _, err = run(capsys, ["invert", "-p", "x^2", "-q", "y"])
        assert code == 1
        assert "refused" in err

    def test_invert_refuses_over_the_spair_budget(self, capsys):
        # the tag basis that invert reads takes 3 S-pairs on seed 50
        f, _ = random_tame(50)
        argv = ["invert", "-p", str(f.p), "-q", str(f.q)]
        code, out, err = run(capsys, argv + ["--max-spairs", "2"])
        assert code == 1
        assert out == ""
        assert err.startswith("refused: S-pair budget 2 exhausted")
        code, out, _ = run(capsys, argv + ["--max-spairs", "3"])
        assert code == 0
        assert "verified = True" in out

    def test_degree_cap_refusal_is_one(self, capsys):
        code, out, _ = run(
            capsys, ["check", "-p", "x", "-q", "y + x^9", "--max-degree", "3"]
        )
        assert code == 1
        assert "verdict = Degenerate" in out
        assert "reason:" in out

    @pytest.mark.parametrize("stall", _STALL_MAPS, ids=["stall-1", "stall-2"])
    @pytest.mark.parametrize(
        "verb", [["uv"], ["member", "-w", "x"], ["check", "--force"]],
        ids=["uv", "member", "check-force"],
    )
    def test_coefficient_cap_refusal_is_one(self, capsys, stall, verb):
        # without the coefficient budget the lex tag basis of these maps
        # runs for minutes: its coefficients grow past 50,000 bits while
        # neither the S-pair nor the degree budget refuses
        p, q = stall
        start = time.perf_counter()
        code, out, err = run(capsys, verb + ["-p", p, "-q", q])
        assert time.perf_counter() - start < 30
        assert code == 1
        assert "coefficient exceeds the cap of 4096 bits" in err + out

    def test_parse_error_is_two(self, capsys):
        cases = [
            (["check", "-p", "x$", "-q", "y"], "unexpected character '$' (at position 1)"),
            # digits are ASCII, so a superscript two is no exponent
            (["factor", "-e", "x^\u00b2"], "unexpected character '\u00b2' (at position 2)"),
        ]
        for argv, message in cases:
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # expanding (x + y)^5000 took 29 s; refused at the '^'
            ("(x+y)^5000", "the power has degree 5000, above the cap of 1000 (at position 5)"),
            # degree 1000, but about 10^9 term products to expand
            ("(x+y+1)^1000", "takes over 2000000 term products (at position 7)"),
            ("3^40000000", "coefficients of up to 63398501 bits, above the cap of 1024"),
        ],
    )
    def test_power_past_a_cap_is_two(self, capsys, text, message):
        start = time.perf_counter()
        code, out, err = run(capsys, ["check", "-p", text, "-q", "y"])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # int() of more than 4300 digits raised ValueError here
            (["check", "-p", "7" * 4400 + "*x", "-q", "y"], "a numeral of 4400 digits"),
            # this parsed, and printing its 4800-digit coefficient raised
            (["factor", "-e", "*".join(["7" * 1200] * 4) + "*x"], "(at position 1201)"),
        ],
    )
    def test_long_numeral_is_two(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_unknown_variable_is_two(self, capsys):
        code, _, err = run(capsys, ["check", "-p", "x + w", "-q", "y"])
        assert code == 2
        assert "unknown variable 'w'" in err

    def test_missing_arguments_is_two(self, capsys):
        assert run(capsys, ["check"])[0] == 2

    def test_unknown_verb_is_two(self, capsys):
        code, _, err = run(capsys, ["probe-fc", "-p", "x", "-q", "y"])
        assert code == 2
        assert "invalid choice: 'probe-fc'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "-e", "0"],
            ["factor", "-e", "x*y*z", "--vars", "x,y,z"],
            ["units", "-p", "x", "-q", "y", "-v", "0"],
            ["gb", "-g", "x", "--order", "block:abc"],
            ["gb", "-g", "x", "--order", "block:"],
            ["gb", "-g", "0", "-g", "0*x"],
            ["factor", "-e", "x", "--vars", "x,x"],
            ["gb", "-g", "x", "--vars", "1a"],
            ["gen", "--steps", "0"],
            ["factor", "-e", "x", "--degree-cap", "-1"],
            ["units", "-p", "x", "-q", "y", "-v", "u1", "--degree-cap", "-1"],
            ["gen", "--degree-cap", "-1"],
            ["gen", "--count", "-1"],
            ["check", "-p", "x"],
        ],
        ids=[
            "factor-zero",
            "factor-three-variables",
            "units-zero-v",
            "gb-block-not-a-number",
            "gb-block-empty",
            "gb-zero-ideal",
            "factor-duplicate-variables",
            "gb-invalid-variable-name",
            "gen-zero-steps",
            "factor-negative-degree-cap",
            "units-negative-degree-cap",
            "gen-negative-degree-cap",
            "gen-negative-count",
            "check-without-q",
        ],
    )
    def test_input_outside_the_domain_is_two(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        # the last line is the error, in argparse's format; for a bad flag
        # value argparse prints its usage line above it
        assert re.match(r"keller [\w-]+: error: ", err.splitlines()[-1])
        assert "(at position" not in err

    @pytest.mark.parametrize(
        "argv", [["factor", "-e", "x", "--max-degree", "3"], ["gen", "--max-spairs", "3"]]
    )
    def test_budget_flags_are_only_where_read(self, capsys, argv):
        # factor and gen run no basis computation, so they take no budgets
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_unreadable_batch_file_is_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["check", "--batch", str(tmp_path / "nope.txt")])
        assert code == 2


class TestPinnedOutput:
    def test_check_automorphism_lines(self, capsys):
        _, out, _ = run(capsys, ["check", "-p", "x", "-q", "y + x^2"])
        lines = out.splitlines()
        assert "jacobian = 1 (nonzero constant)" in lines
        assert "H = -u3 + u1" in lines
        assert "r = 1" in lines
        assert "u = u2 - u1^2" in lines
        assert "v = 1" in lines
        assert "verdict = Automorphism" in lines
        assert "inverse: s = u1" in lines
        assert "inverse: t = u2 - u1^2" in lines
        assert "tfae: i=True ii=True iii=True (consistent)" in lines

    def test_kernel_squaring_map(self, capsys):
        code, out, _ = run(capsys, ["kernel", "-p", "x^2", "-q", "y"])
        assert code == 0
        lines = out.splitlines()
        assert "H = u3^2 - u1" in lines
        assert "r = 2" in lines
        assert "H_0 = -u1" in lines
        assert "H_2 = 1" in lines

    def test_member_shear(self, capsys):
        code, out, _ = run(capsys, ["member", "-p", "x", "-q", "y + x^2", "-w", "y"])
        assert code == 0
        assert out.splitlines()[0] == "G = u2 - u1^2"

    def test_member_negative(self, capsys):
        code, out, _ = run(capsys, ["member", "-p", "x^2", "-q", "y^2", "-w", "x"])
        assert code == 0
        assert "not a member" in out

    def test_uv_multiplicative_map(self, capsys):
        _, out, _ = run(capsys, ["uv", "-p", "x", "-q", "x*y"])
        lines = out.splitlines()
        assert "u = u2" in lines
        assert "v = u1" in lines
        assert "r = 1" in lines

    def test_uv_prints_g_in_the_context_of_u(self, capsys):
        _, out, _ = run(capsys, ["uv", "-p", "x*y - x^3", "-q", "y"])
        assert "g = u3^3 - u2*u3 + u1" in out.splitlines()

    def test_factor_difference_of_squares(self, capsys):
        _, out, _ = run(capsys, ["factor", "-e", "x^2 - y^2"])
        lines = out.splitlines()
        assert "content = 1" in lines
        assert "factor: -y + x  multiplicity 1" in lines
        assert "factor: y + x  multiplicity 1" in lines

    def test_factor_absolute_annotation(self, capsys):
        _, out, _ = run(capsys, ["factor", "-e", "x^2 + 1", "--absolute"])
        assert "[splits over C]" in out
        _, out, _ = run(capsys, ["factor", "-e", "x^2 + y", "--absolute"])
        assert "[absolutely irreducible]" in out

    def test_units_inside(self, capsys):
        _, out, _ = run(capsys, ["units", "-p", "x", "-q", "x*y", "-v", "u1"])
        assert "all units in subring: True" in out
        assert "factor x: inside (G = u1)" in out

    def test_gb_elimination_order(self, capsys):
        code, out, _ = run(
            capsys,
            ["gb", "-g", "u1 - u3", "-g", "u2 - u3^2",
             "--vars", "u1,u2,u3", "--order", "block:2"],
        )
        assert code == 0
        assert "-u3 + u1" in out.splitlines()


class TestJsonReports:
    def test_check_schema(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, ["check", "-p", "x", "-q", "y + x^2", "--json", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 3
        assert set(doc) == {
            "schema_version", "input", "jacobian", "kernel", "uv", "v_factors",
            "units", "verdict", "inverse", "certificate", "tfae", "notes", "stats",
        }
        # v = 1, so bit iii holds without any work, and a note says so
        assert len(doc["notes"]) == 1 and "bit iii holds" in doc["notes"][0]
        assert doc["input"] == {"p": "x", "q": "y + x^2"}
        assert doc["jacobian"]["is_constant"] is True
        assert doc["jacobian"]["value"] == "1"
        assert doc["kernel"]["H"] == "-u3 + u1"
        assert doc["kernel"]["r"] == 1
        assert doc["verdict"] == "Automorphism"
        assert doc["inverse"] == {"s": "u1", "t": "u2 - u1^2"}
        assert doc["certificate"] == _SHEAR_CERTIFICATE
        assert doc["tfae"] == {"i": True, "ii": True, "iii": True, "consistent": True}
        assert set(doc["stats"]) == {"spairs", "max_degree", "millis"}

    def test_budget_stopping_forced_evidence_is_marked(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        p, q = _STALL_MAPS[0]
        code, _, _ = run(capsys, ["check", "--force", "-p", p, "-q", q, "--json", str(path)])
        assert code == 1
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "NotKellerNonConstantJacobian"
        assert doc["refused"] is True
        assert doc["kernel"] is not None and doc["uv"] is None

    def test_non_keller_has_null_sections(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run(capsys, ["check", "-p", "x^2", "-q", "y", "--json", str(path)])
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "NotKellerNonConstantJacobian"
        assert doc["jacobian"]["is_constant"] is False
        assert doc["inverse"] is None
        assert doc["certificate"] is None
        assert doc["tfae"] is None

    def test_invert_reports_the_certificate(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, ["invert", "-p", "x", "-q", "y + x^2", "--json", str(path)]
        )
        assert code == 0
        assert out.splitlines() == [
            "s = u1",
            "t = u2 - u1^2",
            "step: Affine a=1 b=0 c=0 d=1 e=0 f=0",
            "step: ElementaryX coeff=1 power=2",
            "verified = True",
        ]
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 3
        assert doc["certificate"] == _SHEAR_CERTIFICATE
        assert doc["verified"] is True

    @pytest.mark.parametrize(
        "p, q", [("x", "y + x^2"), ("x", "x*y"), ("x*y", "x + y^2"), ("x*y - x^3", "y")]
    )
    def test_command_sections_match_check(self, capsys, tmp_path, p, q):
        def doc(argv):
            path = tmp_path / "r.json"
            run(capsys, argv + ["-p", p, "-q", q, "--json", str(path)])
            return json.loads(path.read_text())

        full = doc(["check", "--force"])
        assert doc(["kernel"])["kernel"] == full["kernel"]
        assert doc(["uv"])["uv"] == full["uv"]
        assert doc(["units", "-v", full["uv"]["v"]])["units"] == full["units"]

    def test_json_deterministic_up_to_millis(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["check", "-p", "x", "-q", "y + x^3", "--json", str(a)])
        run(capsys, ["check", "-p", "x", "-q", "y + x^3", "--json", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da["stats"].pop("millis")
        db["stats"].pop("millis")
        assert da == db

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "-p", "x", "-q", "y + x^2"],
            ["kernel", "-p", "x", "-q", "y + x^2"],
            ["uv", "-p", "x", "-q", "y + x^2"],
            ["invert", "-p", "x", "-q", "y + x^2"],
            ["member", "-p", "x", "-q", "y + x^2", "-w", "y"],
            ["units", "-p", "x", "-q", "y + x^2", "-v", "u1"],
            ["gb", "-g", "x^2 - y", "-g", "x*y"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_millis_is_the_wall_time_of_the_computation(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # the clock reads 0.0, 0.25, 0.5, ... so the one timed block takes
        # 250 ms
        ticks = iter(range(1000))
        monkeypatch.setattr(groebner_module, "perf_counter", lambda: next(ticks) / 4)
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, argv + ["--json", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["stats"]["millis"] == 250

    def test_stdout_byte_identical(self, capsys):
        _, out1, _ = run(capsys, ["check", "-p", "x + y^2", "-q", "y"])
        _, out2, _ = run(capsys, ["check", "-p", "x + y^2", "-q", "y"])
        assert out1 == out2


class TestBatch:
    def test_ordered_lines_and_skipping(self, capsys, tmp_path):
        batch = tmp_path / "maps.txt"
        batch.write_text("x ; y + x^2\n# a comment\n\ny ; x\n")
        code, out, _ = run(capsys, ["check", "--batch", str(batch)])
        assert code == 0
        assert out.splitlines() == [
            "[0] x ; y + x^2 -> Automorphism",
            "[1] y ; x -> Automorphism",
        ]

    def test_worst_exit_wins(self, capsys, tmp_path):
        batch = tmp_path / "maps.txt"
        batch.write_text("x ; y + x^2\nbogus @@ ; y\n")
        code, out, _ = run(capsys, ["check", "--batch", str(batch)])
        assert code == 2
        assert "parse error" in out

    def test_non_ascii_digit_line_does_not_abort_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "maps.txt"
        batch.write_text("x ; y + x^2\nx^\u00b2 ; y\ny ; x\n", encoding="utf-8")
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, ["check", "--batch", str(batch), "--json", str(report)])
        assert code == 2
        assert out.splitlines() == [
            "[0] x ; y + x^2 -> Automorphism",
            "[1] parse error: unexpected character '\u00b2' (at position 2)",
            "[2] y ; x -> Automorphism",
        ]
        assert len(json.loads(report.read_text())) == 2

    def test_long_numeral_line_does_not_abort_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "maps.txt"
        batch.write_text(f"x ; y + x^2\n{'7' * 4400}*x ; y\ny ; x\n")
        code, out, _ = run(capsys, ["check", "--batch", str(batch)])
        assert code == 2
        assert out.splitlines() == [
            "[0] x ; y + x^2 -> Automorphism",
            "[1] parse error: a numeral of 4400 digits is above the cap of 4096 bits"
            " (at position 0)",
            "[2] y ; x -> Automorphism",
        ]

    def test_deep_nesting_line_does_not_abort_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "maps.txt"
        deep = "(" * 400 + "x" + ")" * 400
        batch.write_text(f"x ; y + x^2\n{deep} ; y\ny ; x\n")
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, ["check", "--batch", str(batch), "--json", str(report)])
        assert code == 2
        assert out.splitlines() == [
            "[0] x ; y + x^2 -> Automorphism",
            "[1] parse error: parentheses nested deeper than 100 (at position 100)",
            "[2] y ; x -> Automorphism",
        ]
        assert len(json.loads(report.read_text())) == 2

    def test_exception_in_one_map_does_not_abort_the_batch(
        self, capsys, tmp_path, monkeypatch
    ):
        real = cli_module.classify

        def classify(f, **kwargs):
            if str(f.p) == "y":
                raise MembershipFailedError("injected")
            return real(f, **kwargs)

        monkeypatch.setattr(cli_module, "classify", classify)
        batch = tmp_path / "maps.txt"
        batch.write_text("y ; x\nx ; y + x^2\n")
        report = tmp_path / "report.json"
        code, out, err = run(capsys, ["check", "--batch", str(batch), "--json", str(report)])
        assert code == 1
        assert "Traceback" in err
        assert out.splitlines() == [
            "[0] error: MembershipFailedError: injected",
            "[1] x ; y + x^2 -> Automorphism",
        ]
        docs = json.loads(report.read_text())
        assert docs[0] == {
            "schema_version": 3,
            "input": {"p": "y", "q": "x"},
            "error": "MembershipFailedError: injected",
        }
        assert docs[1]["verdict"] == "Automorphism"

    def test_streamed_json_is_the_dump_of_its_list(self, capsys, tmp_path, monkeypatch):
        real = cli_module.classify
        report = tmp_path / "report.json"
        written = []

        def classify(f, **kwargs):
            # the entries of the maps before this one are already on disk
            written.append(report.read_text())
            if str(f.p) == "y":
                raise MembershipFailedError("injected")
            return real(f, **kwargs)

        monkeypatch.setattr(cli_module, "classify", classify)
        batch = tmp_path / "maps.txt"
        batch.write_text("x ; y + x^2\nnot a map\ny ; x\n")
        code, out, _ = run(capsys, ["check", "--batch", str(batch), "--json", str(report)])
        assert code == 2
        assert out.splitlines()[1] == "[1] skipped (expected 'p ; q'): not a map"
        text = report.read_text()
        docs = json.loads(text)
        assert text == json.dumps(docs, indent=2, sort_keys=True) + "\n"
        assert [d.get("error") for d in docs] == [None, "MembershipFailedError: injected"]
        assert written[0] == "" and json.loads(written[1] + "\n]") == docs[:1]

    def test_empty_batch_writes_an_empty_list(self, capsys, tmp_path):
        batch = tmp_path / "maps.txt"
        batch.write_text("# nothing to classify\n\n")
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, ["check", "--batch", str(batch), "--json", str(report)])
        assert (code, out) == (0, "")
        assert report.read_text() == "[]\n"

    def test_unwritable_json_fails_before_the_first_map(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_module, "classify", lambda f, **kwargs: calls.append(f))
        batch = tmp_path / "maps.txt"
        batch.write_text("x ; y + x^2\n")
        report = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["check", "--batch", str(batch), "--json", str(report)])
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("keller check: error: ")

    def test_gen_output_feeds_batch(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["gen", "--count", "3", "--seed", "5"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(" ; " in line for line in lines)
        batch = tmp_path / "gen.txt"
        batch.write_text(out)
        code, out2, _ = run(capsys, ["check", "--batch", str(batch)])
        assert code == 0
        assert all("-> Automorphism" in line for line in out2.splitlines())

    def test_gen_is_seed_deterministic(self, capsys):
        _, a, _ = run(capsys, ["gen", "--count", "2", "--seed", "9"])
        _, b, _ = run(capsys, ["gen", "--count", "2", "--seed", "9"])
        _, c, _ = run(capsys, ["gen", "--count", "2", "--seed", "10"])
        assert a == b
        assert a != c


class TestEnvironment:
    def test_env_spair_budget_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("KELLER_MAX_SPAIRS", "1")
        code, out, _ = run(capsys, ["check", "-p", "x + y^2", "-q", "y + (x + y^2)^2"])
        assert code == 1
        assert "verdict = Degenerate" in out
        assert "S-pair budget 1 exhausted" in out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KELLER_MAX_SPAIRS", "1")
        code, out, _ = run(
            capsys,
            ["check", "-p", "x + y^2", "-q", "y + (x + y^2)^2",
             "--max-spairs", "100000"],
        )
        assert code == 0
        assert "verdict = Automorphism" in out

    def test_unset_env_uses_default(self, capsys, monkeypatch):
        monkeypatch.delenv("KELLER_MAX_SPAIRS", raising=False)
        code, _, _ = run(capsys, ["check", "-p", "x + y^2", "-q", "y + (x + y^2)^2"])
        assert code == 0

    @pytest.mark.parametrize("value", ["abc", "-3", "", "1.5"])
    def test_invalid_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KELLER_MAX_SPAIRS", value)
        code, out, err = run(capsys, ["check", "-p", "x", "-q", "y + x^2"])
        assert code == 2
        assert out == ""
        assert "KELLER_MAX_SPAIRS" in err

    @pytest.mark.parametrize("flag", ["--max-spairs", "--max-degree"])
    def test_negative_budget_flag_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, ["check", "-p", "x", "-q", "y + x^2", flag, "-1"])
        assert code == 2
        assert out == ""
        assert flag in err


# polynomials of degree <= 2 in each variable, as CLI text
def _poly_text(names):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=4)

    def text(ts):
        if not ts:
            return "0"
        return " + ".join(
            f"({c})*{names[0]}^{i}*{names[1]}^{j}" for (i, j), c in sorted(ts.items())
        )

    return terms.map(text)


@st.composite
def _argv(draw):
    xy, uu = _poly_text(("x", "y")), _poly_text(("u1", "u2"))
    command = draw(
        st.sampled_from(["check", "kernel", "uv", "invert", "member", "units", "factor", "gb"])
    )
    if command == "factor":
        argv = ["factor", "-e", draw(xy), "--degree-cap", "6"]
        if draw(st.booleans()):
            argv.append("--absolute")
        return argv
    if command == "gb":
        argv = ["gb", "--order", draw(st.sampled_from(["lex", "grevlex", "block:1"]))]
        for g in draw(st.lists(xy, min_size=1, max_size=3)):
            argv += ["-g", g]
    else:
        argv = [command, "-p", draw(xy), "-q", draw(xy)]
        if command == "check" and draw(st.booleans()):
            argv.append("--force")
        elif command == "member":
            argv += ["-w", draw(xy)]
        elif command == "units":
            argv += ["-v", draw(uu), "--degree-cap", "6"]
    return argv + ["--max-spairs", "40", "--max-degree", "12"]


class TestExitCodeProperty:
    @given(_argv())
    def test_main_returns_an_exit_code_and_raises_nothing(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(argv) in (0, 1, 2)
