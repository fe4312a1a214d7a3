import json
import re
import subprocess
import sys

import pytest

from polylie.cli import main
from polylie.verify import REPORT_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "(x1^2) d2", "(x2) d1", "--n", "2")
        assert code == 0
        assert out.strip() == "(x1^2) d1 + (-2 x1 x2) d2"

    def test_bracket_json(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "d1", "(x1) d1", "--n", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["outputs"]["result"] == "d1"

    def test_apply(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "(x2) d1 + d2", "x1 x2", "--n", "2")
        assert code == 0
        assert out.strip() == "x2^2 + x1"

    def test_index_derivation_and_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "index", "(x3) d1 + (x1) d2", "--n", "3")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(capsys, "index", "x1 + x2^3", "--poly", "--n", "3")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(capsys, "index", "0", "--n", "2")
        assert code == 0 and out.strip() == "none"

    def test_member(self, capsys):
        code, out, _ = run_cli(capsys, "member", "(x1 x2) d2", "--n", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["in_sn"] and not doc["outputs"]["in_un"]

    def test_lnd(self, capsys):
        code, out, _ = run_cli(capsys, "lnd", "(x1) d2 + d1", "--n", "2",
                               "--bound", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["status"] == "witness"
        assert doc["outputs"]["lengths"] == [2, 3]

    def test_closure_and_series(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "d1", "(x1^2) d1", "--n", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["status"] == "closed" and doc["outputs"]["dim"] == 3

        code, out, _ = run_cli(capsys, "derived-series", "d1", "(x1) d1", "--n", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["series"]["verdict"] == "solvable"
        assert doc["outputs"]["series"]["dims"] == [2, 1, 0]

    def test_lower_series(self, capsys):
        code, out, _ = run_cli(capsys, "derived-series", "d1", "(x1) d1", "--lower",
                               "--n", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["series"]["verdict"] == "stabilized_nonzero"

    def test_extractions(self, capsys):
        code, out, _ = run_cli(capsys, "extract-const", "x1^2 x2 + x1", "--n", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["alpha"] == [2, 1] and doc["outputs"]["gamma"] == "2"

        code, out, _ = run_cli(capsys, "extract-linear", "x1 x2^2 + x2 + x1", "2",
                               "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["beta"] == [1, 1]
        assert doc["outputs"]["lambda"] == "2"
        assert doc["outputs"]["g"] == "0"

    def test_flatten_and_strip(self, capsys):
        code, out, _ = run_cli(capsys, "flatten", "(x2^3) d1", "2", "1", "--n", "2")
        assert code == 0 and out.strip() == "(6 x2) d1"
        code, out, _ = run_cli(capsys, "strip", "(x2) d1 + (x1) d2", "--which", "un",
                               "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["remainder"] == "(x2) d1"
        assert doc["outputs"]["stripped"] == "(x1) d2"

    def test_eigencert_success_and_failure(self, capsys):
        code, out, _ = run_cli(capsys, "eigencert", "(2 x1) d1 + (5 x2) d2",
                               "(x1) d2", "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["certificate"]["scalar"] == "-3"

        code, _, _ = run_cli(capsys, "eigencert", "d1", "d2", "--n", "2")
        assert code == 1

    def test_sl2(self, capsys):
        code, _, _ = run_cli(capsys, "sl2", "d1", "(-1 x1^2) d1", "(-2 x1) d1",
                             "--k", "1", "--n", "1")
        assert code == 0
        code, out, _ = run_cli(capsys, "sl2", "d1", "(-1 x1) d1", "(-2 x1) d1",
                               "--k", "1", "--n", "1")
        assert code == 1
        assert "mismatch" in out

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["found"] and doc["outputs"]["term"] == 1
        code, out, _ = run_cli(capsys, "witness", "--n", "1", "--term", "2")
        assert code == 1
        assert out == "not found: absent\n"

    def test_witness_beam_cut_is_truncated(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "2", "--beam", "1",
                               "--format", "json")
        assert code == 1
        outputs = json.loads(out)["outputs"]
        assert outputs == {"found": False, "status": "truncated", "cut_at": 1}
        code, out, _ = run_cli(capsys, "witness", "--n", "2", "--beam", "1")
        assert code == 1
        assert out.startswith("not found: truncated")

    def test_closure_prints_offending_bracket(self, capsys):
        from polylie.grammar import parse_derivation
        code, out, _ = run_cli(capsys, "closure", "(x1^2) d2", "(x2^2) d1", "--n", "2",
                               "--degree-cap", "3", "--format", "json")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["status"] == "degree_cap_exceeded"
        a, b = (parse_derivation(t, 2) for t in outputs["offending_bracket"])
        assert a.bracket(b).max_coeff_degree() > 3

    def test_report_values_reparse(self, capsys):
        from polylie.grammar import parse_derivation
        code, out, _ = run_cli(capsys, "bracket", "(x1^2) d2", "(x2) d1", "--n", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for text in (doc["inputs"]["d1"], doc["inputs"]["d2"],
                     doc["outputs"]["result"]):
            d = parse_derivation(text, 2)
            assert str(d) == text

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "d3", "d1", "--n", "2")
        assert code == 2
        assert "out of range" in err

    def test_precondition_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "flatten", "(x2) d1", "2", "2", "--n", "2")
        assert code == 2
        assert "below target" in err

    def test_series_takes_no_iteration_cap(self, capsys):
        # the series always reach a verdict, so there is no cap to set
        with pytest.raises(SystemExit) as exc:
            main(["derived-series", "d1", "(x1) d1", "--n", "1", "--max-iter", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-iter" in captured.err

    @pytest.mark.parametrize("k", ["0", "2"])
    def test_sl2_bad_slot_exits_two(self, capsys, k):
        code, out, err = run_cli(capsys, "sl2", "d1", "(-1 x1^2) d1", "(-2 x1) d1",
                                 "--k", k, "--n", "1")
        assert code == 2 and out == ""
        assert f"slot {k} out of range 1..1" in err

    def test_closure_generator_above_degree_cap_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "closure", "(x1^20) d1", "--n", "1",
                                 "--degree-cap", "3")
        assert code == 2 and out == ""
        assert "(x1^20) d1" in err and "degree_cap 3" in err


class TestVerifyPaper:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "0",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["schema"] == 3
        assert "caps" not in doc
        names = [c["name"] for c in doc["checks"]]
        assert "derived_chain_witness_n1" in names
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_records_only_applied_caps(self, capsys):
        # verify-paper applies no user cap, so it takes none and records none
        assert "caps" not in REPORT_SCHEMA["properties"]
        for flag in ("--degree-cap", "--dim-cap", "--max-iter", "--bound"):
            with pytest.raises(SystemExit) as exc:
                main(["verify-paper", "--n", "1", flag, "1"])
            assert exc.value.code == 2

    def test_text_output_lists_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "1")
        assert code == 0
        assert "PASS" in out and "all checks passed" in out

    def test_deterministic_text(self, capsys):
        _, out1, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3")
        _, out2, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3")
        assert out1 == out2
        assert out1.splitlines()[-1] == "all checks passed (12 checks)"

    def test_timing_is_opt_in_for_text(self, capsys):
        _, out, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3", "--timing")
        assert re.fullmatch(r"all checks passed \(12 checks, \d+ ms\)", out.splitlines()[-1])

    def test_deterministic_json(self, capsys):
        _, out1, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3",
                             "--format", "json")
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self, module_env):
        proc = subprocess.run(
            [sys.executable, "-m", "polylie", "bracket", "d1", "(x1) d1", "--n", "1"],
            capture_output=True, text=True, env=module_env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "d1"

    def test_usage_error_exits_two(self, module_env):
        proc = subprocess.run(
            [sys.executable, "-m", "polylie", "--bogus"],
            capture_output=True, text=True, env=module_env)
        assert proc.returncode == 2
