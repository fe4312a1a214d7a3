import json
import re
import subprocess
import sys
import time

import pytest

from polylie.canonical import DerivedChainCertificate
from polylie.cli import EXIT_CLOSED_STDOUT, build_parser, main
from polylie.grammar import parse_derivation
from polylie.verify import REPORT_SCHEMA

# The golden files and their renderers live in golden.py, which needs no
# pytest: `PYTHONPATH=src python tests/golden.py` regenerates the files.
from golden import GOLDEN_CORPUS, GOLDEN_REPORTS, render_corpus, render_report


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

    def test_huge_power_of_one_term_parses(self, capsys):
        code, out, _ = run_cli(capsys, "index", "(x1^100000000) d1", "--n", "1")
        assert code == 0 and out.strip() == "1"

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
        assert DerivedChainCertificate.check(doc["outputs"]["certificate"])
        code, out, _ = run_cli(capsys, "witness", "--n", "1", "--term", "2")
        assert code == 1
        assert out == "not found: inconclusive (beyond_construction at depth 2)\n"

    @pytest.mark.parametrize("argv", [["--n", "1"], ["--n", "2"], ["--n", "3"],
                                      ["--n", "3", "--term", "2", "--degree-cap", "4"],
                                      ["--n", "2", "--term", "2", "--degree-cap", "3"]])
    def test_witness_expression_evaluates_to_value(self, capsys, argv):
        code, out, _ = run_cli(capsys, "witness", *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        n, outputs = doc["n"], doc["outputs"]
        gens = {name: parse_derivation(text, n) for name, text in outputs["legend"].items()}
        stack = [[]]
        for token in re.findall(r"\[|\]|g\d+", outputs["expression"]):
            if token == "[":
                stack.append([])
            elif token == "]":
                left, right = stack.pop()
                stack[-1].append(left.bracket(right))
            else:
                stack[-1].append(gens[token])
        (value,) = stack[0]
        assert value == parse_derivation(outputs["value"], n) and not value.is_zero()

    def test_witness_exhausted_is_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "3", "--term", "6",
                               "--format", "json")
        assert code == 1
        outputs = json.loads(out)["outputs"]
        assert outputs == {"found": False, "status": "inconclusive",
                           "reason": "beyond_construction", "depth": 6}

    def test_witness_echoes_the_applied_term_and_cap(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"] == {"term": 3, "degree_cap": 2}

    @pytest.mark.parametrize("n, seconds", [(4, 1), (5, 5)])
    def test_witness_finishes_with_a_checked_certificate(self, capsys, n, seconds):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "witness", "--n", str(n), "--format", "json")
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < seconds, f"took {elapsed:.2f} s"
        outputs = json.loads(out)["outputs"]
        assert DerivedChainCertificate.check(outputs["certificate"])
        assert outputs["value"].endswith(f"d{n}") and outputs["omitted"] is None

    def test_witness_degree_cap_bounds_the_run_time(self, capsys):
        # a level-by-level search over the degree-8 generators ran for more
        # than three minutes here; the chain uses degree 2 whatever the cap
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "witness", "--n", "8", "--degree-cap", "8",
                               "--format", "json")
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 2, f"took {elapsed:.2f} s"
        outputs = json.loads(out)["outputs"]
        assert outputs["found"] and outputs["term"] == 15
        assert DerivedChainCertificate.check(outputs["certificate"])

    def test_witness_prints_the_tree_up_to_n8(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "8", "--format", "json")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["omitted"] is None
        assert outputs["expression"].count("g") == 2 ** 15
        assert outputs["value"] == "d8"

    def test_witness_omits_a_large_tree_and_keeps_the_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "10", "--format", "json")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["expression"] is None and outputs["value"] is None
        assert "524288 leaves" in outputs["omitted"]
        assert DerivedChainCertificate.check(outputs["certificate"])
        code, out, _ = run_cli(capsys, "witness", "--n", "10")
        assert code == 0
        assert out.splitlines()[1].startswith("expression and value omitted: ")

    def test_closure_prints_offending_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "(x1^2) d2", "(x2^2) d1", "--n", "2",
                               "--degree-cap", "3", "--format", "json")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["status"] == "degree_cap_exceeded"
        a, b = (parse_derivation(t, 2) for t in outputs["offending_bracket"])
        assert a.bracket(b).max_coeff_degree() > 3

    def test_closure_rational_generators_exact_output(self, capsys):
        # the offending pair is the two worklist elements exactly, rational
        # scales included, not the integer rows the closure brackets
        code, out, _ = run_cli(capsys, "closure", "(1/2 x2) d1", "(3/4 x1^2) d2",
                               "--n", "2", "--degree-cap", "2")
        assert code == 0
        assert out == ("status: degree_cap_exceeded\n"
                       "dim: 4\n"
                       "  (x1^2) d1 + (-2 x1 x2) d2\n"
                       "  (x1 x2) d1 + (-1/2 x2^2) d2\n"
                       "  (x2) d1\n"
                       "  (x1^2) d2\n"
                       "offending bracket: [(3/4 x1^2) d2, "
                       "(-3/8 x1^2) d1 + (3/4 x1 x2) d2]\n")

    def test_witness_prints_nothing_from_a_failed_certificate(self, capsys, monkeypatch):
        monkeypatch.setattr(DerivedChainCertificate, "check", staticmethod(lambda doc: False))
        code, out, err = run_cli(capsys, "witness", "--n", "2")
        assert code == 1 and out == ""
        assert err == "error: the witness certificate failed its check\n"

    def test_witness_n3_term2_exact_json(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "3", "--term", "2",
                               "--degree-cap", "4", "--format", "json")
        assert code == 0
        nodes = [
            ["d1", None, None, 1, 0], ["(x1) d1", None, None, 1, 0],
            ["(x1) d2", None, None, 1, 0],
            ["d1", 0, 1, 1, 1], ["(x1) d2", 1, 2, 1, 1], ["d2", 3, 4, 1, 2],
        ]
        expected = {
            "command": "witness",
            "inputs": {"degree_cap": 4, "term": 2},
            "n": 3,
            "outputs": {
                "certificate": {"kind": "derived_chain", "n": 3, "nodes": nodes, "term": 2},
                "expression": "[[g1,g2],[g2,g3]]",
                "found": True,
                "legend": {"g1": "d1", "g2": "(x1) d1", "g3": "(x1) d2"},
                "omitted": None,
                "term": 2,
                "value": "d2",
            },
            "schema": 1,
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_report_values_reparse(self, capsys):
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

    @pytest.mark.parametrize("argv", [["bracket", "(x1) d1", "d1"], ["witness"],
                                      ["verify-paper"]])
    def test_variable_count_above_the_limit_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", "1001")
        assert code == 2 and out == ""
        assert err == "error: variable count must be <= 1000, got 1001\n"

    def test_variable_count_at_the_limit_works(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "(x1) d1", "d1", "--n", "1000")
        assert code == 0 and out == "(-1) d1\n"

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

    def test_single_operation_commands_match_golden_corpus(self):
        assert render_corpus() == GOLDEN_CORPUS.read_text()


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
        lines = out.splitlines()
        assert re.fullmatch(r"all checks passed \(12 checks, \d+ ms\)", lines[-1])
        # and each check's line ends in its own milliseconds
        assert len(lines) == 13
        assert all(re.fullmatch(r"PASS  \w+  \d+\.\d ms", line) for line in lines[:-1])

    def test_timing_is_opt_in_for_json(self, capsys):
        argv = ("verify-paper", "--n", "1", "--seed", "3", "--format", "json")
        plain = json.loads(run_cli(capsys, *argv)[1])
        timed_text = run_cli(capsys, *argv, "--timing")[1]
        timed = json.loads(timed_text)
        assert plain["timing_ms"] is None
        assert all("timing_ms" not in c for c in plain["checks"])
        assert timed["timing_ms"] > 0
        assert all(c.pop("timing_ms") >= 0 for c in timed["checks"])
        # timing aside, the two reports are the same
        assert timed == dict(plain, timing_ms=timed["timing_ms"])
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(json.loads(timed_text), REPORT_SCHEMA)

    def test_deterministic_json(self, capsys):
        _, out1, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "verify-paper", "--n", "1", "--seed", "3",
                             "--format", "json")
        assert out1 == out2

    def test_json_matches_golden_report(self):
        assert render_report(42) == GOLDEN_REPORTS[42].read_text()

    def test_json_matches_held_out_golden_report(self):
        assert render_report(977) == GOLDEN_REPORTS[977].read_text()


class TestOneParser:
    """main parses every command with the one parser of the process."""

    SERIES = ["derived-series", "d1", "(x1) d1", "(x1^2) d2", "--n", "2", "--format", "json"]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_does_not_carry_to_the_next_command(self, capsys):
        code, out, _ = run_cli(capsys, *self.SERIES, "--lower")
        assert code == 0 and json.loads(out)["inputs"]["lower"] is True
        code, out, _ = run_cli(capsys, *self.SERIES)
        assert code == 0 and json.loads(out)["inputs"]["lower"] is False

    def test_usage_error_leaves_no_trace(self, capsys, module_env):
        fresh = subprocess.run([sys.executable, "-m", "polylie", *self.SERIES],
                               capture_output=True, text=True, env=module_env)
        assert fresh.returncode == 0
        assert run_cli(capsys, "closure", "(x1) d2", "--n", "2")[0] == 0
        # --lower and --degree-cap are parsed before --max-iter is rejected
        with pytest.raises(SystemExit) as exc:
            main(["derived-series", "d2", "--lower", "--degree-cap", "1", "--n", "2",
                  "--max-iter", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *self.SERIES)[:2] == (fresh.returncode, fresh.stdout)


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

    def test_power_above_the_bits_limit_exits_two_at_once(self, module_env):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "polylie", "index", "(x1 + 1)^100000", "--poly",
             "--n", "1"],
            capture_output=True, text=True, env=module_env, timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "POWER_BITS_LIMIT" in proc.stderr
        # the bound is checked before any product: interpreter start-up dominates
        assert elapsed < 10

    @pytest.mark.parametrize("argv", [
        ["closure", "d1", "(x1) d2", "(x1^2) d3", "--n", "3", "--format", "json"],
        ["verify-paper", "--n", "2", "--format", "json"],
    ])
    def test_closed_stdout_exits_quietly(self, module_env, argv):
        proc = subprocess.Popen([sys.executable, "-m", "polylie", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=module_env)
        proc.stdout.close()  # the reader leaves before the first byte is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT
        assert err == b""
