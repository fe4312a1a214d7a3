"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every check is exact rational equality (no numeric tolerance anywhere);
the only stated limits are the per-criterion runtimes asserted below.
Each test prints a single pass line once its assertions have held.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from polylie.canonical import (
    derived_chain_witness,
    generators,
    lnd_check,
    membership,
    triangular_chain_bound,
)
from polylie.derivation import Derivation
from polylie.grammar import format_derivation, parse_derivation
from polylie.polyring import Polynomial
from polylie.reductions import (
    Sl2Certificate,
    constant_extraction,
    linear_extraction,
    sl2_check,
)
from polylie.sampling import (
    random_derivation,
    random_nonconstant_polynomial,
    random_polynomial,
    random_subalgebra_element,
)
from polylie.span import coordinatize, derived_series
from polylie.verify import REPORT_SCHEMA


def _report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_scaled_bracket_identity_suite():
    started = time.monotonic()
    rng = random.Random(1001)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        d1 = random_derivation(rng, n, 4)
        d2 = random_derivation(rng, n, 4)
        lhs = (a * d1).bracket(b * d2)
        rhs = ((a * b) * d1.bracket(d2)
               + (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1)
        assert lhs == rhs
    for _ in range(200):
        n = rng.randint(1, 3)
        d1 = Derivation.partial(n, rng.randint(1, n))
        d2 = Derivation.partial(n, rng.randint(1, n))
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        assert d1.bracket(d2).is_zero()
        lhs = (a * d1).bracket(b * d2)
        rhs = (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1
        assert lhs == rhs
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, f"scaled-bracket identity, 200 tuples + commuting case "
               f"({elapsed:.2f}s)")


def test_criterion_2_bracket_oracle_antisymmetry_jacobi():
    rng = random.Random(1002)
    samples = []
    for _ in range(200):
        n = rng.randint(1, 3)
        samples.append((n, random_derivation(rng, n, 3), random_derivation(rng, n, 3),
                        random_derivation(rng, n, 3)))
    for n, d, e, f in samples:
        br = d.bracket(e)
        for i in range(1, n + 1):
            x = Polynomial.variable(n, i)
            assert br.apply(x) == d.apply(e.apply(x)) - e.apply(d.apply(x))
        assert br == -(e.bracket(d))
        cyclic = (d.bracket(e.bracket(f)) + e.bracket(f.bracket(d))
                  + f.bracket(d.bracket(e)))
        assert cyclic.is_zero()
    _report(2, "bracket composition oracle, antisymmetry, Jacobi on 200 pairs")


def test_criterion_3_extraction_suite():
    rng = random.Random(1003)
    linear_instances = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_nonconstant_polynomial(rng, n, 5)
        alpha, gamma = constant_extraction(f)
        assert gamma != 0
        assert f.diff_multi(alpha) == Polynomial.constant(n, gamma)
        for i in range(1, n + 1):
            if (f.degree_in(i) or 0) < 1:
                continue
            linear_instances += 1
            beta, lam, g = linear_extraction(f, i)
            assert lam != 0
            assert g.degree_in(i) in (None, 0)
            assert f.diff_multi(beta) == lam * Polynomial.variable(n, i) + g
    assert linear_instances >= 50
    _report(3, f"constant/linear extraction on 50 polynomials "
               f"({linear_instances} linear instances), re-differentiation exact")


def test_criterion_4_bracket_fixtures_exact():
    n = 2
    d = parse_derivation("(x1^2) d2", n)
    e = parse_derivation("(x2) d1", n)
    assert d.bracket(e) == parse_derivation("(x1^2) d1 + (-2 x1 x2) d2", n)

    euler = Derivation.euler(n)
    f = parse_derivation("(x1^2) d2", n)
    assert euler.bracket(f) == f

    diag = parse_derivation("(2 x1) d1 + (5 x2) d2", n)
    g = parse_derivation("(x1) d2", n)
    assert diag.bracket(g) == parse_derivation("(-3 x1) d2", n)
    _report(4, "three exact bracket fixtures, zero tolerance")


def test_criterion_5_solvability_fixtures():
    n = 1
    d1 = Derivation.partial(n, 1)
    x1d1 = parse_derivation("(x1) d1", n)
    x1sq = parse_derivation("(x1^2) d1", n)

    started = time.monotonic()
    report = derived_series(coordinatize([d1, x1d1]))
    assert time.monotonic() - started < 1.0
    assert report.verdict == "solvable" and report.length == 2

    started = time.monotonic()
    report = derived_series(coordinatize([d1, x1d1, x1sq]))
    assert time.monotonic() - started < 1.0
    assert report.verdict == "stabilized_nonzero" and report.dims[0] == 3

    started = time.monotonic()
    cert = sl2_check(d1, -x1sq, -2 * x1d1, 1)
    assert time.monotonic() - started < 1.0
    assert isinstance(cert, Sl2Certificate)
    _report(5, "derived-series and sl2 fixtures, each under 1s")


def test_criterion_6_derived_chain_witnesses():
    started = time.monotonic()
    w1 = derived_chain_witness(1)
    assert w1 is not None and w1.term == 1
    assert not w1.value.is_zero()
    assert w1.expression.evaluate(w1.generators) == w1.value
    series = derived_series(coordinatize(generators("sn", 1, 2)))
    assert series.verdict == "solvable" and series.length == 2

    w2 = derived_chain_witness(2)
    assert w2 is not None and w2.term == 3
    assert not w2.value.is_zero()
    assert membership(w2.value).in_sn
    assert w2.expression.evaluate(w2.generators) == w2.value
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(6, f"depth-1 and depth-3 nonzero chain witnesses ({elapsed:.2f}s)")


def test_criterion_7_local_nilpotency():
    rng = random.Random(1007)
    bound = triangular_chain_bound(3, 3)
    for _ in range(50):
        d = random_subalgebra_element(rng, "un", 3, 3)
        verdict = lnd_check(d, bound)
        assert verdict.status == "witness"
    for n in (1, 2, 3):
        verdict = lnd_check(Derivation.euler(n), 8)
        assert verdict.status == "not_nilpotent"
        assert verdict.linear_part == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))
        assert verdict.certificate is not None and verdict.certificate.verify()
    _report(7, "50 triangular samples witnessed; Euler refuted via linear part")


def test_criterion_8_membership():
    for n in (1, 2, 3):
        for which in ("un", "sn"):
            for g in generators(which, n, 3):
                verdict = membership(g)
                assert verdict.in_un if which == "un" else verdict.in_sn

    n = 2
    assert not membership(parse_derivation("(x2) d1", n)).in_sn
    mixed = membership(parse_derivation("(x1 x2) d2", n))
    assert mixed.in_sn and not mixed.in_un
    linear = membership(parse_derivation("(x1) d1", n))
    assert linear.in_sn and not linear.in_un

    rng = random.Random(1008)
    for _ in range(100):
        n = rng.randint(1, 3)
        which = rng.choice(("un", "sn"))
        gens = generators(which, n, 3)
        br = rng.choice(gens).bracket(rng.choice(gens))
        verdict = membership(br)
        assert verdict.in_un if which == "un" else verdict.in_sn
    _report(8, "generator membership, strictness fixtures, 100 bracket samples")


def test_criterion_9_cli_roundtrip_and_harness(module_env):
    rng = random.Random(1009)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = random_derivation(rng, n, 4)
        assert parse_derivation(format_derivation(d), n) == d

    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "polylie", "verify-paper", "--n", "2",
         "--seed", "42", "--format", "json"],
        capture_output=True, text=True, env=module_env)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["passed"] is True
    assert elapsed < 60.0
    _report(9, f"50-expression round-trip; verify-paper exits 0 with "
               f"schema-valid JSON ({elapsed:.2f}s)")
