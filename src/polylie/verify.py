"""Batch verification harness behind the `verify-paper` CLI command.

Reruns the library's identity suites, exact bracket fixtures, solvability
and sl2 certificates, derived-chain witnesses, local-nilpotency checks,
membership closure sampling, and the grammar round-trip corpus, all driven
deterministically from one seed.  Produces a Report whose JSON form is
byte-for-byte reproducible for identical (inputs, seed, version): wall-clock
timing is carried separately and excluded from the JSON unless explicitly
requested.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import canonical, reductions, span
from .derivation import Derivation
from .grammar import format_derivation, parse_derivation
from .polyring import Polynomial
from .sampling import (
    random_derivation,
    random_nonconstant_polynomial,
    random_polynomial,
    random_subalgebra_element,
)

SCHEMA_VERSION = 2

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "command", "inputs", "caps", "checks", "passed", "timing_ms"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "inputs": {
            "type": "object",
            "required": ["n_max", "seed"],
            "properties": {
                "n_max": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
        "caps": {
            "type": "object",
            "required": ["max_iter", "bound"],
            "properties": {
                "max_iter": {"type": ["integer", "null"]},
                "bound": {"type": "integer"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "details": {"type": "object"},
                },
            },
        },
        "passed": {"type": "boolean"},
        "timing_ms": {"type": ["number", "null"]},
    },
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class Report:
    command: str
    inputs: dict
    caps: dict
    checks: list[CheckResult]
    timing_ms: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "caps": self.caps,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "timing_ms": self.timing_ms if include_timing else None,
        }


def _rand_n(rng: random.Random, n_max: int) -> int:
    return rng.randint(1, n_max)


def check_scaled_bracket_identity(rng: random.Random, n_max: int,
                                  samples: int) -> CheckResult:
    """[aD1, bD2] = ab[D1,D2] + a D1(b) D2 - b D2(a) D1, exactly."""
    failures = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        d1 = random_derivation(rng, n, 4)
        d2 = random_derivation(rng, n, 4)
        lhs = (a * d1).bracket(b * d2)
        rhs = (a * b) * d1.bracket(d2) + (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1
        if lhs != rhs:
            failures += 1
    return CheckResult("scaled_bracket_identity", failures == 0,
                       {"samples": samples, "failures": failures})


def check_scaled_bracket_commuting_case(rng: random.Random, n_max: int,
                                        samples: int) -> CheckResult:
    """Commuting coordinate fields: [a d_i, b d_j] = a d_i(b) d_j - b d_j(a) d_i."""
    failures = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        d1 = Derivation.partial(n, i)
        d2 = Derivation.partial(n, j)
        lhs = (a * d1).bracket(b * d2)
        rhs = (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1
        if lhs != rhs:
            failures += 1
    return CheckResult("scaled_bracket_commuting_case", failures == 0,
                       {"samples": samples, "failures": failures})


def check_bracket_composition_oracle(rng: random.Random, n_max: int,
                                     samples: int) -> CheckResult:
    """apply([D,E], x_i) = D(E(x_i)) - E(D(x_i)) for every variable."""
    failures = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        d = random_derivation(rng, n, 3)
        e = random_derivation(rng, n, 3)
        br = d.bracket(e)
        for i in range(1, n + 1):
            x = Polynomial.variable(n, i)
            if br.apply(x) != d.apply(e.apply(x)) - e.apply(d.apply(x)):
                failures += 1
                break
    return CheckResult("bracket_composition_oracle", failures == 0,
                       {"samples": samples, "failures": failures})


def check_bracket_antisymmetry_jacobi(rng: random.Random, n_max: int,
                                      samples: int) -> CheckResult:
    failures = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        d = random_derivation(rng, n, 3)
        e = random_derivation(rng, n, 3)
        f = random_derivation(rng, n, 3)
        if d.bracket(e) != -(e.bracket(d)):
            failures += 1
            continue
        cyclic = (d.bracket(e.bracket(f)) + e.bracket(f.bracket(d))
                  + f.bracket(d.bracket(e)))
        if not cyclic.is_zero():
            failures += 1
    return CheckResult("bracket_antisymmetry_jacobi", failures == 0,
                       {"samples": samples, "failures": failures})


def check_constant_extraction(rng: random.Random, n_max: int,
                              samples: int) -> CheckResult:
    failures = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        f = random_nonconstant_polynomial(rng, n, 5)
        alpha, gamma = reductions.constant_extraction(f)
        redone = f.diff_multi(alpha)
        if gamma == 0 or redone != Polynomial.constant(n, gamma):
            failures += 1
    return CheckResult("constant_extraction_random", failures == 0,
                       {"samples": samples, "failures": failures})


def check_linear_extraction(rng: random.Random, n_max: int,
                            samples: int) -> CheckResult:
    failures = 0
    checked = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        f = random_nonconstant_polynomial(rng, n, 5)
        for i in range(1, n + 1):
            deg = f.degree_in(i)
            if deg is None or deg < 1:
                continue
            checked += 1
            beta, lam, g = reductions.linear_extraction(f, i)
            ok = (lam != 0
                  and g.degree_in(i) in (None, 0)
                  and f.diff_multi(beta) == lam * Polynomial.variable(n, i) + g)
            if not ok:
                failures += 1
    return CheckResult("linear_extraction_random", failures == 0,
                       {"samples": samples, "instances": checked, "failures": failures})


def check_bracket_fixtures() -> CheckResult:
    """Three exact bracket values over n = 2."""
    n = 2
    x1 = Polynomial.variable(n, 1)
    x2 = Polynomial.variable(n, 2)

    def deriv(f1, f2):
        return Derivation(n, [f1, f2])

    zero = Polynomial.zero(n)
    cases = [
        (deriv(zero, x1 * x1), deriv(x2, zero),
         deriv(x1 * x1, -2 * x1 * x2)),
        (Derivation.euler(n), deriv(zero, x1 * x1),
         deriv(zero, x1 * x1)),
        (deriv(2 * x1, 5 * x2), deriv(zero, x1),
         deriv(zero, -3 * x1)),
    ]
    results = []
    ok = True
    for d, e, expected in cases:
        got = d.bracket(e)
        results.append({
            "lhs": f"[{d}, {e}]",
            "got": str(got),
            "expected": str(expected),
            "ok": got == expected,
        })
        ok = ok and got == expected
    return CheckResult("bracket_fixtures", ok, {"cases": results})


def check_solvability_fixtures(max_iter: int | None = None) -> CheckResult:
    n = 1
    d1 = Derivation.partial(n, 1)
    x1d1 = parse_derivation("(x1) d1", n)
    x1sq = parse_derivation("(x1^2) d1", n)

    solvable = span.derived_series(span.coordinatize([d1, x1d1]), max_iter)
    sl2_series = span.derived_series(span.coordinatize([d1, x1d1, x1sq]), max_iter)
    cert = reductions.sl2_check(d1, -x1sq, -2 * x1d1, 1)

    details = {
        "affine_span": solvable.to_dict(),
        "sl2_span": sl2_series.to_dict(),
        "sl2_certificate": cert.to_dict()
        if isinstance(cert, reductions.Sl2Certificate) else None,
    }
    ok = (solvable.verdict == "solvable" and solvable.length == 2
          and sl2_series.verdict == "stabilized_nonzero" and sl2_series.dims[0] == 3
          and isinstance(cert, reductions.Sl2Certificate))
    return CheckResult("solvability_fixtures", ok, details)


def check_derived_chain_witness(n: int) -> CheckResult:
    target = 2 * n - 1
    witness = canonical.derived_chain_witness(n)
    details: dict = {"n": n, "term": target}
    found = isinstance(witness, canonical.DerivedChainWitness)
    ok = found and not witness.value.is_zero()
    if found:
        details["expression"] = witness.expression.to_sexpr()
        details["value"] = str(witness.value)
        ok = ok and canonical.membership(witness.value).in_sn
    if n == 1:
        # the full subalgebra is 2-dimensional here, so its derived length
        # is checkable outright
        basis = span.coordinatize(canonical.generators("sn", 1, 2))
        report = span.derived_series(basis)
        details["series"] = report.to_dict()
        ok = ok and report.verdict == "solvable" and report.length == 2
        beyond = canonical.derived_chain_witness(1, term=2)
        details["term2_absent"] = beyond is None
        ok = ok and beyond is None
    return CheckResult(f"derived_chain_witness_n{n}", ok, details)


def check_lnd(rng: random.Random, n_max: int, samples: int,
              euler_bound: int = 8) -> CheckResult:
    failures = 0
    degree_cap = 3
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        d = random_subalgebra_element(rng, "un", n, degree_cap)
        bound = canonical.triangular_chain_bound(n, degree_cap)
        verdict = canonical.lnd_check(d, bound)
        if verdict.status != "witness":
            failures += 1
    euler_ok = True
    euler_certified = True
    for n in range(1, n_max + 1):
        verdict = canonical.lnd_check(Derivation.euler(n), euler_bound)
        euler_ok = euler_ok and verdict.status == "not_nilpotent"
        euler_certified = euler_certified and verdict.certificate is not None \
            and verdict.certificate.verify()
    return CheckResult("local_nilpotency", failures == 0 and euler_ok and euler_certified,
                       {"samples": samples, "failures": failures,
                        "euler_refuted": euler_ok, "euler_certified": euler_certified})


def check_membership(rng: random.Random, n_max: int, samples: int) -> CheckResult:
    gen_ok = True
    for n in range(1, n_max + 1):
        for which in ("un", "sn"):
            for g in canonical.generators(which, n, 3):
                verdict = canonical.membership(g)
                inside = verdict.in_un if which == "un" else verdict.in_sn
                gen_ok = gen_ok and inside

    n = 2
    x2d1 = parse_derivation("(x2) d1", n)
    x1x2d2 = parse_derivation("(x1 x2) d2", n)
    x1d1 = parse_derivation("(x1) d1", n)
    fixtures_ok = (
        not canonical.membership(x2d1).in_sn
        and canonical.membership(x1x2d2).in_sn
        and not canonical.membership(x1x2d2).in_un
        and canonical.membership(x1d1).in_sn
        and not canonical.membership(x1d1).in_un
    )

    closure_failures = 0
    for _ in range(samples):
        n = _rand_n(rng, n_max)
        which = rng.choice(("un", "sn"))
        gens = canonical.generators(which, n, 3)
        bracket = rng.choice(gens).bracket(rng.choice(gens))
        verdict = canonical.membership(bracket)
        inside = verdict.in_un if which == "un" else verdict.in_sn
        if not inside:
            closure_failures += 1
    ok = gen_ok and fixtures_ok and closure_failures == 0
    return CheckResult("membership", ok,
                       {"generators_ok": gen_ok, "fixtures_ok": fixtures_ok,
                        "bracket_samples": samples,
                        "bracket_failures": closure_failures})


def check_grammar_roundtrip(rng: random.Random, n_max: int,
                            corpus_size: int) -> CheckResult:
    failures = 0
    for _ in range(corpus_size):
        n = _rand_n(rng, n_max)
        d = random_derivation(rng, n, 4)
        if parse_derivation(format_derivation(d), n) != d:
            failures += 1
    fixed = [
        ("(x1^2) d2 + (x1+1) d1", 2),
        ("(1/2 x1 - x2^3) d1", 2),
        ("d1", 3),
        ("0", 2),
        ("(-2 x1 x2) d2 + (x1^2) d1", 2),
    ]
    for text, n in fixed:
        d = parse_derivation(text, n)
        if parse_derivation(format_derivation(d), n) != d:
            failures += 1
    return CheckResult("grammar_roundtrip", failures == 0,
                       {"corpus": corpus_size + len(fixed), "failures": failures})


def verify_paper(n_max: int = 2, seed: int = 0, *,
                 max_iter: int | None = None,
                 bound: int = 32,
                 samples: int = 200) -> Report:
    """Run every check deterministically from the seed and collect a Report."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    started = time.perf_counter()
    rng = random.Random(seed)
    checks = [
        check_scaled_bracket_identity(rng, n_max, samples),
        check_scaled_bracket_commuting_case(rng, n_max, samples),
        check_bracket_composition_oracle(rng, n_max, samples),
        check_bracket_antisymmetry_jacobi(rng, n_max, samples),
        check_constant_extraction(rng, n_max, max(50, samples // 4)),
        check_linear_extraction(rng, n_max, max(50, samples // 4)),
        check_bracket_fixtures(),
        check_solvability_fixtures(max_iter),
    ]
    for n in range(1, min(n_max, 2) + 1):
        checks.append(check_derived_chain_witness(n))
    checks.extend([
        check_lnd(rng, n_max, max(50, samples // 4), euler_bound=bound),
        check_membership(rng, n_max, max(100, samples // 2)),
        check_grammar_roundtrip(rng, n_max, 50),
    ])
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return Report(
        command="verify-paper",
        inputs={"n_max": n_max, "seed": seed},
        caps={"max_iter": max_iter, "bound": bound},
        checks=checks,
        timing_ms=elapsed_ms,
    )
