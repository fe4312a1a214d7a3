"""Batch verification harness behind the `verify-paper` CLI command.

Checks the paper's claims, all driven deterministically from one seed:
- `derived_chain_witness_n1`..`_n<n_max>`: a nonzero element of sn^(2n - 1),
  the lower bound on the derived length of sn, re-checked from the JSON form
  of its closed-form certificate (and, for n = 1, the derived length 2 of the
  whole of s1);
- `local_nilpotency`: sampled elements of un have a witness that every chain
  dies, and the Euler field is refuted by its linear part;
- `membership`: the generators of un and sn lie in them, and sampled brackets
  of generators stay inside.

The kernel's own bracket identities, extractions, fixtures and grammar
round trip are tests (`tests/test_acceptance.py`), not checks of the paper.
A Report's JSON form is byte-for-byte reproducible for identical (inputs,
seed, version): wall-clock timing is carried separately and excluded from
the JSON unless explicitly requested.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple

from . import canonical, span
from .derivation import Derivation
from .grammar import parse_derivation
from .polyring import _check_n

SCHEMA_VERSION = 3

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "command", "inputs", "checks", "passed", "timing_ms"],
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
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "details": {"type": "object"},
                    "timing_ms": {"type": ["number", "null"]},
                },
            },
        },
        "passed": {"type": "boolean"},
        "timing_ms": {"type": ["number", "null"]},
    },
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: dict
    timing_ms: float | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if include_timing:
            out["timing_ms"] = self.timing_ms
        return out


class Report(NamedTuple):
    command: str
    inputs: dict
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
            "checks": [c.to_dict(include_timing) for c in self.checks],
            "passed": self.passed,
            "timing_ms": self.timing_ms if include_timing else None,
        }


# trial(rng, n) draws one sample's inputs from rng and says whether it holds
Trial = Callable[[random.Random, int], bool]


def _sample(rng: random.Random, n_max: int, samples: int, trial: Trial) -> int:
    """The number of failed trials among samples: each draws its n in 1..n_max,
    then its inputs, from rng, one sample after the other."""
    return sum(not trial(rng, rng.randint(1, n_max)) for _ in range(samples))


def check_derived_chain_witness(n: int) -> CheckResult:
    """A nonzero element of sn^(2n - 1): the closed-form chain's certificate,
    re-checked from its JSON form alone."""
    target = canonical.lower_bound_term(n)
    result = canonical.derived_chain_witness(n)
    found = isinstance(result, canonical.DerivedChainCertificate)
    details: dict = {"n": n, "term": target, "found": found}
    if found:
        ok = canonical.DerivedChainCertificate.check(result.to_dict())
        details.update(root=str(result.root), nodes=len(result.nodes), checked=ok)
    else:
        ok = False
        details["reason"] = result.reason
    if n == 1:
        # the full subalgebra is 2-dimensional here, so its derived length
        # is checkable outright
        report = span.derived_series(span.lie_closure(canonical.generators("sn", 1, 2)))
        details["series"] = report.to_dict()
        ok = ok and report.verdict == "solvable" and report.length == 2
    return CheckResult(f"derived_chain_witness_n{n}", ok, details)


def check_lnd(rng: random.Random, n_max: int, samples: int) -> CheckResult:
    degree_cap = 3

    def trial(rng, n):
        d = canonical.random_subalgebra_element(rng, "un", n, degree_cap)
        bound = canonical.triangular_chain_bound(n, degree_cap)
        return canonical.lnd_check(d, bound).status == "witness"

    failures = _sample(rng, n_max, samples, trial)
    # Euler chains never die, so the verdict comes from the linear part
    # whatever the bound; 32 is the `lnd` command's default
    euler = [canonical.lnd_check(Derivation.euler(n), 32) for n in range(1, n_max + 1)]
    euler_ok = all(v.status == "not_nilpotent" for v in euler)
    euler_certified = all(v.linear_part is not None
                          and canonical.linear_part_refutes(v.linear_part) for v in euler)
    return CheckResult("local_nilpotency", failures == 0 and euler_ok and euler_certified,
                       {"samples": samples, "failures": failures,
                        "euler_refuted": euler_ok, "euler_certified": euler_certified})


def _inside(which: str, d: Derivation) -> bool:
    verdict = canonical.membership(d)
    return verdict.in_un if which == "un" else verdict.in_sn


def check_membership(rng: random.Random, n_max: int, samples: int) -> CheckResult:
    gen_ok = all(_inside(which, g) for n in range(1, n_max + 1) for which in ("un", "sn")
                 for g in canonical.generators(which, n, 3))

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

    def trial(rng, n):
        which = rng.choice(("un", "sn"))
        gens = canonical.generators(which, n, 3)
        d, e = rng.choice(gens), rng.choice(gens)
        return _inside(which, d.bracket(e))

    closure_failures = _sample(rng, n_max, samples, trial)
    ok = gen_ok and fixtures_ok and closure_failures == 0
    return CheckResult("membership", ok,
                       {"generators_ok": gen_ok, "fixtures_ok": fixtures_ok,
                        "bracket_samples": samples,
                        "bracket_failures": closure_failures})


def verify_paper(n_max: int = 2, seed: int = 0) -> Report:
    """Run the paper's checks deterministically from the seed and collect a
    Report, timing each check and the whole run."""
    _check_n(n_max)
    started = time.perf_counter()
    rng = random.Random(seed)
    calls = [
        *((check_derived_chain_witness, n) for n in range(1, n_max + 1)),
        (check_lnd, rng, n_max, 50),
        (check_membership, rng, n_max, 100),
    ]
    checks = []
    for check, *args in calls:
        begun = time.perf_counter()
        result = check(*args)
        checks.append(result._replace(timing_ms=(time.perf_counter() - begun) * 1000.0))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return Report(
        command="verify-paper",
        inputs={"n_max": n_max, "seed": seed},
        checks=checks,
        timing_ms=elapsed_ms,
    )
