"""The `verify-paper` checks: what they report and how they fail.

A report holds the paper's checks alone, and matches the pinned reports in
process and from a real CLI process.  Each sampled-check test breaks one
library function on part of the samples and runs one check from a fixed
seed: the check must fail, count exactly the broken trials, and keep its
details keys, so a change to how the checks sample cannot silently change
what `failures` counts.  The derived-chain checks must fail on a broken
bracket and on an inconclusive search.
"""

import json
import random
import subprocess
import sys

import pytest

from polylie import canonical, verify
from polylie.derivation import Derivation
from polylie.polyring import Polynomial

from golden import GOLDEN_REPORTS, render_report

SEED = 5
N_MAX = 3
SAMPLES = 30


def _rng():
    return random.Random(SEED)


def _break_bracket_on_n1(monkeypatch) -> list[None]:
    """[D, E] gains a stray x1^2 d1 term, outside un and sn, when n = 1; the
    list returned gets one entry per bracket broken."""
    bracket = Derivation.bracket
    broken = []

    def wrong(self, other):
        out = bracket(self, other)
        if self.n != 1:
            return out
        broken.append(None)
        return out + Derivation.partial(1, 1) * Polynomial(1, {(2,): 1})

    monkeypatch.setattr(Derivation, "bracket", wrong)
    return broken


def test_lnd_counts_failing_samples(monkeypatch):
    # a two-step bound still kills every chain for n = 1 (constant d1
    # multiples), but leaves most larger un elements without a witness
    monkeypatch.setattr(canonical, "triangular_chain_bound", lambda n, cap: 2)
    result = verify.check_lnd(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    assert result.details == {"samples": SAMPLES, "failures": 8,
                              "euler_refuted": True, "euler_certified": True}


def test_membership_counts_failing_brackets(monkeypatch):
    # generators and fixtures are never bracketed, so only the sampled
    # brackets are broken, and each sample brackets once
    broken = _break_bracket_on_n1(monkeypatch)
    result = verify.check_membership(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    assert result.details == {"generators_ok": True, "fixtures_ok": True,
                              "bracket_samples": SAMPLES, "bracket_failures": 13}
    assert len(broken) == 13


def test_derived_chain_checks_recheck_every_n(monkeypatch):
    report = verify.verify_paper(3, 0)
    names = [c.name for c in report.checks if c.name.startswith("derived_chain")]
    assert names == [f"derived_chain_witness_n{n}" for n in (1, 2, 3)]
    assert all(c.passed and c.details["checked"] for c in report.checks
               if c.name in names)
    # the check runs on the JSON form, so a bracket that breaks its
    # relations fails it even though building the chain brackets nothing
    _break_bracket_on_n1(monkeypatch)
    result = verify.check_derived_chain_witness(1)
    assert result.passed is False and result.details["checked"] is False


def test_derived_chain_check_fails_an_inconclusive_search(monkeypatch):
    monkeypatch.setattr(canonical, "derived_chain_witness",
                        lambda n: canonical.InconclusiveSearch(canonical.BEYOND_CONSTRUCTION, 2))
    result = verify.check_derived_chain_witness(2)
    assert result.passed is False
    assert result.details == {"n": 2, "term": 3, "found": False,
                              "reason": "beyond_construction"}


@pytest.mark.parametrize("seed", [42, 977])
def test_reports_hold_only_the_paper_checks(seed):
    report = render_report(seed)
    assert report == GOLDEN_REPORTS[seed].read_text()
    assert [c["name"] for c in json.loads(report)["checks"]] == [
        "derived_chain_witness_n1", "derived_chain_witness_n2",
        "derived_chain_witness_n3", "local_nilpotency", "membership"]


def test_cli_process_writes_the_pinned_report(module_env):
    # a real process with stdout on a pipe writes the report once, byte for
    # byte
    proc = subprocess.run(
        [sys.executable, "-m", "polylie", "verify-paper", "--n", "3", "--seed", "42",
         "--format", "json"],
        stdout=subprocess.PIPE, env=module_env, check=True, timeout=120)
    assert proc.stdout == GOLDEN_REPORTS[42].read_bytes()
