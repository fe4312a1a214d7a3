"""Failure paths of the `verify` checks.

Each sampled-check test breaks one library function on part of the samples
and runs one check from a fixed seed.  The check must fail, count exactly
the broken trials, and keep its details keys, so a change to how the checks
sample cannot silently change what `failures` counts.  The derived-chain
checks must fail on a broken bracket and on an inconclusive search.
"""

import random

import pytest

from polylie import canonical, reductions, verify
from polylie.derivation import Derivation

SEED = 5
N_MAX = 3
SAMPLES = 30


def _rng():
    return random.Random(SEED)


def _break_bracket_on_n1(monkeypatch):
    """[D, E] gains a stray x1^2 d1 term, outside un and sn, when n = 1."""
    bracket = Derivation.bracket

    def wrong(self, other):
        out = bracket(self, other)
        return out + Derivation.monomial_term(1, (2,), 1) if self.n == 1 else out

    monkeypatch.setattr(Derivation, "bracket", wrong)


@pytest.mark.parametrize("check, failures", [
    (verify.check_scaled_bracket_identity, 9),
    (verify.check_scaled_bracket_commuting_case, 9),
    (verify.check_bracket_composition_oracle, 9),
    (verify.check_bracket_antisymmetry_jacobi, 13),
])
def test_bracket_identities_count_failing_samples(monkeypatch, check, failures):
    _break_bracket_on_n1(monkeypatch)
    result = check(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    assert result.details == {"samples": SAMPLES, "failures": failures}


def test_constant_extraction_counts_failing_samples(monkeypatch):
    extract = reductions.constant_extraction

    def wrong(f):
        alpha, gamma = extract(f)
        return alpha, gamma + 1 if f.n == 1 else gamma

    monkeypatch.setattr(reductions, "constant_extraction", wrong)
    result = verify.check_constant_extraction(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    assert result.details == {"samples": SAMPLES, "failures": 5}


def test_linear_extraction_counts_failing_instances(monkeypatch):
    extract = reductions.linear_extraction

    def wrong(f, i):
        beta, lam, g = extract(f, i)
        return beta, lam + 1, g

    monkeypatch.setattr(reductions, "linear_extraction", wrong)
    result = verify.check_linear_extraction(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    # every (f, i) instance fails, and there are more instances than samples
    assert result.details == {"samples": SAMPLES, "instances": 56, "failures": 56}


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
    # brackets are broken
    _break_bracket_on_n1(monkeypatch)
    result = verify.check_membership(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    assert result.details == {"generators_ok": True, "fixtures_ok": True,
                              "bracket_samples": SAMPLES, "bracket_failures": 13}


def test_grammar_roundtrip_counts_random_and_fixed_failures(monkeypatch):
    fmt = verify.format_derivation

    def wrong(d):
        return fmt(d + Derivation.partial(d.n, 1) if d.n == 2 else d)

    monkeypatch.setattr(verify, "format_derivation", wrong)
    result = verify.check_grammar_roundtrip(_rng(), N_MAX, SAMPLES)
    assert result.passed is False
    # four of the five fixed corpus entries are over n = 2
    assert result.details == {"corpus": SAMPLES + 5, "failures": 11 + 4}


def test_derived_chain_checks_recheck_every_n(monkeypatch):
    report = verify.verify_paper(3, 0)
    names = [c.name for c in report.checks if c.name.startswith("derived_chain")]
    assert names == [f"derived_chain_witness_n{n}" for n in (1, 2, 3)]
    assert all(c.passed and c.details["checked"] for c in report.checks
               if c.name in names)
    # the check runs on the JSON form, so a bracket that breaks its
    # relations fails it even though the search itself used the row kernel
    _break_bracket_on_n1(monkeypatch)
    result = verify.check_derived_chain_witness(1)
    assert result.passed is False and result.details["checked"] is False


def test_derived_chain_check_fails_an_inconclusive_search(monkeypatch):
    monkeypatch.setattr(canonical, "derived_chain_witness",
                        lambda n: canonical.InconclusiveSearch("single_term_exhausted", 2))
    result = verify.check_derived_chain_witness(2)
    assert result.passed is False
    assert result.details == {"n": 2, "term": 3, "found": False,
                              "reason": "single_term_exhausted"}
