"""Failure paths of the `verify` checks, and the two-process sampler.

Each sampled-check test breaks one library function on part of the samples
and runs one check from a fixed seed.  The check must fail, count exactly
the broken trials, and keep its details keys, so a change to how the checks
sample cannot silently change what `failures` counts.  Every one of the nine
sampled checks must count the same in-process and inside a `_split` that
forks one child.  The derived-chain checks must fail on a broken bracket and
on an inconclusive search.

The sampler must fork once per `verify_paper` run and give the pinned
reports on every path: forked, without `os.fork`, on one CPU, with a failed
fork, or with a child that dies or cuts its line short at any check.  It
must leave no child behind, even when a run raises, never wait on a child
that stalls, and leave the generator one 64-bit draw per sample on.  Each
sample comes from its own seed, so this process draws only the even samples
and the child only the odd ones, and the child runs only the sampled checks.
"""

import io
import os
import random
import subprocess
import sys
import time

import pytest

from polylie import canonical, reductions, verify
from polylie.derivation import Derivation
from polylie.polyring import Polynomial

from golden import GOLDEN_REPORTS, render_report

SEED = 5
N_MAX = 3
SAMPLES = 30


def _rng():
    return random.Random(SEED)


@pytest.fixture
def forks(monkeypatch):
    """Take the forked path on any host: report two CPUs, and record the pid
    of every child forked."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    children = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return children


def _both_paths(forks, check):
    """check(rng, N_MAX, SAMPLES) in-process and inside a `_split` that forks
    one child; the two results must be equal, and that result is returned."""
    serial = check(_rng(), N_MAX, SAMPLES)
    assert not forks
    with verify._split():
        forked = check(_rng(), N_MAX, SAMPLES)
    assert len(forks) == 1
    assert forked == serial
    return serial


def _in_child(act):
    """A function that calls act() in every process but this one."""
    parent = os.getpid()

    def maybe():
        if os.getpid() != parent:
            act()
    return maybe


def _stall_once():
    """A function that sleeps 20 s on its first call, then does nothing."""
    calls = []

    def stall():
        if not calls:
            calls.append(None)
            time.sleep(20)
    return stall


def _before_bracket(monkeypatch, act, in_parent: bool):
    """Derivation.bracket calls act() first: in this process if in_parent,
    else in every other process."""
    parent = os.getpid()
    bracket = Derivation.bracket

    def patched(self, other):
        if (os.getpid() == parent) == in_parent:
            act()
        return bracket(self, other)

    monkeypatch.setattr(Derivation, "bracket", patched)


def _break_bracket_on_n1(monkeypatch):
    """[D, E] gains a stray x1^2 d1 term, outside un and sn, when n = 1."""
    bracket = Derivation.bracket

    def wrong(self, other):
        out = bracket(self, other)
        return out + Derivation.partial(1, 1) * Polynomial(1, {(2,): 1}) if self.n == 1 else out

    monkeypatch.setattr(Derivation, "bracket", wrong)


BRACKET_IDENTITY_FAILURES = [
    (verify.check_scaled_bracket_identity, 9),
    (verify.check_scaled_bracket_commuting_case, 9),
    (verify.check_bracket_composition_oracle, 9),
    (verify.check_bracket_antisymmetry_jacobi, 9),
]


@pytest.mark.parametrize("check, failures", BRACKET_IDENTITY_FAILURES,
                         ids=[check.__name__ for check, _ in BRACKET_IDENTITY_FAILURES])
def test_bracket_identities_count_failing_samples(monkeypatch, forks, check, failures):
    _break_bracket_on_n1(monkeypatch)
    with verify._split():
        result = check(_rng(), N_MAX, SAMPLES)
    assert len(forks) == 1
    assert result.passed is False
    assert result.details == {"samples": SAMPLES, "failures": failures}


def test_bracket_identities_count_failing_samples_in_process(monkeypatch):
    _break_bracket_on_n1(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    for check, failures in BRACKET_IDENTITY_FAILURES:
        assert check(_rng(), N_MAX, SAMPLES).details["failures"] == failures


def test_constant_extraction_counts_failing_samples(monkeypatch, forks):
    extract = reductions.constant_extraction

    def wrong(f):
        alpha, gamma = extract(f)
        return alpha, gamma + 1 if f.n == 1 else gamma

    monkeypatch.setattr(reductions, "constant_extraction", wrong)
    result = _both_paths(forks, verify.check_constant_extraction)
    assert result.passed is False
    assert result.details == {"samples": SAMPLES, "failures": 9}


def test_linear_extraction_counts_failing_instances(monkeypatch, forks):
    extract = reductions.linear_extraction

    def wrong(f, i):
        beta, lam, g = extract(f, i)
        return beta, lam + 1, g

    monkeypatch.setattr(reductions, "linear_extraction", wrong)
    result = _both_paths(forks, verify.check_linear_extraction)
    assert result.passed is False
    # every (f, i) instance fails, and there are more instances than samples
    assert result.details == {"samples": SAMPLES, "instances": 52, "failures": 52}


def test_lnd_counts_failing_samples(monkeypatch, forks):
    # a two-step bound still kills every chain for n = 1 (constant d1
    # multiples), but leaves most larger un elements without a witness
    monkeypatch.setattr(canonical, "triangular_chain_bound", lambda n, cap: 2)
    result = _both_paths(forks, verify.check_lnd)
    assert result.passed is False
    assert result.details == {"samples": SAMPLES, "failures": 6,
                              "euler_refuted": True, "euler_certified": True}


def test_membership_counts_failing_brackets(monkeypatch, forks):
    # generators and fixtures are never bracketed, so only the sampled
    # brackets are broken
    _break_bracket_on_n1(monkeypatch)
    result = _both_paths(forks, verify.check_membership)
    assert result.passed is False
    assert result.details == {"generators_ok": True, "fixtures_ok": True,
                              "bracket_samples": SAMPLES, "bracket_failures": 9}


def test_grammar_roundtrip_counts_random_and_fixed_failures(monkeypatch, forks):
    fmt = verify.format_derivation

    def wrong(d):
        return fmt(d + Derivation.partial(d.n, 1) if d.n == 2 else d)

    monkeypatch.setattr(verify, "format_derivation", wrong)
    result = _both_paths(forks, verify.check_grammar_roundtrip)
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


# -- the two-process sampler ---------------------------------------------------


def _no_child_left():
    assert verify._partner.get() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [42, 977])
def test_reports_without_fork(monkeypatch, seed):
    monkeypatch.delattr(os, "fork", raising=False)
    assert render_report(seed) == GOLDEN_REPORTS[seed].read_text()


@pytest.mark.parametrize("seed", [42, 977])
def test_reports_on_the_forked_path(forks, seed):
    assert render_report(seed) == GOLDEN_REPORTS[seed].read_text()
    # one child for the whole run, sharing all nine sampled checks
    assert len(forks) == 1


def test_a_child_that_dies_is_replayed(monkeypatch, forks):
    _before_bracket(monkeypatch, lambda: os._exit(3), in_parent=False)
    assert render_report(42) == GOLDEN_REPORTS[42].read_text()
    assert len(forks) == 1


def test_a_child_that_dies_at_a_middle_check_is_replayed(monkeypatch, forks):
    # the child dies in its share of local_nilpotency, after sending its
    # lines of the six sampled checks before it; that share is replayed
    # here, and the checks after it run in-process
    partnered = {}

    def seen(check):
        def wrapper(*args):
            partnered[check.__name__] = verify._partner.get() is not None
            return check(*args)
        return wrapper

    lnd_check = canonical.lnd_check
    dies = _in_child(lambda: os._exit(3))

    def dying(d, bound):
        dies()
        return lnd_check(d, bound)

    monkeypatch.setattr(canonical, "lnd_check", dying)
    for name in ("check_linear_extraction", "check_lnd", "check_membership"):
        monkeypatch.setattr(verify, name, seen(getattr(verify, name)))
    assert render_report(42) == GOLDEN_REPORTS[42].read_text()
    assert len(forks) == 1
    assert partnered == {"check_linear_extraction": True, "check_lnd": True,
                         "check_membership": False}
    _no_child_left()


def test_a_record_cut_short_is_replayed(monkeypatch, forks):
    # the child's fifth line comes without its newline, then the child dies;
    # the line claims one failure more than the child saw, so a parent that
    # read it as counts would fail constant_extraction_random, and the
    # pinned report shows that the child's share was replayed instead
    send = verify._send
    lines = []

    def cut_short(pipe, counts):
        lines.append(counts)
        if len(lines) < 5:
            return send(pipe, counts)
        instances, failures = counts
        whole = io.BytesIO()
        send(whole, (instances, failures + 1))
        pipe.write(whole.getvalue()[:-1])
        pipe.flush()
        os._exit(3)

    monkeypatch.setattr(verify, "_send", cut_short)
    assert render_report(977) == GOLDEN_REPORTS[977].read_text()
    assert len(forks) == 1
    _no_child_left()


def test_a_dead_childs_failures_are_counted(monkeypatch, forks):
    # the child's samples are replayed here, so its broken ones still count
    _break_bracket_on_n1(monkeypatch)
    _before_bracket(monkeypatch, lambda: os._exit(3), in_parent=False)
    with verify._split():
        result = verify.check_bracket_antisymmetry_jacobi(_rng(), N_MAX, SAMPLES)
    assert len(forks) == 1
    assert result.details == {"samples": SAMPLES, "failures": 9}


def test_a_single_cpu_samples_in_process(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert render_report(42) == GOLDEN_REPORTS[42].read_text()
    assert not forks


def test_a_failed_fork_samples_in_process(monkeypatch):
    def fails():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", fails, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert render_report(42) == GOLDEN_REPORTS[42].read_text()
    assert verify._partner.get() is None


@pytest.mark.parametrize("broken", [False, True])
def test_no_child_outlives_a_run(monkeypatch, forks, broken):
    if broken:
        _break_bracket_on_n1(monkeypatch)
    assert verify.verify_paper(2, 0).passed is not broken
    assert len(forks) == 1
    _no_child_left()


def test_no_child_outlives_a_run_that_raises(monkeypatch, forks):
    # the child stalls in its first bracket and the parent raises in its
    # own: the parent must kill the child, not wait for it
    def broken():
        raise RuntimeError("broken bracket")

    _before_bracket(monkeypatch, broken, in_parent=True)
    _before_bracket(monkeypatch, _stall_once(), in_parent=False)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="broken bracket"):
        verify.verify_paper(2, 0)
    assert time.monotonic() - started < 10
    assert len(forks) == 1
    _no_child_left()


def test_the_child_sends_each_record_at_once(forks):
    # the child stalls after its first line: that line must reach the
    # parent at once, not when the child's buffer is flushed at its exit,
    # and leaving the split must not wait for the child
    stalls = _in_child(_stall_once())
    started = time.monotonic()
    with verify._split():
        split = verify._sample(_rng(), N_MAX, SAMPLES, _uneven_trial)
        stalls()
    assert time.monotonic() - started < 10
    assert split == verify._sample(_rng(), N_MAX, SAMPLES, _uneven_trial)
    assert len(forks) == 1
    _no_child_left()


def _uneven_trial(rng, n):
    """0..2n instances a sample, some failing: the child's counts vary from
    share to share."""
    return [rng.random() < 0.7 for _ in range(rng.randint(0, 2 * n))]


def test_a_split_leaves_the_generator_where_a_serial_loop_does(forks):
    # two samples in one split: the second draws from where the first left rng
    rng = _rng()
    with verify._split():
        split = [verify._sample(rng, N_MAX, SAMPLES, _uneven_trial) for _ in range(2)]
    split_state = rng.getstate()
    assert len(forks) == 1
    rng = _rng()
    serial = [verify._sample(rng, N_MAX, SAMPLES, _uneven_trial) for _ in range(2)]
    assert len(forks) == 1
    assert (split, split_state) == (serial, rng.getstate())
    assert split[0] != split[1]
    instances, failures = serial[0]
    assert instances > SAMPLES and 0 < failures < instances


def _sample_states():
    """The state of sample k's generator once it has drawn its n, for every k
    of a `_sample(_rng(), N_MAX, SAMPLES, ...)` call."""
    rng = _rng()
    states = []
    for seed in [rng.getrandbits(64) for _ in range(SAMPLES)]:
        own = random.Random(seed)
        own.randint(1, N_MAX)
        states.append(own.getstate())
    return states


def test_the_parent_draws_only_the_even_samples(forks):
    # a trial records which sample it is running, from its generator's
    # state; the child's records stay in the child
    states = _sample_states()
    seen = []

    def trial(rng, n):
        seen.append(states.index(rng.getstate()))
        return _uneven_trial(rng, n)

    serial = verify._sample(_rng(), N_MAX, SAMPLES, trial)
    assert seen == list(range(SAMPLES))
    seen.clear()
    with verify._split():
        split = verify._sample(_rng(), N_MAX, SAMPLES, trial)
    assert len(forks) == 1
    assert seen == list(range(0, SAMPLES, 2))
    assert split == serial


@pytest.mark.parametrize("late", ["parent", "child"])
def test_a_samples_outcome_depends_on_its_seed_alone(forks, late):
    # one process starts its share 0.2 s late, so the other runs its share
    # first; the counts are those of a serial loop either way
    parent = os.getpid()
    waits = []

    def trial(rng, n):
        if not waits and (os.getpid() == parent) == (late == "parent"):
            waits.append(None)
            time.sleep(0.2)
        return _uneven_trial(rng, n)

    serial = verify._sample(_rng(), N_MAX, SAMPLES, _uneven_trial)
    with verify._split():
        split = verify._sample(_rng(), N_MAX, SAMPLES, trial)
    assert len(forks) == 1
    assert split == serial


def test_every_path_leaves_the_generator_after_one_draw_per_sample(forks):
    expected = _rng()
    for _ in range(SAMPLES):
        expected.getrandbits(64)
    rng = _rng()
    verify._sample(rng, N_MAX, SAMPLES, _uneven_trial)
    assert rng.getstate() == expected.getstate()
    rng = _rng()
    with verify._split():
        verify._sample(rng, N_MAX, SAMPLES, _uneven_trial)
    assert rng.getstate() == expected.getstate()
    dies = _in_child(lambda: os._exit(3))

    def dying(rng, n):
        dies()
        return _uneven_trial(rng, n)

    rng = _rng()
    with verify._split():
        verify._sample(rng, N_MAX, SAMPLES, dying)
    assert len(forks) == 2
    assert rng.getstate() == expected.getstate()
    _no_child_left()


def test_the_child_skips_the_checks_that_draw_nothing(monkeypatch, forks, tmp_path):
    # each wrapped check appends its name and the pid that runs it to a
    # file, from either process; only the sampled check runs in the child
    ran = tmp_path / "pids"
    names = ("check_bracket_fixtures", "check_solvability_fixtures",
             "check_derived_chain_witness", "check_lnd")

    def recorded(name, check):
        def wrapper(*args):
            with open(ran, "a") as f:
                f.write(f"{name} {os.getpid()}\n")
            return check(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(verify, name, recorded(name, getattr(verify, name)))
    assert verify.verify_paper(2, 0).passed
    assert len(forks) == 1
    here, child = os.getpid(), forks[0]
    assert sorted((name, int(pid)) for name, pid in map(str.split, ran.read_text().splitlines())) \
        == sorted([("check_bracket_fixtures", here), ("check_solvability_fixtures", here),
                   ("check_derived_chain_witness", here), ("check_derived_chain_witness", here),
                   ("check_lnd", here), ("check_lnd", child)])


def test_cli_process_writes_the_pinned_report(module_env):
    # a real process with stdout on a pipe: a child that flushed the
    # inherited stdout buffer would write its bytes a second time
    proc = subprocess.run(
        [sys.executable, "-m", "polylie", "verify-paper", "--n", "3", "--seed", "42",
         "--format", "json"],
        stdout=subprocess.PIPE, env=module_env, check=True, timeout=120)
    assert proc.stdout == GOLDEN_REPORTS[42].read_bytes()


def test_the_child_never_flushes_the_inherited_stdout(module_env):
    # bytes still buffered for stdout when the child is forked must be
    # written once, by this process alone
    code = ("import sys\n"
            "from polylie import verify\n"
            "assert verify._can_fork()\n"
            "sys.stdout.write('once\\n')\n"
            "verify.verify_paper(1, 0)\n")
    if not verify._can_fork():
        pytest.skip("verify-paper forks no child here")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=module_env, check=True, timeout=120)
    assert proc.stdout == b"once\n"
