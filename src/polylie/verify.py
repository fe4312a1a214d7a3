"""Batch verification harness behind the `verify-paper` CLI command.

Reruns the library's identity suites, exact bracket fixtures, solvability
and sl2 certificates, derived-chain certificates for every n up to n_max,
local-nilpotency checks, membership closure sampling, and the grammar
round-trip corpus, all driven deterministically from one seed.  Produces a
Report whose JSON form is byte-for-byte reproducible for identical (inputs,
seed, version): wall-clock timing is carried separately and excluded from
the JSON unless explicitly requested.

Every sampled check runs through `_sample`, which draws one seed per sample
from the check's generator; a sample draws its inputs from its own seed
alone.  `verify_paper` runs its checks inside one `_split`: it forks one
child on another CPU for the whole run, and both processes walk the sampled
checks.  In each, this process draws and evaluates the even-indexed samples
and the child the odd ones, and the child sends one line of its counts per
check; the child skips the checks that draw nothing.  Where a fork cannot
help or is unsafe (no `os.fork`, another thread running, a single usable
CPU, a failed fork), and for a check called on its own, every sample is
evaluated in-process.  A child that dies has its share of that check
replayed here, and the checks after it run in-process.  Only outcome counts
reach a report, so it is the same on every path.  With `--timing` a report
also carries each check's wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import random
import signal
import threading
import time
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

from . import canonical, reductions, span
from .derivation import Derivation
from .grammar import format_derivation, parse_derivation
from .polyring import Polynomial, _check_n
from .sampling import (
    random_derivation,
    random_nonconstant_polynomial,
    random_polynomial,
    random_subalgebra_element,
)

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


# trial(rng, n) draws one sample's inputs from rng and gives one outcome
# per instance
Trial = Callable[[random.Random, int], Iterable[bool]]

# The other process of the running `_split`: (child pid, pipe from the child)
# in the parent, (0, pipe to the parent) in the child, None while every
# sample is evaluated in-process.  A context variable, so a thread that did
# not open the split never joins it.
_partner: contextvars.ContextVar[tuple[int, BinaryIO] | None] = contextvars.ContextVar(
    "_partner", default=None)


def _can_fork() -> bool:
    """Whether a child can take half the samples: fork exists, no other thread
    runs (forking one may deadlock, and Python 3.12+ warns), and this
    process may use more than one CPU."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _other_cpus() -> set[int]:
    """The CPUs this process may use besides the one it runs on now (Linux),
    else none.  A scheduler that does not balance load, as in a cpuset with
    sched_load_balance off, keeps a forked child on its parent's CPU, where
    the two take turns; the child moves itself to these instead."""
    try:  # field 39 of /proc/self/stat is the CPU this process last ran on
        with open("/proc/self/stat", "rb") as f:
            here = int(f.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here}
    except (OSError, AttributeError, ValueError, IndexError):
        return set()


@contextlib.contextmanager
def _split() -> Iterator[None]:
    """Share every `_sample` of the block with one forked child.

    The child runs the block too, on the CPUs of `_other_cpus`, and sends one
    line per `_sample` call to a pipe; it leaves through `os._exit` when the
    block ends or raises, never flushing the inherited stdout.  On leaving the
    block, whether it ends or raises, this process kills the child and reaps
    it.  Without `_can_fork`, or when fork fails, the block runs in-process
    alone.
    """
    if _can_fork():
        cpus = _other_cpus()
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
        else:
            if pid == 0:  # the child: the block's odd shares, then out at once
                code = 1
                try:
                    os.close(r)
                    if cpus:
                        with contextlib.suppress(OSError):
                            os.sched_setaffinity(0, cpus)
                    with open(w, "wb") as pipe:
                        _partner.set((0, pipe))
                        yield
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            _partner.set((pid, open(r, "rb")))
    try:
        yield
    finally:
        _drop_partner()


def _drop_partner() -> None:
    """Kill and reap the child of the running `_split`, if it has one; the
    samples that follow are evaluated in-process."""
    partner = _partner.get()
    if partner is not None:
        pid, pipe = partner
        _partner.set(None)
        os.kill(pid, signal.SIGKILL)  # it is unreaped, so the pid is still its
        os.waitpid(pid, 0)
        pipe.close()


def _in_child() -> bool:
    """Whether this process is the child of the running `_split`."""
    partner = _partner.get()
    return partner is not None and partner[0] == 0


def _send(pipe: BinaryIO, counts: tuple[int, int]) -> None:
    """One line, b"<instances> <failures>\\n", flushed at once, so the parent
    never waits for a buffer to fill."""
    pipe.write(b"%d %d\n" % counts)
    pipe.flush()


def _sample(rng: random.Random, n_max: int, samples: int, trial: Trial) -> tuple[int, int]:
    """(instances, failures) over samples trials, each on a fresh n in 1..n_max.

    Every path first draws one 64-bit seed per sample from rng, so rng ends
    where it does on every other path.  Sample k re-seeds one generator with
    the k-th seed and draws its n and its inputs from it, so it is the same
    sample whichever process runs it.  Inside a `_split`, this process runs the
    even samples and the child the odd ones; the child sends the counts of
    its share as one line, and this process reads it after its own share and
    adds them.  A line without its newline means the child has died: its
    share is run here, and the child is dropped, so later samples are
    evaluated in-process.  Outside a split, every sample is evaluated
    in-process.  Outcomes are only counted, so every path gives the same
    figures.
    """
    seeds = [rng.getrandbits(64) for _ in range(samples)]
    own = random.Random()

    def share(parity: int | None) -> tuple[int, int]:
        """Run the samples with index = parity mod 2, or all for None, and
        count their instances and failures."""
        outcomes: list[bool] = []
        for seed in seeds if parity is None else seeds[parity::2]:
            own.seed(seed)
            outcomes.extend(trial(own, own.randint(1, n_max)))
        return len(outcomes), outcomes.count(False)

    partner = _partner.get()
    if partner is None:
        return share(None)
    if _in_child():
        counts = share(1)
        _send(partner[1], counts)
        return counts
    instances, failures = share(0)
    line = partner[1].readline()
    if line.endswith(b"\n"):
        theirs = tuple(map(int, line.split()))
    else:  # cut short: the child has died
        _drop_partner()
        theirs = share(1)
    return instances + theirs[0], failures + theirs[1]


def _sampled_check(name: str, rng: random.Random, n_max: int, samples: int,
                   trial: Trial) -> CheckResult:
    """A check that is its trial alone, failing on any failed sample."""
    _, failures = _sample(rng, n_max, samples, trial)
    return CheckResult(name, failures == 0, {"samples": samples, "failures": failures})


def check_scaled_bracket_identity(rng: random.Random, n_max: int,
                                  samples: int) -> CheckResult:
    """[aD1, bD2] = ab[D1,D2] + a D1(b) D2 - b D2(a) D1, exactly."""
    def trial(rng, n):
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        d1 = random_derivation(rng, n, 4)
        d2 = random_derivation(rng, n, 4)
        lhs = (a * d1).bracket(b * d2)
        rhs = (a * b) * d1.bracket(d2) + (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1
        return [lhs == rhs]

    return _sampled_check("scaled_bracket_identity", rng, n_max, samples, trial)


def check_scaled_bracket_commuting_case(rng: random.Random, n_max: int,
                                        samples: int) -> CheckResult:
    """Commuting coordinate fields: [a d_i, b d_j] = a d_i(b) d_j - b d_j(a) d_i."""
    def trial(rng, n):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        d1 = Derivation.partial(n, i)
        d2 = Derivation.partial(n, j)
        lhs = (a * d1).bracket(b * d2)
        rhs = (a * d1.apply(b)) * d2 - (b * d2.apply(a)) * d1
        return [lhs == rhs]

    return _sampled_check("scaled_bracket_commuting_case", rng, n_max, samples, trial)


def check_bracket_composition_oracle(rng: random.Random, n_max: int,
                                     samples: int) -> CheckResult:
    """apply([D,E], x_i) = D(E(x_i)) - E(D(x_i)) for every variable."""
    def trial(rng, n):
        d = random_derivation(rng, n, 3)
        e = random_derivation(rng, n, 3)
        br = d.bracket(e)
        xs = (Polynomial.variable(n, i) for i in range(1, n + 1))
        return [all(br.apply(x) == d.apply(e.apply(x)) - e.apply(d.apply(x)) for x in xs)]

    return _sampled_check("bracket_composition_oracle", rng, n_max, samples, trial)


def check_bracket_antisymmetry_jacobi(rng: random.Random, n_max: int,
                                      samples: int) -> CheckResult:
    def trial(rng, n):
        d = random_derivation(rng, n, 3)
        e = random_derivation(rng, n, 3)
        f = random_derivation(rng, n, 3)
        de = d.bracket(e)
        if de != -(e.bracket(d)):
            return [False]
        cyclic = d.bracket(e.bracket(f)) + e.bracket(f.bracket(d)) + f.bracket(de)
        return [cyclic.is_zero()]

    return _sampled_check("bracket_antisymmetry_jacobi", rng, n_max, samples, trial)


def check_constant_extraction(rng: random.Random, n_max: int,
                              samples: int) -> CheckResult:
    def trial(rng, n):
        f = random_nonconstant_polynomial(rng, n, 5)
        alpha, gamma = reductions.constant_extraction(f)
        return [gamma != 0 and f.diff_multi(alpha) == Polynomial.constant(n, gamma)]

    return _sampled_check("constant_extraction_random", rng, n_max, samples, trial)


def check_linear_extraction(rng: random.Random, n_max: int,
                            samples: int) -> CheckResult:
    """One instance per sample f and variable x_i that f depends on."""
    def trial(rng, n):
        f = random_nonconstant_polynomial(rng, n, 5)

        def instance(i):
            beta, lam, g = reductions.linear_extraction(f, i)
            return (lam != 0
                    and g.degree_in(i) in (None, 0)
                    and f.diff_multi(beta) == lam * Polynomial.variable(n, i) + g)
        return [instance(i) for i in range(1, n + 1) if (f.degree_in(i) or 0) >= 1]

    checked, failures = _sample(rng, n_max, samples, trial)
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
    for d, e, expected in cases:
        got = d.bracket(e)
        results.append({
            "lhs": f"[{d}, {e}]",
            "got": str(got),
            "expected": str(expected),
            "ok": got == expected,
        })
    return CheckResult("bracket_fixtures", all(r["ok"] for r in results),
                       {"cases": results})


def check_solvability_fixtures() -> CheckResult:
    """span{d1, x1 d1} is solvable of length 2; span{d1, x1 d1, x1^2 d1} is sl2.

    The sl2 triple is the paper's case-2 triple, written out as (d1,
    -x1^2 d1, -2 x1 d1); its certificate is its shape, and the derived
    series of span{d1, x1 d1, x1^2 d1} shows that copy of sl2 never
    reaches zero.
    """
    n = 1
    d1 = Derivation.partial(n, 1)
    x1d1 = parse_derivation("(x1) d1", n)
    x1sq = parse_derivation("(x1^2) d1", n)

    solvable = span.derived_series(span.lie_closure([d1, x1d1]))
    sl2 = span.derived_series(span.lie_closure([d1, x1d1, x1sq]))
    cert = reductions.sl2_check(d1, -x1sq, -2 * x1d1, 1)
    certified = isinstance(cert, reductions.Sl2Certificate)

    details = {
        "affine_span": solvable.to_dict(),
        "sl2_span": sl2.to_dict(),
        "sl2_certificate": cert.to_dict() if certified else None,
    }
    ok = (solvable.verdict == "solvable" and solvable.length == 2
          and certified and sl2.verdict == "stabilized_nonzero" and sl2.dims[0] == 3)
    return CheckResult("solvability_fixtures", ok, details)


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
        d = random_subalgebra_element(rng, "un", n, degree_cap)
        bound = canonical.triangular_chain_bound(n, degree_cap)
        return [canonical.lnd_check(d, bound).status == "witness"]

    _, failures = _sample(rng, n_max, samples, trial)
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
        return [_inside(which, d.bracket(e))]

    _, closure_failures = _sample(rng, n_max, samples, trial)
    ok = gen_ok and fixtures_ok and closure_failures == 0
    return CheckResult("membership", ok,
                       {"generators_ok": gen_ok, "fixtures_ok": fixtures_ok,
                        "bracket_samples": samples,
                        "bracket_failures": closure_failures})


def check_grammar_roundtrip(rng: random.Random, n_max: int,
                            corpus_size: int) -> CheckResult:
    def roundtrips(d: Derivation) -> bool:
        return parse_derivation(format_derivation(d), d.n) == d

    def trial(rng, n):
        return [roundtrips(random_derivation(rng, n, 4))]

    _, failures = _sample(rng, n_max, corpus_size, trial)
    fixed = [
        ("(x1^2) d2 + (x1+1) d1", 2),
        ("(1/2 x1 - x2^3) d1", 2),
        ("d1", 3),
        ("0", 2),
        ("(-2 x1 x2) d2 + (x1^2) d1", 2),
    ]
    failures += sum(not roundtrips(parse_derivation(text, n)) for text, n in fixed)
    return CheckResult("grammar_roundtrip", failures == 0,
                       {"corpus": corpus_size + len(fixed), "failures": failures})


def verify_paper(n_max: int = 2, seed: int = 0) -> Report:
    """Run every check deterministically from the seed and collect a Report,
    timing each check and the whole run."""
    _check_n(n_max)
    samples = 200
    started = time.perf_counter()
    rng = random.Random(seed)
    calls = [
        (check_scaled_bracket_identity, rng, n_max, samples),
        (check_scaled_bracket_commuting_case, rng, n_max, samples),
        (check_bracket_composition_oracle, rng, n_max, samples),
        (check_bracket_antisymmetry_jacobi, rng, n_max, samples),
        (check_constant_extraction, rng, n_max, 50),
        (check_linear_extraction, rng, n_max, 50),
        (check_bracket_fixtures,),
        (check_solvability_fixtures,),
        *((check_derived_chain_witness, n) for n in range(1, n_max + 1)),
        (check_lnd, rng, n_max, 50),
        (check_membership, rng, n_max, 100),
        (check_grammar_roundtrip, rng, n_max, 50),
    ]
    checks = []
    with _split():
        for check, *args in calls:
            if _in_child() and rng not in args:
                continue  # a check that draws nothing has no share here
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
