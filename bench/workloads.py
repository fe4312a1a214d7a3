"""The benchmark's workloads: CLI command lists built from a seed, and the
untimed checks that re-verify each command's JSON output from its text alone.

Inputs reach the program only as CLI text.  The `closure-un4` generating sets
are built here, not by `polylie.sampling`, so a change to the library cannot
change the workload.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

OK = "ok"
INCONCLUSIVE = "inconclusive"

# verify-n3: one verify-paper command per consecutive seed S, S+1, ...
VERIFY_N = 3
VERIFY_SEEDS = 4

# witness-n3: the derived-chain search at a size that runs in seconds.  The
# paper's target (term 2n-1 = 5) takes minutes today and stays out.
WITNESS_N = 3
WITNESS_TERM = 2
WITNESS_DEGREE_CAP = 4

# closure-un4: generating sets of 6 rational combinations of the un(4, 2)
# monomial generators.  Which generators each element combines is fixed by
# CLOSURE_SHAPE_SEED, so every run meets the same spread of closure sizes; the
# run's --seed draws the rational coefficients.  Supports drawn afresh per
# seed make the closure dimension (6 to 48) and so the run time swing by 20x
# between seeds, which no bound could absorb.
CLOSURE_N = 4
CLOSURE_DEGREE = 2
CLOSURE_SETS = 3
CLOSURE_SET_SIZE = 6
CLOSURE_SHAPE_SEED = 2310


class CheckFailed(Exception):
    """An output did not re-verify."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[list[str]]]
    # consecutive commands checked together (a plain and a --lower series)
    group: int
    # (argvs, stdouts, library modules) of one group -> a status per command;
    # raises CheckFailed
    check: Callable[[list[list[str]], list[str], dict], list[str]]


def _doc(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- verify-n3 -----------------------------------------------------------------


def verify_commands(seed: int) -> list[list[str]]:
    return [["verify-paper", "--n", str(VERIFY_N), "--seed", str(seed + k),
             "--format", "json"] for k in range(VERIFY_SEEDS)]


def verify_check(argvs, outputs, lib) -> list[str]:
    import jsonschema  # imported here, so set-up times only polylie's imports

    statuses = []
    for argv, out in zip(argvs, outputs):
        doc = _doc(out)
        try:
            jsonschema.validate(doc, lib["verify"].REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"report schema: {exc.message}") from None
        _require(doc["inputs"] == {"n_max": VERIFY_N, "seed": int(argv[4])},
                 f"report inputs {doc['inputs']} do not echo the command")
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        _require(doc["passed"] and not failed, f"checks failed: {failed}")
        statuses.append(OK)
    return statuses


# -- witness-n3 ----------------------------------------------------------------


def witness_commands(seed: int) -> list[list[str]]:
    return [["witness", "--n", str(WITNESS_N), "--term", str(WITNESS_TERM),
             "--degree-cap", str(WITNESS_DEGREE_CAP), "--format", "json"]]


_SEXPR_TOKEN = re.compile(r"\[|\]|,|g(\d+)")


def _parse_sexpr(text: str):
    """Nested tuples (left, right) with int leaves: 'g3' -> 2."""
    tokens = []
    pos = 0
    for m in _SEXPR_TOKEN.finditer(text):
        _require(m.start() == pos, f"bad expression at {pos}: {text!r}")
        tokens.append(int(m.group(1)) - 1 if m.group(1) else m.group(0))
        pos = m.end()
    _require(pos == len(text), f"trailing expression text: {text!r}")

    def node(i):
        tok = tokens[i]
        if isinstance(tok, int):
            return tok, i + 1
        _require(tok == "[", f"expected '[' in {text!r}")
        left, i = node(i + 1)
        _require(tokens[i] == ",", f"expected ',' in {text!r}")
        right, i = node(i + 1)
        _require(tokens[i] == "]", f"expected ']' in {text!r}")
        return (left, right), i + 1

    tree, end = node(0)
    _require(end == len(tokens), f"trailing tokens in {text!r}")
    return tree


def _leaf_depths(tree, depth=0):
    if isinstance(tree, int):
        yield depth
    else:
        yield from _leaf_depths(tree[0], depth + 1)
        yield from _leaf_depths(tree[1], depth + 1)


def witness_check(argvs, outputs, lib) -> list[str]:
    parse = lib["grammar"].parse_derivation

    def in_sn(d):
        return lib["canonical"].membership(d).in_sn

    doc = _doc(outputs[0])
    out = doc["outputs"]
    n, term = WITNESS_N, WITNESS_TERM
    _require(out.get("found") is True, "witness not found")
    _require(out["term"] == term, f"term {out['term']} != {term}")
    legend = out["legend"]
    gens = [parse(legend[f"g{i + 1}"], n) for i in range(len(legend))]
    _require(all(in_sn(g) for g in gens), "a legend generator is outside sn")
    tree = _parse_sexpr(out["expression"])
    depths = set(_leaf_depths(tree))
    _require(depths == {term}, f"leaf depths {sorted(depths)}, expected {term}")

    def evaluate(t):
        if isinstance(t, int):
            _require(0 <= t < len(gens), f"leaf g{t + 1} not in legend")
            return gens[t]
        return evaluate(t[0]).bracket(evaluate(t[1]))

    value = evaluate(tree)
    _require(value == parse(out["value"], n), "expression does not evaluate to value")
    _require(not value.is_zero(), "witness value is zero")
    _require(in_sn(value), "witness value is outside sn")
    return [OK]


# -- closure-un4 ---------------------------------------------------------------


def _un_generators(n: int, degree: int) -> list[tuple[int, tuple[int, ...]]]:
    """(slot, exponents) of every monomial m * d_i with m in x1..x_{i-1}."""
    out = []
    for slot in range(1, n + 1):
        for total in range(degree + 1):
            for combo in itertools.combinations_with_replacement(range(slot - 1), total):
                exps = [0] * n
                for pos in combo:
                    exps[pos] += 1
                out.append((slot, tuple(exps)))
    return out


def _term_text(coeff: str, slot: int, exps: tuple[int, ...]) -> str:
    mono = " ".join(f"x{p + 1}" if e == 1 else f"x{p + 1}^{e}"
                    for p, e in enumerate(exps) if e)
    return f"({coeff} {mono}) d{slot}" if mono else f"({coeff}) d{slot}"


def _rational(rng: random.Random) -> str:
    num = rng.randint(1, 9) * rng.choice((1, -1))
    den = rng.randint(1, 9)
    return f"{num}/{den}" if den > 1 else str(num)


def closure_sets(seed: int) -> list[list[str]]:
    """CLOSURE_SETS seeded generating sets, then the full un(4, 2) set."""
    gens = _un_generators(CLOSURE_N, CLOSURE_DEGREE)
    shape = random.Random(CLOSURE_SHAPE_SEED)
    supports = [[shape.sample(gens, shape.randint(1, 4))
                 for _ in range(CLOSURE_SET_SIZE)] for _ in range(CLOSURE_SETS)]
    rng = random.Random(seed)
    sets = [[" + ".join(_term_text(_rational(rng), slot, exps) for slot, exps in elem)
             for elem in support] for support in supports]
    sets.append([_term_text("1", slot, exps) for slot, exps in gens])
    return sets


def closure_commands(seed: int) -> list[list[str]]:
    cmds = []
    for gens in closure_sets(seed):
        base = ["derived-series", *gens, "--n", str(CLOSURE_N), "--format", "json"]
        cmds += [base, base + ["--lower"]]
    return cmds


def _series_dims(doc: dict) -> list[int]:
    out = doc["outputs"]
    _require(out["closure_status"] == "closed",
             f"closure ended {out['closure_status']}")
    dims = out["series"]["dims"]
    _require(dims[0] == out["dim"], "series does not start at the closure")
    _require(all(a > b for a, b in zip(dims, dims[1:])),
             f"series dims {dims} do not strictly decrease")
    return dims


def closure_check(argvs, outputs, lib) -> list[str]:
    statuses = []
    for plain_out, lower_out in zip(outputs[::2], outputs[1::2]):
        plain, lower = _doc(plain_out), _doc(lower_out)
        plain_dims, lower_dims = _series_dims(plain), _series_dims(lower)
        _require(plain["outputs"]["series"]["verdict"] == "solvable",
                 "derived series of a un closure is not solvable")
        _require(plain_dims[-1] == 0, f"solvable derived series {plain_dims} ends above 0")
        _require(plain_dims[:2] == lower_dims[:2],
                 f"step-1 dims differ: {plain_dims[:2]} vs {lower_dims[:2]}")
        statuses.append(OK)
        verdict = lower["outputs"]["series"]["verdict"]
        # un closures are nilpotent, so the lower series either reaches 0 or
        # stops at its iteration cap; the cap stop is reported as inconclusive
        _require(verdict in ("nilpotent", "cap_hit"),
                 f"lower central series verdict {verdict}")
        if verdict == "cap_hit":
            _require(lower_dims[-1] > 0, "cap_hit on a series that reached 0")
            statuses.append(INCONCLUSIVE)
        else:
            _require(lower_dims[-1] == 0, f"nilpotent lower series {lower_dims} ends above 0")
            statuses.append(OK)
    return statuses


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-n3", verify_commands, 1, verify_check),
        Workload("witness-n3", witness_commands, 1, witness_check),
        Workload("closure-un4", closure_commands, 2, closure_check),
    )
}
