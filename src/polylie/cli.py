"""Command-line front end.

One subcommand per library operation, a shared expression grammar for
polynomial and derivation operands, and a `verify-paper` batch harness.
Output is human text by default or a single JSON document with
`--format json`.

A command imports the modules it runs.  At module level this file imports
only what the parser and the operand parsing need (`grammar`, and `span` for
the cap defaults); `canonical`, `reductions` and `verify` are imported
inside the commands that call them, so a one-shot `bracket`, `closure` or
`derived-series` process never loads them.

Exit codes: 0 on success (and all-pass for verifying commands), 1 when a
verifying command ends negative (failed check, mismatch, nothing found or an
inconclusive answer), 2 for usage, syntax, or precondition errors, and 141
(128 + SIGPIPE, as a shell reports a writer the signal ended) when the reader
closes stdout before the output is written; that exit prints nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import span
from .grammar import parse_derivation, parse_polynomial

# version of the JSON document the single-operation commands print;
# verify-paper prints a Report, versioned by verify.SCHEMA_VERSION
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CLOSED_STDOUT = 141

# `witness` prints the expanded tree up to this many leaves: the tree has
# 2^term leaves, 32768 at n = 8.  A larger witness prints the tree and its
# value as null beside its certificate, which stays small.
WITNESS_LEAF_LIMIT = 1 << 15


def _command(sub, name: str, func, help_text: str, *operands: str) -> argparse.ArgumentParser:
    """A subcommand running func on its operands, with --n and --format."""
    p = sub.add_parser(name, help=help_text)
    for operand in operands:
        p.add_argument(operand)
    p.add_argument("--n", type=int, required=True, help="ambient number of variables")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")
    p.set_defaults(func=func)
    return p


def _emit(args, command: str, inputs: dict, outputs: dict, lines: list[str]) -> None:
    """Print either the human lines or one JSON document.

    `inputs` echoes every parsed operand in canonical text, so a JSON
    consumer can re-parse exactly what the command computed on.
    """
    if args.format == "json":
        doc = {"schema": SCHEMA_VERSION, "command": command, "n": args.n,
               "inputs": inputs, "outputs": outputs}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_bracket(args) -> int:
    d1 = parse_derivation(args.d1, args.n)
    d2 = parse_derivation(args.d2, args.n)
    result = d1.bracket(d2)
    _emit(args, "bracket", {"d1": str(d1), "d2": str(d2)},
          {"result": str(result)}, [str(result)])
    return EXIT_OK


def cmd_apply(args) -> int:
    d = parse_derivation(args.deriv, args.n)
    f = parse_polynomial(args.poly, args.n)
    result = d.apply(f)
    _emit(args, "apply", {"deriv": str(d), "poly": str(f)},
          {"result": str(result)}, [str(result)])
    return EXIT_OK


def cmd_index(args) -> int:
    if args.poly:
        operand = parse_polynomial(args.expr, args.n)
    else:
        operand = parse_derivation(args.expr, args.n)
    value = operand.index()
    _emit(args, "index", {"expr": str(operand), "kind": "poly" if args.poly else "deriv"},
          {"index": value}, [str(value) if value is not None else "none"])
    return EXIT_OK


def cmd_member(args) -> int:
    from . import canonical
    d = parse_derivation(args.deriv, args.n)
    verdict = canonical.membership(d)
    lines = [f"in_un: {verdict.in_un}", f"in_sn: {verdict.in_sn}"]
    for slot, reason in verdict.violations:
        lines.append(f"violation at slot {slot}: {reason}")
    _emit(args, "member", {"deriv": str(d)}, verdict.to_dict(), lines)
    return EXIT_OK


def cmd_lnd(args) -> int:
    from . import canonical
    d = parse_derivation(args.deriv, args.n)
    verdict = canonical.lnd_check(d, args.bound)
    outputs: dict = {"status": verdict.status, "bound": verdict.bound}
    lines = [f"status: {verdict.status} (bound {verdict.bound})"]
    if verdict.witness is not None:
        chains = [[str(p) for p in chain] for chain in verdict.witness.chains]
        outputs["chains"] = chains
        outputs["lengths"] = list(verdict.witness.lengths)
        for i, chain in enumerate(chains, start=1):
            lines.append(f"x{i}: " + " -> ".join(chain))
    if verdict.linear_part is not None:
        outputs["linear_matrix"] = [[str(c) for c in row] for row in verdict.linear_part]
        lines.append("linear matrix: [" + ", ".join(
            f"[{', '.join(row)}]" for row in outputs["linear_matrix"]) + "]")
    _emit(args, "lnd", {"deriv": str(d), "bound": args.bound}, outputs, lines)
    return EXIT_OK


def _closure(args) -> tuple[span.LieClosureResult, dict]:
    """The closure of the command's generators under its caps, and its inputs echo."""
    gens = [parse_derivation(t, args.n) for t in args.gens]
    result = span.lie_closure(gens, degree_cap=args.degree_cap, dim_cap=args.dim_cap)
    inputs = {"gens": [str(g) for g in gens], "degree_cap": args.degree_cap,
              "dim_cap": args.dim_cap}
    return result, inputs


def cmd_closure(args) -> int:
    result, inputs = _closure(args)
    offending = result.offending_bracket
    texts = result.basis.texts()
    outputs = {
        "status": result.status,
        "dim": result.basis.dim,
        "basis": texts,
        "offending_bracket": [str(d) for d in offending] if offending else None,
    }
    lines = [f"status: {result.status}", f"dim: {result.basis.dim}"]
    lines += [f"  {text}" for text in texts]
    if offending:
        lines.append(f"offending bracket: [{offending[0]}, {offending[1]}]")
    _emit(args, "closure", inputs, outputs, lines)
    return EXIT_OK


def cmd_derived_series(args) -> int:
    closure, inputs = _closure(args)
    inputs["lower"] = args.lower
    if not closure.closed:
        outputs = {"closure_status": closure.status, "series": None}
        _emit(args, "derived-series", inputs, outputs,
              [f"closure failed: {closure.status}"])
        return EXIT_CHECK_FAILED
    series = span.lower_central_series if args.lower else span.derived_series
    report = series(closure)
    outputs = {"closure_status": "closed", "dim": closure.basis.dim,
               "basis": closure.basis.texts(),
               "series": report.to_dict()}
    lines = [f"dims: {list(report.dims)}", f"verdict: {report.verdict}"]
    if report.length is not None:
        lines.append(f"length: {report.length}")
    if report.stabilized_at is not None:
        lines.append(f"stabilized_at: {report.stabilized_at}")
    _emit(args, "derived-series", inputs, outputs, lines)
    return EXIT_OK


def cmd_extract_const(args) -> int:
    from . import reductions
    f = parse_polynomial(args.poly, args.n)
    alpha, gamma = reductions.constant_extraction(f)
    outputs = {"alpha": list(alpha), "gamma": str(gamma)}
    _emit(args, "extract-const", {"poly": str(f)}, outputs,
          [f"alpha: {list(alpha)}", f"gamma: {gamma}"])
    return EXIT_OK


def cmd_extract_linear(args) -> int:
    from . import reductions
    f = parse_polynomial(args.poly, args.n)
    beta, lam, g = reductions.linear_extraction(f, args.i)
    outputs = {"beta": list(beta), "lambda": str(lam), "g": str(g)}
    _emit(args, "extract-linear", {"poly": str(f), "i": args.i}, outputs,
          [f"beta: {list(beta)}", f"lambda: {lam}", f"g: {g}"])
    return EXIT_OK


def cmd_flatten(args) -> int:
    from . import reductions
    d = parse_derivation(args.deriv, args.n)
    result = reductions.flatten_in_variable(d, args.s, args.target)
    _emit(args, "flatten", {"deriv": str(d), "s": args.s, "target": args.target},
          {"result": str(result)}, [str(result)])
    return EXIT_OK


def cmd_strip(args) -> int:
    from . import canonical
    d = parse_derivation(args.deriv, args.n)
    remainder, stripped = canonical.strip_canonical_part(d, args.which)
    outputs = {"remainder": str(remainder), "stripped": str(stripped)}
    _emit(args, "strip", {"deriv": str(d), "which": args.which}, outputs,
          [f"remainder: {remainder}", f"stripped: {stripped}"])
    return EXIT_OK


def cmd_eigencert(args) -> int:
    from . import reductions
    d = parse_derivation(args.d, args.n)
    e = parse_derivation(args.e, args.n)
    cert = reductions.eigenvector_certificate(d, e)
    inputs = {"d": str(d), "e": str(e)}
    if cert is None:
        _emit(args, "eigencert", inputs, {"certificate": None}, ["no certificate"])
        return EXIT_CHECK_FAILED
    if not cert.verify():
        print("error: the eigenvector certificate failed its check", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(args, "eigencert", inputs, {"certificate": cert.to_dict()},
          [f"relation: {cert.relation}", f"scalar: {cert.scalar}"])
    return EXIT_OK


def cmd_sl2(args) -> int:
    from . import reductions
    triple = [parse_derivation(t, args.n) for t in (args.t1, args.t2, args.t3)]
    result = reductions.sl2_check(*triple, args.k)
    inputs = {"t1": str(triple[0]), "t2": str(triple[1]), "t3": str(triple[2]),
              "k": args.k}
    if isinstance(result, reductions.Sl2Mismatch):
        _emit(args, "sl2", inputs, {"certificate": None, "mismatch": result.reason},
              [f"mismatch: {result.reason}"])
        return EXIT_CHECK_FAILED
    _emit(args, "sl2", inputs,
          {"certificate": result.to_dict(), "mismatch": None}, ["certificate: ok"])
    return EXIT_OK


def _witness_tree(cert) -> dict:
    """The certificate's DAG expanded to a tree over its leaves, named g1,
    g2, ... in node order, and the tree's value: the root, as every c is 1.
    Above the printed size both are null, with the reason."""
    leaves = [i for i, node in enumerate(cert.nodes) if node[1] is None]
    names = {i: f"g{k}" for k, i in enumerate(leaves, start=1)}
    out = {"legend": {names[i]: str(cert.nodes[i][0]) for i in leaves},
           "expression": None, "value": None, "omitted": None}
    sizes: list[int] = []
    for _, left, right, *_ in cert.nodes:
        sizes.append(1 if left is None else sizes[left] + sizes[right])
    if sizes[-1] > WITNESS_LEAF_LIMIT:
        out["omitted"] = (f"the tree has {sizes[-1]} leaves, above the "
                          f"{WITNESS_LEAF_LIMIT} printed")
        return out
    trees: list[str] = []
    for i, (_, left, right, *_) in enumerate(cert.nodes):
        trees.append(names[i] if left is None else f"[{trees[left]},{trees[right]}]")
    out.update(expression=trees[-1], value=str(cert.root))
    return out


def cmd_witness(args) -> int:
    from . import canonical
    term = canonical.lower_bound_term(args.n) if args.term is None else args.term
    result = canonical.derived_chain_witness(args.n, term=term, degree_cap=args.degree_cap)
    inputs = {"term": term, "degree_cap": args.degree_cap}
    if isinstance(result, canonical.InconclusiveSearch):
        _emit(args, "witness", inputs,
              {"found": False, "status": "inconclusive", "reason": result.reason,
               "depth": result.depth},
              [f"not found: inconclusive ({result.reason} at depth {result.depth})"])
        return EXIT_CHECK_FAILED
    certificate = result.to_dict()
    if not canonical.DerivedChainCertificate.check(certificate):
        print("error: the witness certificate failed its check", file=sys.stderr)
        return EXIT_CHECK_FAILED
    outputs = {"found": True, "term": term, "certificate": certificate,
               **_witness_tree(result)}
    lines = [f"term: {term}"]
    if outputs["omitted"] is None:
        lines += [f"expression: {outputs['expression']}", f"value: {outputs['value']}"]
    else:
        lines.append(f"expression and value omitted: {outputs['omitted']}")
    lines.append(f"certificate: {len(result.nodes)} nodes, root {result.root}, checked")
    lines += [f"  {name} = {text}" for name, text in outputs["legend"].items()]
    _emit(args, "witness", inputs, outputs, lines)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from .verify import verify_paper
    report = verify_paper(args.n, args.seed)
    if args.format == "json":
        print(json.dumps(report.to_dict(include_timing=args.timing),
                         indent=2, sort_keys=True))
    else:
        for check in report.checks:
            timing = f"  {check.timing_ms:.1f} ms" if args.timing else ""
            print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}{timing}")
        timing = f", {report.timing_ms:.0f} ms" if args.timing else ""
        print(f"{'all checks passed' if report.passed else 'SOME CHECKS FAILED'} "
              f"({len(report.checks)} checks{timing})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args call returns a fresh
    Namespace, so no state carries from one command to the next."""
    parser = argparse.ArgumentParser(
        prog="polylie",
        description="Exact computations with polynomial vector fields: brackets, "
                    "solvability, local nilpotency, sl2 certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "bracket", cmd_bracket, "Lie bracket of two derivations", "d1", "d2")
    _command(sub, "apply", cmd_apply, "apply a derivation to a polynomial", "deriv", "poly")
    p = _command(sub, "index", cmd_index, "largest active slot of a derivation "
                 "(or variable of a polynomial with --poly)", "expr")
    p.add_argument("--poly", action="store_true",
                   help="treat the operand as a polynomial")
    _command(sub, "member", cmd_member, "membership in un and sn", "deriv")
    p = _command(sub, "lnd", cmd_lnd, "local-nilpotency semi-decision", "deriv")
    p.add_argument("--bound", type=int, default=32,
                   help="max chain iterations per variable (default: 32)")
    for name, func, help_text, degree_stop, dim_stop in (
            ("closure", cmd_closure, "Lie closure of a generating set under caps",
             "the basis reached and the offending bracket", "the basis reached"),
            ("derived-series", cmd_derived_series,
             "derived series of the closure of a generating set",
             "'closure failed: degree_cap_exceeded', exit 1",
             "'closure failed: dim_cap_exceeded', exit 1")):
        p = _command(sub, name, func, help_text)
        p.add_argument("gens", nargs="+")
        p.add_argument("--degree-cap", type=int, default=span.DEFAULT_DEGREE_CAP,
                       help="largest coefficient degree in the closure; a bracket above "
                            f"it stops and prints {degree_stop} (default: %(default)s)")
        p.add_argument("--dim-cap", type=int, default=span.DEFAULT_DIM_CAP,
                       help="largest dimension of the closure; passing it stops and "
                            f"prints {dim_stop} (default: %(default)s)")
    p.add_argument("--lower", action="store_true",  # derived-series, the last
                   help="compute the lower central series instead")
    _command(sub, "extract-const", cmd_extract_const,
             "differentiate a polynomial to a nonzero constant", "poly")
    p = _command(sub, "extract-linear", cmd_extract_linear,
                 "differentiate to the shape lambda*x_i + g", "poly")
    p.add_argument("i", type=int, help="target variable index")
    p = _command(sub, "flatten", cmd_flatten,
                 "bracket with d_s down to x_s-degree 1 or 2", "deriv")
    p.add_argument("s", type=int, help="variable to flatten in")
    p.add_argument("target", type=int, choices=(1, 2), help="target degree")
    p = _command(sub, "strip", cmd_strip, "split off the un/sn part of a derivation",
                 "deriv")
    p.add_argument("--which", choices=("un", "sn"), required=True)
    _command(sub, "eigencert", cmd_eigencert,
             "exact ad-eigenvector relation [D,E]=cE or [[E,D],E]=cE", "d", "e")
    p = _command(sub, "sl2", cmd_sl2, "certify an sl2 triple shape at slot k",
                 "t1", "t2", "t3")
    p.add_argument("--k", type=int, required=True)
    p = _command(sub, "witness", cmd_witness, "nonzero element of a derived term of "
                 "sn from a closed-form chain of brackets, with a re-checked DAG "
                 "certificate")
    p.add_argument("--term", type=int, default=None,
                   help="derived term to hit, at most 2n - 1 (default: 2n - 1)")
    p.add_argument("--degree-cap", type=int, default=2,
                   help="largest generator degree the certificate may use; the "
                        "chain needs 1 from term 1 and 2 from term 3 (default: 2)")

    p = sub.add_parser("verify-paper",
                       help="check the paper's claims deterministically from a seed")
    p.add_argument("--n", type=int, default=2, dest="n",
                   help="largest ambient dimension to sample (default: 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing, of the run and of each check, "
                        "in the output, text or JSON (off by default to keep "
                        "reports byte-reproducible)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValueError as exc:  # a ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit
        # writes nowhere instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
