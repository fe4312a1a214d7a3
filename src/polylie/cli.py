"""Command-line front end.

One subcommand per library operation, a shared expression grammar for
polynomial and derivation operands, and a `verify-paper` batch harness.
Output is human text by default or a single JSON document with
`--format json`.

Exit codes: 0 on success (and all-pass for verifying commands), 1 when a
verifying command ends negative (failed check, mismatch, nothing found),
2 for usage, syntax, or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import canonical, reductions, span
from .grammar import parse_derivation, parse_polynomial
from .verify import verify_paper

# version of the JSON document the single-operation commands print;
# verify-paper prints a Report, versioned by verify.SCHEMA_VERSION
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True,
                        help="ambient number of variables")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")


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
    d = parse_derivation(args.deriv, args.n)
    verdict = canonical.membership(d)
    lines = [f"in_un: {verdict.in_un}", f"in_sn: {verdict.in_sn}"]
    for slot, reason in verdict.violations:
        lines.append(f"violation at slot {slot}: {reason}")
    _emit(args, "member", {"deriv": str(d)}, verdict.to_dict(), lines)
    return EXIT_OK


def cmd_lnd(args) -> int:
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
    if verdict.certificate is not None:
        outputs["certificate"] = verdict.certificate.to_dict()
        cert = verdict.certificate
        lines.append(f"ad-eigenvector: relation={cert.relation}, "
                     f"e={cert.e}, scalar={cert.scalar}")
    if verdict.linear_part is not None:
        outputs["linear_matrix"] = [[str(c) for c in row] for row in verdict.linear_part]
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
    outputs = {
        "status": result.status,
        "dim": result.basis.dim,
        "basis": [str(b) for b in result.basis],
        "offending_bracket": [str(d) for d in offending] if offending else None,
    }
    lines = [f"status: {result.status}", f"dim: {result.basis.dim}"]
    lines += [f"  {b}" for b in result.basis]
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
               "basis": [str(b) for b in closure.basis],
               "series": report.to_dict()}
    lines = [f"dims: {list(report.dims)}", f"verdict: {report.verdict}"]
    if report.length is not None:
        lines.append(f"length: {report.length}")
    if report.stabilized_at is not None:
        lines.append(f"stabilized_at: {report.stabilized_at}")
    _emit(args, "derived-series", inputs, outputs, lines)
    return EXIT_OK


def cmd_extract_const(args) -> int:
    f = parse_polynomial(args.poly, args.n)
    alpha, gamma = reductions.constant_extraction(f)
    outputs = {"alpha": list(alpha), "gamma": str(gamma)}
    _emit(args, "extract-const", {"poly": str(f)}, outputs,
          [f"alpha: {list(alpha)}", f"gamma: {gamma}"])
    return EXIT_OK


def cmd_extract_linear(args) -> int:
    f = parse_polynomial(args.poly, args.n)
    beta, lam, g = reductions.linear_extraction(f, args.i)
    outputs = {"beta": list(beta), "lambda": str(lam), "g": str(g)}
    _emit(args, "extract-linear", {"poly": str(f), "i": args.i}, outputs,
          [f"beta: {list(beta)}", f"lambda: {lam}", f"g: {g}"])
    return EXIT_OK


def cmd_flatten(args) -> int:
    d = parse_derivation(args.deriv, args.n)
    result = reductions.flatten_in_variable(d, args.s, args.target)
    _emit(args, "flatten", {"deriv": str(d), "s": args.s, "target": args.target},
          {"result": str(result)}, [str(result)])
    return EXIT_OK


def cmd_strip(args) -> int:
    d = parse_derivation(args.deriv, args.n)
    remainder, stripped = canonical.strip_canonical_part(d, args.which)
    outputs = {"remainder": str(remainder), "stripped": str(stripped)}
    _emit(args, "strip", {"deriv": str(d), "which": args.which}, outputs,
          [f"remainder: {remainder}", f"stripped: {stripped}"])
    return EXIT_OK


def cmd_eigencert(args) -> int:
    d = parse_derivation(args.d, args.n)
    e = parse_derivation(args.e, args.n)
    cert = reductions.eigenvector_certificate(d, e)
    inputs = {"d": str(d), "e": str(e)}
    if cert is None:
        _emit(args, "eigencert", inputs, {"certificate": None}, ["no certificate"])
        return EXIT_CHECK_FAILED
    _emit(args, "eigencert", inputs, {"certificate": cert.to_dict()},
          [f"relation: {cert.relation}", f"scalar: {cert.scalar}"])
    return EXIT_OK


def cmd_sl2(args) -> int:
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


def cmd_witness(args) -> int:
    witness = canonical.derived_chain_witness(
        args.n, term=args.term, degree_cap=args.degree_cap, beam=args.beam)
    inputs = {"term": args.term, "degree_cap": args.degree_cap, "beam": args.beam}
    if witness is None:
        _emit(args, "witness", inputs, {"found": False, "status": "absent"},
              ["not found: absent"])
        return EXIT_CHECK_FAILED
    if isinstance(witness, canonical.TruncatedSearch):
        _emit(args, "witness", inputs,
              {"found": False, "status": "truncated", "cut_at": witness.cut_at},
              [f"not found: truncated (the beam cut level {witness.cut_at})"])
        return EXIT_CHECK_FAILED
    outputs = {"found": True, **witness.to_dict()}
    lines = [f"term: {witness.term}",
             f"expression: {witness.expression.to_sexpr()}",
             f"value: {witness.value}"]
    lines += [f"  {name} = {text}" for name, text in outputs["legend"].items()]
    _emit(args, "witness", inputs, outputs, lines)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = verify_paper(args.n, args.seed)
    if args.format == "json":
        print(json.dumps(report.to_dict(include_timing=args.timing),
                         indent=2, sort_keys=True))
    else:
        for check in report.checks:
            print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}")
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

    p = sub.add_parser("bracket", help="Lie bracket of two derivations")
    p.add_argument("d1")
    p.add_argument("d2")
    _add_common(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("apply", help="apply a derivation to a polynomial")
    p.add_argument("deriv")
    p.add_argument("poly")
    _add_common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("index", help="largest active slot of a derivation "
                                     "(or variable of a polynomial with --poly)")
    p.add_argument("expr")
    p.add_argument("--poly", action="store_true",
                   help="treat the operand as a polynomial")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("member", help="membership in un and sn")
    p.add_argument("deriv")
    _add_common(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("lnd", help="local-nilpotency semi-decision")
    p.add_argument("deriv")
    p.add_argument("--bound", type=int, default=32,
                   help="max chain iterations per variable (default: 32)")
    _add_common(p)
    p.set_defaults(func=cmd_lnd)

    p = sub.add_parser("closure", help="Lie closure of a generating set under caps")
    p.add_argument("gens", nargs="+")
    p.add_argument("--degree-cap", type=int, default=span.DEFAULT_DEGREE_CAP)
    p.add_argument("--dim-cap", type=int, default=span.DEFAULT_DIM_CAP)
    _add_common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("derived-series",
                       help="derived series of the closure of a generating set")
    p.add_argument("gens", nargs="+")
    p.add_argument("--degree-cap", type=int, default=span.DEFAULT_DEGREE_CAP)
    p.add_argument("--dim-cap", type=int, default=span.DEFAULT_DIM_CAP)
    p.add_argument("--lower", action="store_true",
                   help="compute the lower central series instead")
    _add_common(p)
    p.set_defaults(func=cmd_derived_series)

    p = sub.add_parser("extract-const",
                       help="differentiate a polynomial to a nonzero constant")
    p.add_argument("poly")
    _add_common(p)
    p.set_defaults(func=cmd_extract_const)

    p = sub.add_parser("extract-linear",
                       help="differentiate to the shape lambda*x_i + g")
    p.add_argument("poly")
    p.add_argument("i", type=int, help="target variable index")
    _add_common(p)
    p.set_defaults(func=cmd_extract_linear)

    p = sub.add_parser("flatten",
                       help="bracket with d_s down to x_s-degree 1 or 2")
    p.add_argument("deriv")
    p.add_argument("s", type=int, help="variable to flatten in")
    p.add_argument("target", type=int, choices=(1, 2), help="target degree")
    _add_common(p)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("strip", help="split off the un/sn part of a derivation")
    p.add_argument("deriv")
    p.add_argument("--which", choices=("un", "sn"), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("eigencert",
                       help="exact ad-eigenvector relation [D,E]=cE or [[E,D],E]=cE")
    p.add_argument("d")
    p.add_argument("e")
    _add_common(p)
    p.set_defaults(func=cmd_eigencert)

    p = sub.add_parser("sl2", help="certify an sl2 triple shape at slot k")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("t3")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sl2)

    p = sub.add_parser("witness",
                       help="nonzero nested-bracket element of a derived term of sn")
    p.add_argument("--term", type=int, default=None,
                   help="derived term to hit (default: 2n - 1)")
    p.add_argument("--degree-cap", type=int, default=None,
                   help="generator degree cap (default: 2n)")
    p.add_argument("--beam", type=int, default=10_000)
    _add_common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify-paper",
                       help="run the full deterministic verification suite")
    p.add_argument("--n", type=int, default=2, dest="n",
                   help="largest ambient dimension to sample (default: 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the output, text or JSON "
                        "(off by default to keep reports byte-reproducible)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
