"""Exact computations in the Lie algebra of polynomial vector fields.

Sparse rational polynomials, derivations with coefficient-wise Lie
brackets, exact span/closure/series linear algebra, the triangular
subalgebras un and sn with local-nilpotency and derived-length machinery,
constructive reduction procedures with certificates, and a text grammar
shared with the CLI.

Importing the package imports none of its modules.  A public name, such as
`polylie.lie_closure`, or a submodule name, such as `polylie.span`, imports
its module on first use, so a program (the CLI among them) loads only the
modules it runs.  The submodules are those that define the public names,
and `cli`: the package holds what its commands and checks run.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_PUBLIC = {
    "canonical": ("DerivedChainCertificate", "InconclusiveSearch", "LndVerdict",
                  "MembershipVerdict", "NilpotencyWitness", "derived_chain_witness",
                  "generators", "linear_part_refutes", "lnd_check", "membership",
                  "strip_canonical_part", "triangular_chain_bound"),
    "derivation": ("Derivation", "format_derivation", "iterated_bracket"),
    "grammar": ("ParseError", "parse_derivation", "parse_polynomial"),
    "polyring": ("Monomial", "Polynomial", "format_polynomial"),
    "reductions": ("EigenvectorCertificate", "Sl2Certificate", "Sl2Mismatch",
                   "constant_extraction", "eigenvector_certificate",
                   "flatten_in_variable", "linear_extraction", "sl2_check"),
    "span": ("LieClosureResult", "SeriesReport", "SpanBasis", "derived_series",
             "lie_closure", "lower_central_series"),
    "verify": ("Report", "verify_paper"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import also binds the submodule here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
