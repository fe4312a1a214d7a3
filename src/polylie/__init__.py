"""Exact computations in the Lie algebra of polynomial vector fields.

Sparse rational polynomials, derivations with coefficient-wise Lie
brackets, exact span/closure/series linear algebra, the triangular
subalgebras un and sn with local-nilpotency and derived-length machinery,
constructive reduction procedures with certificates, and a text grammar
shared with the CLI.
"""

from .canonical import (
    Bracket,
    DerivedChainWitness,
    Leaf,
    LndVerdict,
    MembershipVerdict,
    NilpotencyWitness,
    TruncatedSearch,
    derived_chain_witness,
    generators,
    lnd_check,
    membership,
    strip_canonical_part,
    triangular_chain_bound,
)
from .derivation import Derivation, iterated_bracket
from .grammar import (
    ParseError,
    format_derivation,
    format_polynomial,
    parse_derivation,
    parse_polynomial,
)
from .polyring import Monomial, Polynomial
from .reductions import (
    EigenvectorCertificate,
    Sl2Certificate,
    Sl2Mismatch,
    case2_witness,
    constant_extraction,
    eigenvector_certificate,
    flatten_in_variable,
    linear_extraction,
    sl2_check,
)
from .span import (
    LieClosureResult,
    SeriesReport,
    SpanBasis,
    coordinatize,
    derived_series,
    lie_closure,
    lower_central_series,
)
from .verify import Report, verify_paper

__version__ = "0.1.0"
