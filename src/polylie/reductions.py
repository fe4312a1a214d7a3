"""Constructive reduction steps on polynomials and derivations.

Each operation here turns one of the classical manipulation steps for
polynomial vector fields into an executable, exactly-verified procedure:
differentiating a polynomial down to a nonzero constant or to a clean
lambda*x_i + g shape, flattening a coefficient to a prescribed degree by
bracketing with a coordinate derivation, exhibiting exact ad-eigenvector
relations, and certifying that a triple of derivations projects onto the
standard sl2 triple d_k, x_k d_k, x_k^2 d_k on one variable.

Certificates carry the inputs and the computed values, so every claimed
relation can be re-evaluated exactly from the certificate alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .derivation import Derivation, iterated_bracket
from .polyring import Monomial, Polynomial, multi_factorial
from .span import SeriesReport, SpanBasis, derived_series


def constant_extraction(f: Polynomial) -> tuple[Monomial, Fraction]:
    """Exponent vector alpha with d^alpha f a nonzero constant, and its value.

    alpha is the graded-lex greatest monomial of the top homogeneous
    component, a deterministic choice: the operator annihilates every other
    top monomial (they differ from alpha somewhere) and kills all lower
    components by degree count, leaving coeff(alpha) times alpha-factorial.
    """
    deg = f.total_degree()
    if deg is None or deg < 1:
        raise ValueError("constant extraction needs total degree >= 1")
    alpha = f.top_component().leading_monomial()
    gamma = f.coefficient(alpha) * multi_factorial(alpha)
    return alpha, gamma


def linear_extraction(f: Polynomial, i: int) -> tuple[Monomial, Fraction, Polynomial]:
    """Differentiate f to the shape lambda * x_i + g with g free of x_i.

    Returns (beta, lambda, g) with d^beta f = lambda * x_i + g exactly,
    lambda nonzero.  beta spends degree_in(f, i) - 1 derivatives on x_i,
    then finishes off the leading x_i-coefficient with constant_extraction
    when that coefficient is nonconstant.
    """
    d = f.degree_in(i)
    if d is None or d < 1:
        raise ValueError(f"polynomial does not depend on x{i}")
    parts = f.expand_in(i)
    t0 = parts[d - 1] * factorial(d - 1)
    t1 = parts[d] * factorial(d)
    beta = [0] * f.n
    beta[i - 1] = d - 1
    if t1.is_constant():
        lam = t1.constant_value()
        g = t0
    else:
        rest, lam = constant_extraction(t1)
        for pos, e in enumerate(rest):
            beta[pos] += e
        g = t0.diff_multi(rest)
    return tuple(beta), lam, g


def flatten_in_variable(d: Derivation, s: int, target_deg: int) -> Derivation:
    """Bracket with d_s until the index coefficient has x_s-degree target_deg.

    Each bracket with d_s differentiates every coefficient once in x_s, so
    starting from degree l the result needs exactly l - target_deg steps;
    the top x_s-coefficient picks up nonzero integer factors and survives.
    The derivation's index is preserved.
    """
    if target_deg not in (1, 2):
        raise ValueError(f"target degree must be 1 or 2, got {target_deg}")
    k = d.index()
    if k is None:
        raise ValueError("zero derivation has no coefficient to flatten")
    l = d.coeff(k).degree_in(s)
    if l is None or l < target_deg:
        raise ValueError(
            f"coefficient of d{k} has x{s}-degree {l}, below target {target_deg}")
    steps = l - target_deg
    if steps == 0:
        return d
    return iterated_bracket(Derivation.partial(d.n, s), steps, d)


@dataclass(frozen=True)
class EigenvectorCertificate:
    """Exact relation showing ad-action on e with a nonzero eigenvalue.

    relation "single":  [d, e] = scalar * e
    relation "double":  [[e, d], e] = scalar * e

    Either relation with scalar != 0 shows the relevant adjoint operator is
    not nilpotent on any span containing e, so no subalgebra containing both
    derivations is a nilpotent Lie algebra.
    """

    d: Derivation
    e: Derivation
    scalar: Fraction
    relation: str  # "single" | "double"

    def verify(self) -> bool:
        """Re-evaluate the stored relation from scratch."""
        if self.scalar == 0:
            return False
        if self.relation == "single":
            return self.d.bracket(self.e) == self.scalar * self.e
        return self.e.bracket(self.d).bracket(self.e) == self.scalar * self.e

    def to_dict(self) -> dict:
        return {
            "d": str(self.d),
            "e": str(self.e),
            "scalar": str(self.scalar),
            "relation": self.relation,
        }


def _proportionality(v: Derivation, e: Derivation) -> Fraction | None:
    """c with v = c * e exactly, or None if not proportional (e != 0)."""
    for i in range(1, e.n + 1):
        f = e.coeff(i)
        if f.is_zero():
            continue
        mono = next(iter(sorted(f.terms)))
        c = v.coeff(i).coefficient(mono) / f.coefficient(mono)
        return c if v == c * e else None
    return None


def eigenvector_certificate(d: Derivation, e: Derivation) -> EigenvectorCertificate | None:
    """Try [d,e] = c*e, then [[e,d],e] = c*e; first nonzero c wins."""
    if d.n != e.n:
        raise ValueError(f"ambient dimension mismatch: {d.n} vs {e.n}")
    if e.is_zero():
        raise ValueError("eigenvector candidate must be nonzero")
    c = _proportionality(d.bracket(e), e)
    if c:
        return EigenvectorCertificate(d, e, c, "single")
    c = _proportionality(e.bracket(d).bracket(e), e)
    if c:
        return EigenvectorCertificate(d, e, c, "double")
    return None


@dataclass(frozen=True)
class Sl2Certificate:
    """Witness that T1, T2, T3 generate a non-solvable subalgebra.

    Shape: modulo terms in slots below k, the triple is d_k, -x_k^2 d_k,
    -2 x_k d_k, with nothing above slot k.  Projecting brackets onto their
    d_k-components reproduces the bracket table of that standard triple,
    so projection extends to a homomorphism onto the span of d_k, x_k d_k,
    x_k^2 d_k -- a copy of sl2, whose derived series never reaches zero.
    """

    t1: Derivation
    t2: Derivation
    t3: Derivation
    k: int
    projection_brackets: tuple[Polynomial, Polynomial, Polynomial]
    series_report: SeriesReport

    def to_dict(self) -> dict:
        return {
            "t1": str(self.t1),
            "t2": str(self.t2),
            "t3": str(self.t3),
            "k": self.k,
            "projection_brackets": [str(p) for p in self.projection_brackets],
            "series_report": self.series_report.to_dict(),
        }


@dataclass(frozen=True)
class Sl2Mismatch:
    reason: str

    def to_dict(self) -> dict:
        return {"reason": self.reason}


def sl2_triple_span(n: int, k: int) -> SpanBasis:
    """span{d_k, x_k d_k, x_k^2 d_k}: the one-variable sl2 copy at slot k."""
    unit = [0] * n
    unit[k - 1] = 1
    square = [0] * n
    square[k - 1] = 2
    return SpanBasis(n, [
        Derivation.partial(n, k),
        Derivation.monomial_term(n, tuple(unit), k),
        Derivation.monomial_term(n, tuple(square), k),
    ])


def sl2_check(t1: Derivation, t2: Derivation, t3: Derivation,
              k: int) -> Sl2Certificate | Sl2Mismatch:
    """Verify the sl2 shape and bracket table at slot k; certify or explain."""
    n = t1.n
    if t2.n != n or t3.n != n:
        return Sl2Mismatch("ambient dimensions differ")
    if not 1 <= k <= n:
        return Sl2Mismatch(f"slot {k} out of range 1..{n}")

    x_k = Polynomial.variable(n, k)
    expected_k = {
        "t1": (t1, Polynomial.one(n)),
        "t2": (t2, -(x_k * x_k)),
        "t3": (t3, -2 * x_k),
    }
    for name, (t, want) in expected_k.items():
        for j in range(k + 1, n + 1):
            if not t.coeff(j).is_zero():
                return Sl2Mismatch(f"{name} has a nonzero coefficient at slot {j} > {k}")
        if t.coeff(k) != want:
            return Sl2Mismatch(f"{name} slot-{k} coefficient is {t.coeff(k)}, expected {want}")

    projections = (
        t1.bracket(t2).coeff(k),
        t3.bracket(t1).coeff(k),
        t3.bracket(t2).coeff(k),
    )
    table = (-2 * x_k, Polynomial.constant(n, 2), 2 * x_k * x_k)
    names = ("[t1,t2]", "[t3,t1]", "[t3,t2]")
    for name, got, want in zip(names, projections, table):
        if got != want:
            return Sl2Mismatch(f"slot-{k} component of {name} is {got}, expected {want}")

    report = derived_series(sl2_triple_span(n, k))
    if report.verdict != "stabilized_nonzero":
        return Sl2Mismatch(f"sl2 span derived series verdict was {report.verdict}")
    return Sl2Certificate(t1, t2, t3, k, projections, report)


def case2_witness(d2: Derivation, k: int) -> tuple[Derivation, Derivation, Derivation]:
    """Assemble the triple (d_k, -d2, -2 x_k d_k) for sl2_check.

    Requires d2 normalized so its slot-k coefficient is exactly x_k^2 and
    every higher slot vanishes; divide by the leading scalar first.
    """
    n = d2.n
    if not 1 <= k <= n:
        raise ValueError(f"slot {k} out of range 1..{n}")
    x_k = Polynomial.variable(n, k)
    if d2.coeff(k) != x_k * x_k:
        raise ValueError(
            f"slot-{k} coefficient is {d2.coeff(k)}, expected x{k}^2 (normalize first)")
    for j in range(k + 1, n + 1):
        if not d2.coeff(j).is_zero():
            raise ValueError(f"slot {j} > {k} must vanish, got {d2.coeff(j)}")
    unit = [0] * n
    unit[k - 1] = 1
    t3 = Derivation.monomial_term(n, tuple(unit), k, -2)
    return Derivation.partial(n, k), -d2, t3
