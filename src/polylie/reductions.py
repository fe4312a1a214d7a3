"""Constructive reduction steps on polynomials and derivations.

Each operation here turns one of the classical manipulation steps for
polynomial vector fields into an executable, exactly-verified procedure:
differentiating a polynomial down to a nonzero constant or to a clean
lambda*x_i + g shape, flattening a coefficient to a prescribed degree by
bracketing with a coordinate derivation, exhibiting exact ad-eigenvector
relations, and certifying that a triple of derivations projects onto the
standard sl2 triple d_k, x_k d_k, x_k^2 d_k on one variable.

Certificates carry their inputs and any computed values, so every claimed
relation can be re-checked exactly from the certificate alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .derivation import Derivation, iterated_bracket
from .polyring import (Monomial, Polynomial, _check_index, _check_int, _check_same_n,
                       multi_factorial)


def constant_extraction(f: Polynomial) -> tuple[Monomial, Fraction]:
    """Exponent vector alpha with d^alpha f a nonzero constant, and its value.

    alpha is f's graded-lex greatest monomial, a deterministic choice that
    lies in the top homogeneous component, since graded-lex compares total
    degree first: the operator annihilates every other top monomial (they
    differ from alpha somewhere) and kills all lower components by degree
    count, leaving coeff(alpha) times alpha-factorial.
    """
    deg = f.total_degree()
    if deg is None or deg < 1:
        raise ValueError("constant extraction needs total degree >= 1")
    alpha = f.leading_monomial()
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
    _check_int(target_deg, "target degree", 1, 2)
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


class EigenvectorCertificate(NamedTuple):
    """Exact relation showing ad-action on e with a nonzero eigenvalue.

    relation "single":  [d, e] = scalar * e
    relation "double":  [[e, d], e] = scalar * e

    With scalar != 0, a single relation shows that d is not locally nilpotent:
    (ad d)^m(e)(x_i) = sum_k (-1)^k C(m, k) d^(m-k)(e(d^k(x_i))) would vanish
    for large m, yet it is scalar^m e(x_i).  A double one shows only that the
    Lie algebra of d and e is not nilpotent: [[x1 d2, x2 d1], x1 d2] = 2 x1 d2,
    and x2 d1 is locally nilpotent.
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
    """c with v = c * e exactly, or None if not proportional (e != 0).

    c is read off the stored rows at e's first key: if v is proportional to
    e, that one c is the only factor that can work."""
    key, e_num = next(iter(e._terms.items()))
    c = Fraction(v._terms.get(key, 0) * e._den, v._den * e_num)
    return c if v == c * e else None


def eigenvector_certificate(d: Derivation, e: Derivation) -> EigenvectorCertificate | None:
    """Try [d,e] = c*e, then [[e,d],e] = c*e; first nonzero c wins."""
    _check_same_n(d.n, e.n)
    if e.is_zero():
        raise ValueError("eigenvector candidate must be nonzero")
    c = _proportionality(d.bracket(e), e)
    if c:
        return EigenvectorCertificate(d, e, c, "single")
    c = _proportionality(e.bracket(d).bracket(e), e)
    if c:
        return EigenvectorCertificate(d, e, c, "double")
    return None


class Sl2Certificate(NamedTuple):
    """Witness that T1, T2, T3 generate a non-solvable subalgebra.

    Shape: modulo terms in slots below k, the triple is d_k, -x_k^2 d_k,
    -2 x_k d_k, with nothing above slot k.  The shape alone certifies.  On
    fields whose slots above k vanish and whose slot-k coefficient lies in
    K[x_k], every bracket keeps that form, with [A,B]_k = a_k b_k' - b_k a_k'.
    So projecting onto slot k is a homomorphism, and it maps the triple onto
    the span of d_k, x_k d_k, x_k^2 d_k -- a copy of sl2, whose derived
    series never reaches zero, so neither does the triple's.
    """

    t1: Derivation
    t2: Derivation
    t3: Derivation
    k: int

    def to_dict(self) -> dict:
        return {"t1": str(self.t1), "t2": str(self.t2), "t3": str(self.t3), "k": self.k}


class Sl2Mismatch(NamedTuple):
    reason: str


def sl2_check(t1: Derivation, t2: Derivation, t3: Derivation,
              k: int) -> Sl2Certificate | Sl2Mismatch:
    """Verify the sl2 shape at slot k; certify or explain.

    A triple over different rings or a slot outside 1..n is a ValueError.
    """
    n = t1.n
    for t in (t2, t3):
        _check_same_n(n, t.n)
    _check_index(k, n, "slot")

    x_k = Polynomial.variable(n, k)
    for name, t, want in (("t1", t1, Polynomial.one(n)),
                          ("t2", t2, -(x_k * x_k)),
                          ("t3", t3, -2 * x_k)):
        for j in range(k + 1, n + 1):
            if not t.coeff(j).is_zero():
                return Sl2Mismatch(f"{name} has a nonzero coefficient at slot {j} > {k}")
        if t.coeff(k) != want:
            return Sl2Mismatch(f"{name} slot-{k} coefficient is {t.coeff(k)}, expected {want}")
    return Sl2Certificate(t1, t2, t3, k)
