"""Every public function that takes a count, index, bound or cap checks it
the same way: a bool or a non-int is a TypeError, an int out of its range a
ValueError, each with a message that names the argument."""

import random
import re

import pytest

from polylie.canonical import (derived_chain_witness, generators, lnd_check, lower_bound_term,
                               random_subalgebra_element, triangular_chain_bound)
from polylie.derivation import Derivation, iterated_bracket
from polylie.grammar import parse_derivation, parse_polynomial
from polylie.polyring import KeyCodec, Polynomial
from polylie.reductions import flatten_in_variable, linear_extraction, sl2_check
from polylie.span import SpanBasis, lie_closure

from samplers import random_derivation, random_nonconstant_polynomial, random_polynomial

F = Polynomial.variable(2, 1)
D = Derivation.partial(2, 1)
E = parse_derivation("(x1^3) d2", 2)
SL2 = [parse_derivation(t, 1) for t in ("d1", "(-1 x1^2) d1", "(-2 x1) d1")]


def rng():
    return random.Random(0)


COUNT = ("variable count", 0, "variable count must be >= 1, got 0")
INDEX = ("variable index", 3, "variable index 3 out of range 1..2")

# (id, call of the one argument, (name, a bad int, its message))
CASES = [
    ("Polynomial", lambda v: Polynomial(v), COUNT),
    ("Polynomial.zero", Polynomial.zero, COUNT),
    ("Polynomial.one", Polynomial.one, COUNT),
    ("Polynomial.constant", lambda v: Polynomial.constant(v, 1), COUNT),
    ("Polynomial.variable-n", lambda v: Polynomial.variable(v, 1),
     ("variable count", 1001, "variable count must be <= 1000, got 1001")),
    ("Polynomial.variable-i", lambda v: Polynomial.variable(2, v), INDEX),
    ("KeyCodec", KeyCodec, COUNT),
    ("Derivation", lambda v: Derivation(v, []), COUNT),
    ("Derivation.zero", Derivation.zero, COUNT),
    ("Derivation.euler", Derivation.euler, COUNT),
    # the index is checked first, and 1 is in range 1..1001
    ("Derivation.partial-n", lambda v: Derivation.partial(v, 1),
     ("variable count", 1001, "variable count must be <= 1000, got 1001")),
    ("Derivation.partial-i", lambda v: Derivation.partial(2, v), INDEX),
    ("Polynomial.degree_in", F.degree_in, INDEX),
    ("Polynomial.partial", F.partial, INDEX),
    ("Polynomial.expand_in", F.expand_in, INDEX),
    ("Derivation.coeff", D.coeff, INDEX),
    ("Polynomial.__pow__", lambda v: F ** v, ("exponent", -1, "exponent must be >= 0, got -1")),
    ("iterated_bracket", lambda v: iterated_bracket(D, v, E),
     ("iteration count", 0, "iteration count must be >= 1, got 0")),
    ("parse_polynomial", lambda v: parse_polynomial("x1", v), COUNT),
    ("parse_derivation", lambda v: parse_derivation("d1", v), COUNT),
    ("generators-n", lambda v: generators("un", v, 2), COUNT),
    ("generators-cap", lambda v: generators("un", 2, v),
     ("degree cap", -1, "degree cap must be >= 0, got -1")),
    ("lnd_check", lambda v: lnd_check(D, v), ("bound", 0, "bound must be >= 1, got 0")),
    ("triangular_chain_bound-n", lambda v: triangular_chain_bound(v, 2), COUNT),
    ("triangular_chain_bound-cap", lambda v: triangular_chain_bound(2, v),
     ("degree cap", -1, "degree cap must be >= 0, got -1")),
    ("lower_bound_term", lower_bound_term, COUNT),
    ("derived_chain_witness-n", derived_chain_witness, COUNT),
    ("derived_chain_witness-term", lambda v: derived_chain_witness(3, term=v),
     ("term", -1, "term must be >= 0, got -1")),
    ("derived_chain_witness-cap", lambda v: derived_chain_witness(3, degree_cap=v),
     ("degree cap", -1, "degree cap must be >= 0, got -1")),
    ("SpanBasis", lambda v: SpanBasis(v, []), COUNT),
    ("lie_closure-degree", lambda v: lie_closure([D], degree_cap=v),
     ("degree cap", 0, "degree cap must be >= 1, got 0")),
    ("lie_closure-dim", lambda v: lie_closure([D], dim_cap=v),
     ("dimension cap", 0, "dimension cap must be >= 1, got 0")),
    ("linear_extraction", lambda v: linear_extraction(F, v), INDEX),
    ("flatten_in_variable-s", lambda v: flatten_in_variable(E, v, 1), INDEX),
    ("flatten_in_variable-target", lambda v: flatten_in_variable(E, 1, v),
     ("target degree", 3, "target degree must be <= 2, got 3")),
    ("sl2_check", lambda v: sl2_check(*SL2, v), ("slot", 2, "slot 2 out of range 1..1")),
    ("random_polynomial-n", lambda v: random_polynomial(rng(), v, 2), COUNT),
    ("random_polynomial-degree", lambda v: random_polynomial(rng(), 2, v),
     ("max degree", -1, "max degree must be >= 0, got -1")),
    ("random_nonconstant_polynomial", lambda v: random_nonconstant_polynomial(rng(), 2, v),
     ("max degree", -1, "max degree must be >= 0, got -1")),
    ("random_derivation-n", lambda v: random_derivation(rng(), v, 2), COUNT),
    ("random_derivation-degree", lambda v: random_derivation(rng(), 2, v),
     ("max degree", -1, "max degree must be >= 0, got -1")),
    ("random_subalgebra_element-n", lambda v: random_subalgebra_element(rng(), "sn", v, 2),
     COUNT),
    ("random_subalgebra_element-cap",
     lambda v: random_subalgebra_element(rng(), "sn", 2, v),
     ("degree cap", -1, "degree cap must be >= 0, got -1")),
]


@pytest.mark.parametrize("call,check", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_count_is_a_checked_int(call, check):
    name, bad, message = check
    # a bool is an int to isinstance, but no count; 1.5 is no int at all
    for v in (True, 1.5):
        with pytest.raises(TypeError, match=f"^{name} {v} is not an int$"):
            call(v)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)
