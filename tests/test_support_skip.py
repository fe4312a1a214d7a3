"""The support-signature skip: a pair whose signatures do not meet brackets
to zero, and forcing every pair to be bracketed changes no result."""

import random

import polylie.span as span_module
from polylie.canonical import generators
from polylie.derivation import bracket_rows, row_support, signatures_meet
from polylie.grammar import parse_derivation
from polylie.sampling import random_derivation, random_subalgebra_element
from polylie.span import derived_series, lie_closure, lower_central_series


def reference_signature(d):
    """Bit j for each slot j with a term, bit n + j for each x_j that some
    coefficient depends on, read from the coefficient polynomials."""
    sig = 0
    for j in range(1, d.n + 1):
        if not d.coeff(j).is_zero():
            sig |= 1 << j
        if any(f.degree_in(j) for f in d.coeffs if not f.is_zero()):
            sig |= 1 << (d.n + j)
    return sig


def sample_derivations(rng):
    """Random fields (n 1-4), un/sn generators, and the elements of their
    closures, as lists of derivations in one n."""
    for _ in range(30):
        n = rng.randint(1, 4)
        yield [random_derivation(rng, n, rng.randint(0, 3), max_terms=rng.randint(1, 3))
               for _ in range(6)]
    for which in ("un", "sn"):
        for n in range(1, 5):
            yield generators(which, n, 2)
    for _ in range(12):
        n = rng.randint(1, 4)
        which = rng.choice(("un", "sn"))
        gens = [random_subalgebra_element(rng, which, n, 2) for _ in range(3)]
        result = lie_closure(gens, degree_cap=6, dim_cap=64)
        yield list(result.elements)


def test_signature_reads_slots_and_variables():
    rng = random.Random(1701)
    checked = 0
    for ds in sample_derivations(rng):
        for d in ds:
            assert row_support(d.n, d._terms)[1] == reference_signature(d)
            checked += 1
    assert checked > 300


def test_pairs_whose_signatures_do_not_meet_bracket_to_zero():
    rng = random.Random(1702)
    skipped = 0
    for ds in sample_derivations(rng):
        supports = [(d._terms, *row_support(d.n, d._terms)) for d in ds]
        for a, pa, sa in supports:
            for b, pb, sb in supports:
                if not signatures_meet(ds[0].n, sa, sb):
                    skipped += 1
                    assert bracket_rows(a, pa, b, pb) == {}
    assert skipped > 1000


def test_known_signatures():
    n = 3
    sig = {t: row_support(n, parse_derivation(t, n)._terms)[1]
           for t in ("(x1 x2) d3 + d1", "d3", "d2")}
    # slots 1 and 3; variables x1 and x2
    assert sig["(x1 x2) d3 + d1"] == 0b0011_1010
    # d3 differentiates by x3, which nothing in (x1 x2) d3 + d1 depends on
    assert not signatures_meet(n, sig["(x1 x2) d3 + d1"], sig["d3"])
    assert signatures_meet(n, sig["(x1 x2) d3 + d1"], sig["d2"])


# -- forcing every pair to be bracketed changes no result -----------------------


def closure_fields(result):
    return (result.status, result.basis.basis, result.elements, result.num_generators,
            result.offending_bracket, result._brackets)


def closure_inputs():
    """Closed and capped closures, as (gens, caps)."""
    yield generators("un", 3, 3), {}
    yield generators("sn", 2, 2), {}
    yield [parse_derivation(t, 2) for t in ("(x1^2) d2", "(x2^2) d1")], {"degree_cap": 3}
    yield generators("un", 3, 3), {"dim_cap": 20}
    yield [parse_derivation(t, 1) for t in ("d1", "(x1) d1", "(x1^2) d1")], {}
    rng = random.Random(1703)
    for _ in range(40):
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            gens = [random_subalgebra_element(rng, rng.choice(("un", "sn")), n, 2)
                    for _ in range(3)]
        else:
            gens = [random_derivation(rng, n, 2, max_terms=2) for _ in range(3)]
        yield gens, {"degree_cap": rng.randint(2, 4), "dim_cap": rng.randint(4, 40)}


def all_results():
    closures, series = [], []
    for gens, caps in closure_inputs():
        result = lie_closure(gens, **caps)
        closures.append(closure_fields(result))
        if result.closed:
            series += [derived_series(result), lower_central_series(result),
                       derived_series(result.basis), lower_central_series(result.basis)]
    return closures, series


def test_forcing_every_pair_changes_no_result(monkeypatch):
    closures, series = all_results()
    statuses = {fields[0] for fields in closures}
    assert statuses == {"closed", "degree_cap_exceeded", "dim_cap_exceeded"}

    monkeypatch.setattr(span_module, "signatures_meet", lambda n, sa, sb: True)
    forced = all_results()
    assert forced[0] == closures
    assert forced[1] == series

