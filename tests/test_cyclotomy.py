import math
from itertools import product

import pytest

from dhseq import numtheory
from dhseq.cyclotomy import VectorAssignment, generalized_classes
from dhseq.errors import AssignmentFormatError, MissingDivisorVector, ZeroVector
from dhseq.numtheory import crt_combine, validate_modulus
from dhseq.sequence import generate

from conftest import valid_moduli
from oracles import (
    NotPrimitiveRoot,
    class_index,
    classes_by_root,
    generalized_classes_by_pattern,
    global_partition,
    index_sets,
    prime_power_classes,
    residue_class,
)


def units(d):
    return [x for x in range(1, d) if math.gcd(x, d) == 1]


def test_prime_power_classes_examples():
    c3 = prime_power_classes(3, 1, 2)
    assert c3.d0 == (1,) and c3.d1 == (2,)
    # squares mod 7 computed exhaustively
    assert {x * x % 7 for x in units(7)} == {1, 2, 4}
    c7 = prime_power_classes(7, 1, 3)
    assert c7.d0 == (1, 2, 4) and c7.d1 == (3, 5, 6)
    # powers of 4 mod 9
    pows = {pow(4, j, 9) for j in range(3)}
    assert pows == {1, 4, 7}
    c9 = prime_power_classes(3, 2, 2)
    assert c9.d0 == (1, 4, 7) and c9.d1 == (2, 5, 8)


def test_prime_power_classes_rejects_non_root():
    with pytest.raises(NotPrimitiveRoot):
        prime_power_classes(7, 1, 2)  # order of 2 mod 7 is 3
    with pytest.raises(NotPrimitiveRoot):
        prime_power_classes(7, 1, 7)


def test_prime_power_classes_structure():
    for p, e in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)]:
        q = p**e
        phi = q // p * (p - 1)
        g = numtheory.primitive_root(p, e)
        c = prime_power_classes(p, e, g)
        assert len(c.d0) == len(c.d1) == phi // 2
        assert set(c.d0) | set(c.d1) == set(units(q))
        assert set(c.d0) & set(c.d1) == set()
        # d0 is the squares set, closed under multiplication; d1 = g*d0
        assert set(c.d0) == {x * x % q for x in units(q)}
        assert {a * b % q for a in c.d0 for b in c.d0} == set(c.d0)
        assert {g * x % q for x in c.d0} == set(c.d1)


def test_residue_class_agrees_with_sets():
    for p, e in [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)]:
        q = p**e
        c = prime_power_classes(p, e, numtheory.primitive_root(p, e))
        for x in units(q):
            assert residue_class(x, p, e) == (1 if x in c.d1 else 0)
    with pytest.raises(ValueError):
        residue_class(3, 3, 2)


def test_index_sets_examples():
    i0, i1 = index_sets((1,))
    assert i0 == {(0,)} and i1 == {(1,)}
    i0, i1 = index_sets((0, 1))
    assert i0 == {(0, 0), (1, 0)} and i1 == {(0, 1), (1, 1)}
    i0, i1 = index_sets((1, 1))
    assert i1 == {(0, 1), (1, 0)}
    with pytest.raises(ZeroVector):
        index_sets((0, 0))


def test_index_sets_sizes():
    for m in range(1, 5):
        for a in product((0, 1), repeat=m):
            if not any(a):
                continue
            i0, i1 = index_sets(a)
            assert len(i0) == len(i1) == 2 ** (m - 1)
            assert i0 | i1 == set(product((0, 1), repeat=m))


def crt_product_classes(factors, a_d):
    """Oracle: build the classes through the union-of-products definition."""
    per = [
        prime_power_classes(p, e, numtheory.primitive_root(p, e)) for p, e in factors
    ]
    mod = validate_modulus(factors)
    i0, i1 = index_sets(a_d)
    out = []
    for index_set in (i0, i1):
        members = set()
        for tup in index_set:
            pools = [per[k].d0 if j == 0 else per[k].d1 for k, j in enumerate(tup)]
            for combo in product(*pools):
                members.add(crt_combine(combo, mod))
        out.append(members)
    return out


def test_generalized_classes_prime_case():
    assert generalized_classes(((7, 1),), (1,)) == ((1, 2, 4), (3, 5, 6))


def test_generalized_classes_d21_default_vector():
    d0, d1 = generalized_classes(((3, 1), (7, 1)), (0, 1))
    assert len(d0) == 6  # phi(21)/2
    for x in units(21):
        expected = 1 if x % 7 in {3, 5, 6} else 0
        assert (x in d1) == bool(expected)


def test_generalized_classes_d21_all_ones_vector():
    d0, d1 = generalized_classes(((3, 1), (7, 1)), (1, 1))
    for x in units(21):
        in_d1_mod3 = x % 3 == 2
        in_d1_mod7 = x % 7 in {3, 5, 6}
        assert (x in d1) == (in_d1_mod3 != in_d1_mod7)


def test_generalized_classes_match_root_oracle_for_every_divisor_to_2000():
    # every (divisor, nonzero vector) of every valid n <= 2000, against the
    # primitive-root classes and the d-byte pattern split; a divisor shared
    # by several n is checked once
    cases = set()
    for m in valid_moduli(2000):
        for d in m.divisors_gt1():
            facs = m.divisor_factorization(d)
            cases.update((facs, a) for a in product((0, 1), repeat=len(facs)) if any(a))
    assert len(cases) == 1788
    for facs, a in sorted(cases):
        pair = classes_by_root(facs, a)
        classes = generalized_classes(facs, a)
        assert classes == (pair.d0, pair.d1) == generalized_classes_by_pattern(facs, a), (facs, a)


def test_generalized_classes_match_prime_power_classes_below_5000():
    checked = 0
    for p in filter(numtheory.is_prime, range(3, 5000, 2)):
        e = 1
        while p**e < 5000:
            ref = prime_power_classes(p, e, numtheory.primitive_root(p, e))
            assert generalized_classes(((p, e),), (1,)) == (ref.d0, ref.d1), (p, e)
            checked += 1
            e += 1
    assert checked == 699


def test_generalized_classes_match_crt_product_oracle():
    cases = [
        (((3, 1), (7, 1)), (0, 1)),
        (((3, 1), (7, 1)), (1, 0)),
        (((3, 1), (7, 1)), (1, 1)),
        (((3, 2), (5, 1)), (1, 1)),
        (((3, 1), (5, 1), (7, 1)), (1, 0, 1)),
        (((3, 1), (5, 1), (7, 1)), (0, 0, 1)),
    ]
    for factors, a_d in cases:
        d0, d1 = generalized_classes(factors, a_d)
        e0, e1 = crt_product_classes(factors, a_d)
        assert set(d0) == e0
        assert set(d1) == e1


def test_generalized_classes_structure():
    for factors, a_d in [
        (((3, 1), (7, 1)), (0, 1)),
        (((3, 2),), (1,)),
        (((3, 1), (5, 1)), (1, 1)),
    ]:
        pair = classes_by_root(factors, a_d)
        assert generalized_classes(factors, a_d) == (pair.d0, pair.d1)
        d = pair.d
        assert set(pair.d0) | set(pair.d1) == set(units(d))
        assert set(pair.d0) & set(pair.d1) == set()
        assert len(pair.d0) == len(pair.d1)
        # d0 closed under multiplication, b maps d0 onto d1 and d1 back into d0
        assert {a * b % d for a in pair.d0 for b in pair.d0} == set(pair.d0)
        b = pair.coset_rep
        assert {b * x % d for x in pair.d0} == set(pair.d1)
        assert {b * x % d for x in pair.d1} <= set(pair.d0)


def test_generalized_classes_errors():
    for build in (generalized_classes, classes_by_root):
        with pytest.raises(ZeroVector):
            build(((3, 1), (7, 1)), (0, 0))
        with pytest.raises(ValueError):
            build(((3, 1), (7, 1)), (1,))
        with pytest.raises(ValueError):
            build(((3, 1),), (1, 1))


def test_class_index_matches_sets():
    for factors, a_d in [
        (((3, 1), (7, 1)), (0, 1)),
        (((3, 1), (7, 1)), (1, 1)),
        (((3, 2), (5, 1)), (1, 0)),
    ]:
        d0, d1 = generalized_classes(factors, a_d)
        for x in units(math.prod(p**e for p, e in factors)):
            assert class_index(x, factors, a_d) == (1 if x in d1 else 0)


def test_default_assignment_shape():
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    a = VectorAssignment.default(m)
    assert a.vector_for(3) == (1,)
    assert a.vector_for(15) == (0, 1)
    assert a.vector_for(105) == (0, 0, 1)
    assert a.spec_string() == "3:1;5:1;7:1;15:01;21:01;35:01;105:001"


def test_all_ones_top_assignment():
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    a = VectorAssignment.all_ones_top(m)
    assert a.vector_for(105) == (1, 1, 1)
    assert a.vector_for(15) == (0, 1)


def test_assignment_overrides_and_errors():
    m = validate_modulus([(3, 1), (7, 1)])
    a = VectorAssignment.from_overrides(m, {21: (1, 1)})
    assert a.vector_for(21) == (1, 1)
    assert a.vector_for(3) == (1,)
    with pytest.raises(ZeroVector):
        VectorAssignment.from_overrides(m, {21: (0, 0)})
    with pytest.raises(ValueError):
        VectorAssignment.from_overrides(m, {10: (1,)})
    with pytest.raises(ValueError):
        VectorAssignment.from_overrides(m, {21: (1,)})


def test_assignment_rejects_a_coordinate_that_is_no_bit():
    m = validate_modulus([(3, 1), (7, 1)])
    with pytest.raises(ValueError, match="^vector for 21 must contain only bits$"):
        VectorAssignment(m, {21: (2, 1)})


def test_assignment_parse_spec():
    m = validate_modulus([(3, 1), (7, 1)])
    a = VectorAssignment.parse_spec(m, "21:11\n\n3:1\n")
    assert a.vector_for(21) == (1, 1)
    for bad in ["21", "21:", "21:2", "x:11", "21:00", "21:1", "10:1"]:
        with pytest.raises(AssignmentFormatError):
            VectorAssignment.parse_spec(m, bad)


def test_missing_divisor_vector():
    m = validate_modulus([(3, 1), (7, 1)])
    partial = VectorAssignment(m, {3: (1,), 7: (1,)})
    with pytest.raises(MissingDivisorVector):
        generate(m, partial)
    with pytest.raises(MissingDivisorVector):
        global_partition(m, partial)


def test_global_partition_n3():
    m = validate_modulus([(3, 1)])
    c0, c1 = global_partition(m, VectorAssignment.default(m))
    assert c0 == {1} and c1 == {0, 2}


def test_global_partition_n9():
    # decomposition of Z_9 minus 0: the block 3*Z_3* plus Z_9* itself
    m = validate_modulus([(3, 2)])
    c0, c1 = global_partition(m, VectorAssignment.default(m))
    assert c0 == {3} | {1, 4, 7}
    assert c1 == {0, 6} | {2, 5, 8}


def test_global_partition_properties():
    for m in valid_moduli(200):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            c0, c1 = global_partition(m, make(m))
            assert c0 | c1 == set(range(m.n))
            assert c0 & c1 == set()
            assert 0 in c1
            assert len(c1) == (m.n + 1) // 2


def test_divisor_blocks_partition_nonzero_residues():
    for m in valid_moduli(300):
        n = m.n
        seen = set()
        for d in m.divisors_gt1():
            block = {(n // d) * u % n for u in units(d)}
            assert not (block & seen)
            seen |= block
        assert seen == set(range(1, n))


@pytest.mark.parametrize(
    "line, reason",
    [("21:00", "must be nonzero"), ("21:1", "one bit per distinct prime"), ("10:1", "not a divisor")],
)
def test_assignment_parse_spec_names_the_line_and_the_reason(line, reason):
    m = validate_modulus([(3, 1), (7, 1)])
    with pytest.raises(AssignmentFormatError, match=reason) as info:
        VectorAssignment.parse_spec(m, line)
    assert info.value.line == line and repr(line) in str(info.value)
