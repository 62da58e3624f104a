import math

import pytest

from dhseq import theorems
from dhseq.cyclotomy import VectorAssignment, generalized_classes
from dhseq.errors import GcdConditionViolated, OutsideCaseTable
from dhseq.gf2poly import build_field
from dhseq.lincomp import lincomp_bm, spectral_values
from dhseq.numtheory import legendre, order_of_two, validate_modulus
from dhseq.sequence import delta, generate
from dhseq.theorems import (
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_theorem1,
    crt_split,
    predicted_L_two_primes,
)

from conftest import valid_moduli
from oracles import from_bits

M21 = validate_modulus([(3, 1), (7, 1)])
M9 = validate_modulus([(3, 2)])


def test_lemma1_d7_by_hand():
    # combined root of 21 is 17, and 17 mod 7 = 3; 3 * {1,2,4} = {3,6,5} mod 7
    assert {3 * x % 7 for x in (1, 2, 4)} == {3, 5, 6}
    v = check_lemma1(M21, 7, (1,))
    assert v.applicable and v.holds


def test_lemma1_even_sum_not_applicable():
    v = check_lemma1(M21, 21, (1, 1))
    assert not v.applicable and v.holds is None


def test_lemma1_d21_bruteforce():
    # independent set computation over Z_21
    pair = generalized_classes(((3, 1), (7, 1)), (0, 1))
    g = 17 % 21
    assert {g * x % 21 for x in pair.d0} == set(pair.d1)
    assert {g * x % 21 for x in pair.d1} == set(pair.d0)
    v = check_lemma1(M21, 21, (0, 1))
    assert v.applicable and v.holds


def test_lemma1_sweep_default_assignment():
    for m in valid_moduli(300):
        a = VectorAssignment.default(m)
        for d in m.divisors_gt1():
            v = check_lemma1(m, d, a.vector_for(d))
            assert v.applicable and v.holds, (m.n, d)


def test_lemma2_n21_d7_field():
    a = VectorAssignment.default(M21)
    v = check_lemma2(M21, a, 7, build_field(21))
    assert v.applicable and v.holds


def test_lemma2_set_form_n9_d3():
    # 3*D1 mod 9 = {6}; multiplying by the combined root 2: 2*6 = 12 = 3 mod 9 = 3*D0
    assert {2 * 6 % 9} == {3}
    a = VectorAssignment.default(M9)
    v = check_lemma2(M9, a, 3, None)
    assert v.applicable and v.holds


def test_lemma2_even_sum_not_applicable():
    a = VectorAssignment.from_overrides(M21, {21: (1, 1)})
    v = check_lemma2(M21, a, 21, None)
    assert not v.applicable


def test_lemma2_oracle_horner_n21():
    # independent route: Horner-evaluate the two lifted indicator polynomials
    from dhseq.gf2poly import eval_poly
    from dhseq.numtheory import combined_root

    field = build_field(21)
    a = VectorAssignment.default(M21)
    pair = generalized_classes(((7, 1),), a.vector_for(7))
    k = 21 // 7
    p1 = from_bits([1 if i in {k * x % 21 for x in pair.d1} else 0 for i in range(21)])
    p0 = from_bits([1 if i in {k * x % 21 for x in pair.d0} else 0 for i in range(21)])
    g = combined_root(M21)
    for v in range(1, 21):
        lhs = eval_poly(p1, field.alpha_power(v * g), field)
        rhs = eval_poly(p0, field.alpha_power(v), field)
        assert lhs == rhs


def test_theorem1_n21_default():
    v = check_theorem1(M21, VectorAssignment.default(M21), build_field(21))
    assert v.applicable and v.holds
    seq = generate(M21, VectorAssignment.default(M21))
    assert lincomp_bm(seq).L >= (21 + 1) // 2 - delta(21)


def test_theorem1_n15_bound_includes_delta():
    m = validate_modulus([(3, 1), (5, 1)])
    seq = generate(m, VectorAssignment.default(m))
    assert delta(15) == 1
    assert lincomp_bm(seq).L >= 8 - 1
    v = check_theorem1(m, VectorAssignment.default(m), build_field(15))
    assert v.applicable and v.holds


def test_theorem1_even_sum_not_applicable():
    a = VectorAssignment.from_overrides(M21, {21: (1, 1)})
    v = check_theorem1(M21, a)
    assert not v.applicable


def test_pairing_identity_direct():
    from dhseq.numtheory import combined_root

    for factors in ([(3, 2)], [(3, 1), (5, 1)], [(3, 1), (7, 1)]):
        m = validate_modulus(factors)
        seq = generate(m, VectorAssignment.default(m))
        values = spectral_values(seq, build_field(m.n))
        g = combined_root(m)
        for v in range(1, m.n):
            assert values[v] ^ values[v * g % m.n] == 1


def test_corollary_n9():
    # 2 generates Z_9* (order 6) and delta(9) = 0, so L must be 9
    orders = {x: next(k for k in range(1, 7) if pow(x, k, 9) == 1) for x in (2,)}
    assert orders[2] == 6
    v = check_corollary(M9, VectorAssignment.default(M9))
    assert v.applicable and v.holds
    seq = generate(M9, VectorAssignment.default(M9))
    assert lincomp_bm(seq).L == 9


def test_corollary_not_applicable_n21():
    # order of 2 mod 7 is 3, not 6
    assert order_of_two(7) == 3
    v = check_corollary(M21, VectorAssignment.default(M21))
    assert not v.applicable


def test_corollary_n5_and_n3():
    m5 = validate_modulus([(5, 1)])
    v = check_corollary(m5, VectorAssignment.default(m5))
    assert v.applicable and v.holds
    assert lincomp_bm(generate(m5, VectorAssignment.default(m5))).L == 5
    m3 = validate_modulus([(3, 1)])
    v = check_corollary(m3, VectorAssignment.default(m3))
    assert v.applicable and v.holds  # L = 3 - delta(3) = 2


def test_crt_split_n21():
    split = crt_split(M21, 21)
    assert split.prime_powers == (3, 7)
    b1, b2 = split.coefficients
    assert (b1 * 7 + b2 * 3) % 21 == 1
    assert b1 % 3 != 0 and b2 % 7 != 0
    assert (b1, b2) == (1, 5)
    single = crt_split(M21, 3)
    assert single.coefficients == (1,)
    assert 1 * 7 % 21 == 7


def test_crt_split_sweep():
    for m in valid_moduli(300):
        n = m.n
        for d in m.divisors_gt1():
            split = crt_split(m, d)
            total = sum(b * (n // q) for b, q in zip(split.coefficients, split.prime_powers))
            assert total % n == n // d
            for b, q, (p, _) in zip(split.coefficients, split.prime_powers, m.divisor_factorization(d)):
                assert 0 <= b < q and b % p != 0


def test_crt_split_n105_d15():
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    split = crt_split(m, 15)
    assert split.prime_powers == (3, 5)
    b1, b2 = split.coefficients
    assert (b1 * (105 // 3) + b2 * (105 // 5)) % 105 == 105 // 15


def test_lemma3_n21():
    field = build_field(21)
    top = VectorAssignment.all_ones_top(M21)
    assert check_lemma3(M21, top, 21, field).holds
    default = VectorAssignment.default(M21)
    assert check_lemma3(M21, default, 21, field).holds
    # prime divisor: the identity degenerates to a reindexing of the same set
    assert check_lemma3(M21, default, 7, field).holds
    assert check_lemma3(M21, default, 3, field).holds


def test_lemma3_n105():
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    field = build_field(105)
    for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
        a = make(m)
        for d in (35, 105, 15):
            assert check_lemma3(m, a, d, field).holds, (d, a.spec_string())


def test_lemma3_split_forms_coincide():
    # the divisor's own split root beta'_k = alpha^(b'_k n/q) equals the
    # full-modulus split root raised to n/d, for every prime power of d
    for facs in ([(3, 2), (5, 1)], [(3, 1), (5, 1), (7, 1)], [(3, 1), (7, 1)]):
        m = validate_modulus(facs)
        n = m.n
        top = crt_split(m, n)
        top_by_prime = {q: b for q, b in zip(top.prime_powers, top.coefficients)}
        for d in m.divisors_gt1():
            split = crt_split(m, d)
            for (p, _), q, b in zip(
                m.divisor_factorization(d), split.prime_powers, split.coefficients
            ):
                big_q = next(pq for pq in m.prime_powers() if pq % p == 0)
                own = b * (n // q) % n
                via_top = top_by_prime[big_q] * (n // big_q) % n * (n // d) % n
                assert own == via_top, (n, d, q)


def test_lemma4_cases():
    field21 = build_field(21)
    v = check_lemma4(M21, field21)
    assert v.applicable and v.holds  # both primes 3 mod 4: spectrum 0 on units
    m15 = validate_modulus([(3, 1), (5, 1)])
    v = check_lemma4(m15, build_field(15))
    assert v.applicable and v.holds  # 5 = 1 mod 4: spectrum 1 on units
    m33 = validate_modulus([(3, 1), (11, 1)])
    v = check_lemma4(m33, build_field(33))
    assert v.applicable and v.holds


def test_lemma4_spectrum_values_direct():
    # recompute the unit spectrum with the generic spectral sweep
    seq = generate(M21, VectorAssignment.all_ones_top(M21))
    values = spectral_values(seq, build_field(21))
    for v in range(1, 21):
        if math.gcd(v, 21) == 1:
            assert values[v] == 0
    m15 = validate_modulus([(3, 1), (5, 1)])
    seq15 = generate(m15, VectorAssignment.all_ones_top(m15))
    values15 = spectral_values(seq15, build_field(15))
    for v in range(1, 15):
        if math.gcd(v, 15) == 1:
            assert values15[v] == 1


def test_lemma4_not_applicable_shapes():
    assert not check_lemma4(M9, build_field(9)).applicable
    m105 = validate_modulus([(3, 1), (5, 1), (7, 1)])
    assert not check_lemma4(m105, build_field(105)).applicable


def test_predicted_L_examples():
    assert predicted_L_two_primes(3, 11) == 13
    assert predicted_L_two_primes(3, 7) == 6
    assert predicted_L_two_primes(7, 23) == 15
    with pytest.raises(OutsideCaseTable):
        predicted_L_two_primes(3, 5)
    with pytest.raises(GcdConditionViolated):
        predicted_L_two_primes(5, 13)


def test_predicted_matches_measured_to_300():
    for m in valid_moduli(300):
        if m.t != 2 or any(e != 1 for _, e in m.factors):
            continue
        (p1, _), (p2, _) = m.factors
        if p1 % 4 != 3 or p2 % 4 != 3:
            continue
        seq = generate(m, VectorAssignment.all_ones_top(m))
        assert lincomp_bm(seq).L == predicted_L_two_primes(p1, p2), m.n


def test_quadratic_reciprocity_consistency():
    for m in valid_moduli(1000):
        if m.t != 2 or any(e != 1 for _, e in m.factors):
            continue
        (p1, _), (p2, _) = m.factors
        if p1 % 4 == 3 and p2 % 4 == 3:
            assert legendre(p1, p2) * legendre(p2, p1) == -1
        else:
            assert legendre(p1, p2) == legendre(p2, p1)


def test_all_checks_shapes():
    verdicts = theorems.all_checks(M21, VectorAssignment.default(M21), build_field(21))
    names = [v.name for v in verdicts]
    assert names.count("theorem1") == 1
    assert names.count("corollary") == 1
    assert "lemma1(d=3)" in names and "lemma3(d=21)" in names
    assert all(v.passed for v in verdicts)
    # without a field the field-bound checks are reported inapplicable
    verdicts = theorems.all_checks(M21, VectorAssignment.default(M21), None)
    lemma3 = [v for v in verdicts if v.name.startswith("lemma3")]
    assert lemma3 and all(not v.applicable for v in lemma3)
