import math
import random
from itertools import product

import pytest

from dhseq import theorems
from dhseq.cyclotomy import VectorAssignment, generalized_classes
from dhseq.errors import GcdConditionViolated, OutsideCaseTable
from dhseq.gf2poly import build_field
from dhseq.lincomp import Spectrum, lincomp_bm, spectral_values
from dhseq.numtheory import order_of_two, validate_modulus
from dhseq.sequence import delta, generate
from dhseq.theorems import (
    CheckRun,
    CheckVerdict,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_theorem1,
    predicted_L_two_primes,
)

from conftest import valid_moduli
from oracles import (
    alpha_power,
    crt_split,
    eval_poly,
    from_bits,
    legendre,
    odd_tuple_sum_by_enumeration,
)

M21 = validate_modulus([(3, 1), (7, 1)])
M9 = validate_modulus([(3, 2)])


def default_run(m, field=None):
    """A fresh run under the default assignment."""
    return CheckRun(m, VectorAssignment.default(m), field)


def test_lemma1_d7_by_hand():
    # combined root of 21 is 17, and 17 mod 7 = 3; 3 * {1,2,4} = {3,6,5} mod 7
    assert {3 * x % 7 for x in (1, 2, 4)} == {3, 5, 6}
    v = check_lemma1(default_run(M21), 7)
    assert v.applicable and v.holds


def test_lemma1_even_sum_not_applicable():
    v = check_lemma1(CheckRun(M21, VectorAssignment.from_overrides(M21, {21: (1, 1)}), None), 21)
    assert not v.applicable and v.holds is None


def test_lemma1_d21_bruteforce():
    # independent set computation over Z_21
    d0, d1 = generalized_classes(((3, 1), (7, 1)), (0, 1))
    g = 17 % 21
    assert {g * x % 21 for x in d0} == set(d1)
    assert {g * x % 21 for x in d1} == set(d0)
    v = check_lemma1(CheckRun(M21, VectorAssignment.from_overrides(M21, {21: (0, 1)}), None), 21)
    assert v.applicable and v.holds


def test_lemma1_sweep_default_assignment():
    for m in valid_moduli(300):
        run = default_run(m)
        for d in m.divisors_gt1():
            v = check_lemma1(run, d)
            assert v.applicable and v.holds, (m.n, d)


def test_lemma1_witness_when_the_root_does_not_swap(monkeypatch):
    monkeypatch.setattr(theorems.numtheory, "combined_root", lambda modulus: 1)
    v = check_lemma1(default_run(M21), 7)
    assert v.applicable and v.holds is False
    assert v.witness == "g=1 does not swap the classes of 7"


def test_lemma2_witness_when_an_orbit_value_flips():
    a = VectorAssignment.default(M21)
    run = CheckRun(M21, a, build_field(21))
    s1 = run.spectrum(21, 1)
    values = list(s1.values)
    values[1] ^= 1
    run._spectra[21, 1] = Spectrum(s1.reduced, s1.reps, tuple(values), s1.labels)
    v = check_lemma2(run, 21)
    assert v.applicable and v.holds is False
    assert v.witness.startswith("evaluation form fails at v=")


def test_lemma2_n21_d7_field():
    a = VectorAssignment.default(M21)
    v = check_lemma2(CheckRun(M21, a, build_field(21)), 7)
    assert v.applicable and v.holds


def test_lemma2_set_form_n9_d3():
    # 3*D1 mod 9 = {6}; multiplying by the combined root 2: 2*6 = 12 = 3 mod 9 = 3*D0
    assert {2 * 6 % 9} == {3}
    a = VectorAssignment.default(M9)
    v = check_lemma2(CheckRun(M9, a, None), 3)
    assert v.applicable and v.holds


def test_lemma2_even_sum_not_applicable():
    a = VectorAssignment.from_overrides(M21, {21: (1, 1)})
    v = check_lemma2(CheckRun(M21, a, None), 21)
    assert not v.applicable


def test_lemma2_oracle_horner_n21():
    # independent route: Horner-evaluate the two lifted indicator polynomials
    from dhseq.numtheory import combined_root

    field = build_field(21)
    a = VectorAssignment.default(M21)
    d0, d1 = generalized_classes(((7, 1),), a.vector_for(7))
    k = 21 // 7
    p1 = from_bits([1 if i in {k * x % 21 for x in d1} else 0 for i in range(21)])
    p0 = from_bits([1 if i in {k * x % 21 for x in d0} else 0 for i in range(21)])
    g = combined_root(M21)
    for v in range(1, 21):
        lhs = eval_poly(p1, alpha_power(field, v * g), field)
        rhs = eval_poly(p0, alpha_power(field, v), field)
        assert lhs == rhs


def test_theorem1_n21_default():
    v = check_theorem1(default_run(M21, build_field(21)))
    assert v.applicable and v.holds
    seq = generate(M21, VectorAssignment.default(M21))
    assert lincomp_bm(seq) >= (21 + 1) // 2 - delta(21)


def test_theorem1_n15_bound_includes_delta():
    m = validate_modulus([(3, 1), (5, 1)])
    seq = generate(m, VectorAssignment.default(m))
    assert delta(15) == 1
    assert lincomp_bm(seq) >= 8 - 1
    v = check_theorem1(default_run(m, build_field(15)))
    assert v.applicable and v.holds


def test_theorem1_even_sum_not_applicable():
    a = VectorAssignment.from_overrides(M21, {21: (1, 1)})
    v = check_theorem1(CheckRun(M21, a, None))
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
    v = check_corollary(default_run(M9))
    assert v.applicable and v.holds
    seq = generate(M9, VectorAssignment.default(M9))
    assert lincomp_bm(seq) == 9


def test_corollary_not_applicable_n21():
    # order of 2 mod 7 is 3, not 6
    assert order_of_two(7) == 3
    v = check_corollary(default_run(M21))
    assert not v.applicable


def test_corollary_n5_and_n3():
    m5 = validate_modulus([(5, 1)])
    v = check_corollary(default_run(m5))
    assert v.applicable and v.holds
    assert lincomp_bm(generate(m5, VectorAssignment.default(m5))) == 5
    m3 = validate_modulus([(3, 1)])
    v = check_corollary(default_run(m3))
    assert v.applicable and v.holds  # L = 3 - delta(3) = 2


def test_crt_split_n21():
    assert M21.divisor_factorization(21) == ((3, 1), (7, 1))
    b1, b2 = crt_split(M21, 21)
    assert (b1 * 7 + b2 * 3) % 21 == 1
    assert b1 % 3 != 0 and b2 % 7 != 0
    assert (b1, b2) == (1, 5)
    assert crt_split(M21, 3) == (1,)
    assert 1 * 7 % 21 == 7


def test_crt_split_sweep():
    for m in valid_moduli(300):
        n = m.n
        for d in m.divisors_gt1():
            split = crt_split(m, d)
            qs = [p**l for p, l in m.divisor_factorization(d)]
            assert len(split) == len(qs)
            total = sum(b * (n // q) for b, q in zip(split, qs))
            assert total % n == n // d
            for b, q, (p, _) in zip(split, qs, m.divisor_factorization(d)):
                assert 0 <= b < q and b % p != 0


def test_crt_split_n105_d15():
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    assert m.divisor_factorization(15) == ((3, 1), (5, 1))
    b1, b2 = crt_split(m, 15)
    assert (b1 * (105 // 3) + b2 * (105 // 5)) % 105 == 105 // 15


def test_lemma3_n21():
    field = build_field(21)
    top = CheckRun(M21, VectorAssignment.all_ones_top(M21), field)
    assert check_lemma3(top, 21).holds
    default = default_run(M21, field)
    assert check_lemma3(default, 21).holds
    # prime divisor: the identity degenerates to a reindexing of the same set
    assert check_lemma3(default, 7).holds
    assert check_lemma3(default, 3).holds


def test_lemma3_n105():
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    field = build_field(105)
    for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
        a = make(m)
        run = CheckRun(m, a, field)
        for d in (35, 105, 15):
            assert check_lemma3(run, d).holds, (d, a.spec_string())


def parity_pass_cases():
    """Every nonzero a_d of length 1..4, each with seeded random pairs of
    elements of GF(2^12), 0 and 1 drawn often."""
    field = build_field(105)
    rng = random.Random(16)

    def element():
        return rng.randrange(1 << field.m) if rng.random() < 0.6 else rng.randrange(2)

    for t in range(1, 5):
        for a_d in product((0, 1), repeat=t):
            if any(a_d):
                yield field, a_d, [
                    [(element(), element()) for _ in range(t)] for _ in range(25)
                ]


def test_parity_pass_matches_odd_tuple_enumeration():
    for field, a_d, cases in parity_pass_cases():
        for pairs in cases:
            got = theorems._odd_tuple_sum(field, a_d, pairs)
            assert got == odd_tuple_sum_by_enumeration(field, a_d, pairs), (a_d, pairs)


def pass_without_swap(field, a_d, pairs):
    """A mutant of the parity pass: a selected prime keeps the class sums
    in place for the odd part instead of swapping them."""
    mul = field.mul
    even, odd = 1, 0
    for a, (x0, x1) in zip(a_d, pairs):
        if a:
            even, odd = mul(even, x0) ^ mul(odd, x1), mul(even, x0) ^ mul(odd, x1)
        else:
            both = x0 ^ x1
            even, odd = mul(even, both), mul(odd, both)
    return odd


def test_parity_pass_without_the_swap_disagrees(monkeypatch):
    for field, a_d, cases in parity_pass_cases():
        assert any(
            pass_without_swap(field, a_d, pairs) != odd_tuple_sum_by_enumeration(field, a_d, pairs)
            for pairs in cases
        ), a_d
    # and the lemma check built on it fails
    monkeypatch.setattr(theorems, "_odd_tuple_sum", pass_without_swap)
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    got = check_lemma3(CheckRun(m, VectorAssignment.all_ones_top(m), build_field(105)), 105)
    assert got.holds is False and got.witness.startswith("mismatch at v=")


def test_lemma3_split_forms_coincide():
    # the divisor's own split root beta'_k = alpha^(b'_k n/q) equals the
    # full-modulus split root raised to n/d, for every prime power of d
    for facs in ([(3, 2), (5, 1)], [(3, 1), (5, 1), (7, 1)], [(3, 1), (7, 1)]):
        m = validate_modulus(facs)
        n = m.n
        top_by_prime = dict(zip(m.prime_powers(), crt_split(m, n)))
        for d in m.divisors_gt1():
            for (p, l), b in zip(m.divisor_factorization(d), crt_split(m, d)):
                big_q = next(pq for pq in m.prime_powers() if pq % p == 0)
                own = b * (n // p**l) % n
                via_top = top_by_prime[big_q] * (n // big_q) % n * (n // d) % n
                assert own == via_top, (n, d, p)


def test_lemma4_cases():
    # each run has the default assignment: lemma4 generates its own
    # all-ones-top period and must not read the run's
    field21 = build_field(21)
    v = check_lemma4(default_run(M21, field21))
    assert v.applicable and v.holds  # both primes 3 mod 4: spectrum 0 on units
    m15 = validate_modulus([(3, 1), (5, 1)])
    v = check_lemma4(default_run(m15, build_field(15)))
    assert v.applicable and v.holds  # 5 = 1 mod 4: spectrum 1 on units
    m33 = validate_modulus([(3, 1), (11, 1)])
    v = check_lemma4(default_run(m33, build_field(33)))
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
    assert not check_lemma4(default_run(M9, build_field(9))).applicable
    m105 = validate_modulus([(3, 1), (5, 1), (7, 1)])
    assert not check_lemma4(default_run(m105, build_field(105))).applicable
    # without a field even a two-prime n cannot be decided
    assert check_lemma4(default_run(M21)) == CheckVerdict(
        "lemma4", False, None, "field unavailable"
    )


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
        assert lincomp_bm(seq) == predicted_L_two_primes(p1, p2), m.n


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
    assert lemma3 == [
        CheckVerdict(f"lemma3(d={d})", False, None, "field unavailable")
        for d in M21.divisors_gt1()
    ]
    assert lemma3 == [check_lemma3(default_run(M21), d) for d in M21.divisors_gt1()]


@pytest.mark.parametrize(
    "factors, overrides, generated",
    [
        ([(3, 2), (5, 1)], None, 1),  # theorem1 and corollary both apply
        ([(3, 1), (7, 1)], None, 1),  # corollary: 2 is not primitive modulo 7
        ([(3, 1), (7, 1)], "21:11", 0),  # even sum: neither needs the period
    ],
)
def test_all_checks_generates_and_measures_gcd_once(monkeypatch, factors, overrides, generated):
    from collections import Counter

    from dhseq import lincomp, sequence

    m = validate_modulus(factors)
    if overrides:
        assignment = VectorAssignment.parse_spec(m, overrides)
    else:
        assignment = VectorAssignment.default(m)
    field = build_field(m.n)
    # each on a fresh run
    separate = [
        check_theorem1(CheckRun(m, assignment, field)),
        check_corollary(CheckRun(m, assignment, field)),
    ]
    calls = Counter()

    def counted(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counted(sequence, "generate")
    counted(lincomp, "lincomp_gcd")
    verdicts = theorems.all_checks(m, assignment, field)
    # lemma4 (squarefree two-prime n) generates its own all-ones-top period
    lemma4 = int(verdicts[-3].applicable)
    assert calls == Counter(generate=generated + lemma4, lincomp_gcd=generated)
    assert verdicts[-2:] == separate


@pytest.mark.parametrize(
    "factors, overrides, with_field",
    [
        ([(3, 1), (5, 1), (7, 1), (11, 1)], None, True),
        ([(3, 1), (5, 1), (7, 1)], "105:110\n15:11", True),  # two even-sum divisors
        ([(3, 1), (5, 1), (7, 1)], "105:110\n15:11", False),
        ([(3, 2), (5, 1)], None, False),
    ],
)
def test_all_checks_builds_each_class_pair_once(monkeypatch, factors, overrides, with_field):
    from dhseq import cyclotomy

    m = validate_modulus(factors)
    assignment = VectorAssignment.parse_spec(m, overrides or "")
    field = build_field(m.n) if with_field else None
    divisors = m.divisors_gt1()
    # each on a fresh run
    separate = [check_lemma1(CheckRun(m, assignment, field), d) for d in divisors]
    separate += [check_lemma2(CheckRun(m, assignment, field), d) for d in divisors]
    if field is not None:
        separate += [check_lemma3(CheckRun(m, assignment, field), d) for d in divisors]
    calls = []
    real = cyclotomy.generalized_classes

    def counted(facs, a_d):
        calls.append((tuple(facs), tuple(a_d)))
        return real(facs, a_d)

    monkeypatch.setattr(cyclotomy, "generalized_classes", counted)
    verdicts = theorems.all_checks(m, assignment, field)
    assert verdicts[: len(separate)] == separate
    # one pair per divisor that any lemma reads; lemma3's prime powers are
    # divisors it reads anyway
    needed = [d for d in divisors if field is not None or sum(assignment.vector_for(d)) % 2]
    assert sorted(calls) == sorted(
        (m.divisor_factorization(d), assignment.vector_for(d)) for d in needed
    )


def test_all_checks_builds_each_lifted_spectrum_once(monkeypatch):
    # at 1155 (t = 4, default): two lifted classes per divisor, read by
    # lemma2 and lemma3 alike, and theorem1's period; lemma4 does not apply
    from dhseq import lincomp

    m = validate_modulus([(3, 1), (5, 1), (7, 1), (11, 1)])
    calls = []
    _count_calls(monkeypatch, lincomp, "spectrum", calls)
    verdicts = theorems.all_checks(m, VectorAssignment.default(m), build_field(m.n))
    assert all(v.passed for v in verdicts)
    assert len(calls) <= 2 * 15 + 1


def test_all_checks_goes_through_the_public_checks(monkeypatch):
    # perfbench traces these module attributes; all_checks must look them up
    from collections import Counter

    calls = Counter()
    for name in ("lemma1", "lemma2", "lemma3", "lemma4", "theorem1", "corollary"):
        real = getattr(theorems, f"check_{name}")

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(theorems, f"check_{name}", wrapper)
    m = validate_modulus([(3, 1), (5, 1), (7, 1), (11, 1)])
    verdicts = theorems.all_checks(m, VectorAssignment.default(m), build_field(m.n))
    assert len(m.divisors_gt1()) == 15
    assert calls == Counter(lemma1=15, lemma2=15, lemma3=15, lemma4=1, theorem1=1, corollary=1)
    assert len(verdicts) == 48 and all(v.passed for v in verdicts)


def _count_calls(monkeypatch, module, attr, calls):
    real = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append((attr, args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


def test_all_checks_lemma1_builds_odd_sum_pairs_and_no_period(monkeypatch):
    from dhseq import cyclotomy, sequence

    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    assignment = VectorAssignment.parse_spec(m, "105:110\n15:11")
    calls = []
    _count_calls(monkeypatch, cyclotomy, "generalized_classes", calls)
    _count_calls(monkeypatch, sequence, "generate", calls)
    verdicts = theorems.all_checks(m, assignment, build_field(m.n), check="lemma1")
    odd = [d for d in m.divisors_gt1() if sum(assignment.vector_for(d)) % 2]
    assert len(odd) == len(m.divisors_gt1()) - 2
    assert calls == [
        ("generalized_classes", (m.divisor_factorization(d), assignment.vector_for(d)))
        for d in odd
    ]
    run = CheckRun(m, assignment, None)
    assert verdicts == [check_lemma1(run, d) for d in m.divisors_gt1()]


def test_all_checks_corollary_alone_generates_no_period_where_it_does_not_apply(monkeypatch):
    from dhseq import lincomp, sequence

    calls = []
    _count_calls(monkeypatch, sequence, "generate", calls)
    _count_calls(monkeypatch, lincomp, "lincomp_gcd", calls)
    assignment = VectorAssignment.default(M21)
    verdicts = theorems.all_checks(M21, assignment, None, check="corollary")
    assert verdicts == [check_corollary(CheckRun(M21, assignment, None))]
    assert verdicts[0].witness == "2 is not a primitive root modulo 7"
    assert calls == []


def test_all_checks_rejects_an_unknown_check():
    with pytest.raises(ValueError, match="lemma5"):
        theorems.all_checks(M21, VectorAssignment.default(M21), None, check="lemma5")


def test_check_run_builds_nothing_until_a_check_reads_it(monkeypatch):
    from dhseq import cyclotomy, lincomp, sequence

    calls = []
    _count_calls(monkeypatch, sequence, "generate", calls)
    _count_calls(monkeypatch, cyclotomy, "generalized_classes", calls)
    _count_calls(monkeypatch, lincomp, "lincomp_gcd", calls)
    _count_calls(monkeypatch, lincomp, "spectrum", calls)
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    CheckRun(m, VectorAssignment.default(m), build_field(m.n))
    assert calls == []


def test_theorem1_and_corollary_on_one_run_measure_once(monkeypatch):
    # at 3^2*5 both apply, and the second reads the first one's period and L
    from collections import Counter

    from dhseq import lincomp, sequence

    calls = []
    _count_calls(monkeypatch, sequence, "generate", calls)
    _count_calls(monkeypatch, lincomp, "lincomp_gcd", calls)
    m = validate_modulus([(3, 2), (5, 1)])
    run = default_run(m)
    assert check_theorem1(run).holds and check_corollary(run).holds
    assert Counter(attr for attr, _ in calls) == Counter(generate=1, lincomp_gcd=1)


@pytest.mark.parametrize("other_n", [35, 15])
def test_check_run_refuses_a_field_for_another_n(other_n):
    # a field for 35 gave wrong verdicts at 21, and one for 15 an IndexError
    with pytest.raises(ValueError, match=f"field is for n={other_n}, modulus has n=21"):
        default_run(M21, build_field(other_n))
