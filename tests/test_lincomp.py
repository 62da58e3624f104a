from dhseq.cyclotomy import VectorAssignment, global_partition
from dhseq.gf2poly import berlekamp_massey, build_field, eval_poly
from dhseq.lincomp import (
    lincomp_bm,
    lincomp_gcd,
    lincomp_spectral,
    spectral_values,
)
from dhseq.numtheory import order_of_two, validate_modulus
from dhseq.sequence import RawPeriod, delta, generate

from conftest import valid_moduli
from oracles import from_bits


def seq_for(factors, make=VectorAssignment.default):
    m = validate_modulus(factors)
    return generate(m, make(m))


def test_sequence_polynomial_examples():
    s3 = seq_for([(3, 1)])
    assert s3.packed == 0b101  # 1 + x^2
    s9 = seq_for([(3, 2)])
    assert s9.packed == (1 | 1 << 2 | 1 << 5 | 1 << 6 | 1 << 8)
    for factors in ([(3, 1), (7, 1)], [(3, 1), (5, 1)]):
        s = seq_for(factors)
        poly = s.packed
        assert bin(poly).count("1") == (s.n + 1) // 2
        assert poly & 1 == 1  # 0 is always a one-position


def test_lincomp_bm_known_values():
    s21 = seq_for([(3, 1), (7, 1)], VectorAssignment.all_ones_top)
    assert lincomp_bm(s21).L == 6
    s33 = seq_for([(3, 1), (11, 1)], VectorAssignment.all_ones_top)
    assert lincomp_bm(s33).L == 13
    assert lincomp_bm(RawPeriod(from_bits((1,) * 9), 9)).L == 1


def test_lincomp_gcd_known_values():
    s21 = seq_for([(3, 1), (7, 1)], VectorAssignment.all_ones_top)
    r = lincomp_gcd(s21)
    assert r.L == 6 and r.zero_count == 15
    # all-ones period: S(x) = (x^n + 1)/(x + 1) divides x^n + 1
    r = lincomp_gcd(RawPeriod(from_bits((1,) * 9), 9))
    assert r.L == 1 and r.zero_count == 8


def test_lincomp_spectral_n3():
    m = validate_modulus([(3, 1)])
    seq = generate(m, VectorAssignment.default(m))
    r = lincomp_spectral(seq, build_field(3))
    assert r.zero_set == frozenset({0})  # only S(1) vanishes; delta(3) = 1
    assert r.L == 2
    assert berlekamp_massey(from_bits("101101"), 6) == 2


def test_zero_at_v0_iff_delta():
    for factors in ([(3, 1)], [(3, 2)], [(3, 1), (5, 1)], [(3, 1), (7, 1)], [(3, 1), (11, 1)]):
        seq = seq_for(factors)
        r = lincomp_spectral(seq, build_field(seq.n))
        assert (0 in r.zero_set) == (delta(seq.n) == 1)


def test_methods_agree_small_sweep():
    for m in valid_moduli(200):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            seq = generate(m, make(m))
            bm = lincomp_bm(seq).L
            gc = lincomp_gcd(seq).L
            assert bm == gc, m.n
            if order_of_two(m.n) <= 64:
                assert lincomp_spectral(seq, build_field(m.n)).L == gc, m.n


def test_spectral_values_match_horner():
    # same numbers through an entirely different evaluation path: Horner on S(x)
    seq = seq_for([(3, 1), (7, 1)])
    field = build_field(21)
    poly = seq.packed
    values = spectral_values(seq, field)
    for v in range(21):
        assert values[v] == eval_poly(poly, field.alpha_power(v), field)


def test_frobenius_closure_of_zero_set():
    for factors in ([(3, 2)], [(3, 1), (5, 1)], [(3, 1), (7, 1)], [(3, 1), (11, 1)], [(3, 1), (5, 1), (7, 1)]):
        seq = seq_for(factors)
        r = lincomp_spectral(seq, build_field(seq.n))
        assert all((2 * v) % seq.n in r.zero_set for v in r.zero_set)


def test_class_indicator_sums_cancel_off_zero():
    # S_C0(alpha^v) + S_C1(alpha^v) = 0 for every v = 1..n-1
    for factors in ([(3, 2)], [(3, 1), (5, 1)], [(3, 1), (7, 1)]):
        m = validate_modulus(factors)
        a = VectorAssignment.default(m)
        c0, c1 = global_partition(m, a)
        field = build_field(m.n)
        for v in range(1, m.n):
            assert field.subset_eval(sorted(c0), v) == field.subset_eval(sorted(c1), v)


def test_bm_equals_gcd_blahut_form():
    # complexity from two periods equals n minus deg gcd(S, x^n + 1)
    for m in valid_moduli(60):
        seq = generate(m, VectorAssignment.default(m))
        poly = seq.packed
        from dhseq.gf2poly import degree, gcd

        g = gcd(poly, (1 << m.n) | 1)
        assert lincomp_bm(seq).L == m.n - degree(g)
