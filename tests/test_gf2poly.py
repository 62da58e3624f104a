import pytest
from hypothesis import given, settings, strategies as st

from dhseq import gf2poly
from dhseq.errors import BothZero, DegreeCapExceeded
from dhseq.gf2poly import (
    berlekamp_massey,
    build_field,
    degree,
    divmod_,
    eval_poly,
    gcd,
    is_irreducible,
    mod,
    mul,
    powmod,
    smallest_irreducible,
)

from oracles import from_bits


# Oracle arithmetic on coefficient lists, independent of the bit tricks.


def to_list(a):
    return [(a >> i) & 1 for i in range(a.bit_length())]


def list_mul(a, b):
    la, lb = to_list(a), to_list(b)
    out = [0] * (len(la) + len(lb))
    for i, x in enumerate(la):
        if x:
            for j, y in enumerate(lb):
                out[i + j] ^= y
    return from_bits(out)


def brute_lfsr_length(bits):
    """Smallest L such that some length-L recurrence fits all of bits."""
    n = len(bits)
    if all(b == 0 for b in bits):
        return 0
    for L in range(1, n + 1):
        for mask in range(1 << L):
            taps = [(mask >> i) & 1 for i in range(L)]
            ok = True
            for j in range(L, n):
                acc = 0
                for i, c in enumerate(taps):
                    acc ^= c & bits[j - 1 - i]
                if acc != bits[j]:
                    ok = False
                    break
            if ok:
                return L
    return n


def brute_irreducible(f):
    d = degree(f)
    if d is None or d == 0:
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if degree(g) >= 1 and mod(f, g) == 0:
            return False
    return True


def test_degree():
    assert degree(0) is None
    assert degree(1) == 0
    assert degree(0b1011) == 3


def test_gcd_examples():
    # x^2 + 1 = (x+1)^2 over GF(2)
    assert gcd(0b101, 0b11) == 0b11
    # x^3 + 1 = (x+1)(x^2+x+1)
    assert gcd(0b1001, 0b111) == 0b111
    assert gcd(0b1101, 0) == 0b1101
    assert gcd(0, 0b1101) == 0b1101
    with pytest.raises(BothZero):
        gcd(0, 0)


polys = st.integers(min_value=0, max_value=(1 << 12) - 1)


@given(polys, polys)
def test_mul_matches_list_oracle(a, b):
    assert mul(a, b) == list_mul(a, b)


@given(polys, polys.filter(lambda b: b != 0))
def test_divmod_reconstructs(a, b):
    q, r = divmod_(a, b)
    assert r == mod(a, b)
    assert degree(r) is None or degree(r) < degree(b)
    assert list_mul(q, b) ^ r == a


@given(polys, polys, polys.filter(lambda c: c != 0))
def test_gcd_multiplicative(a, b, c):
    if a == 0 and b == 0:
        return
    assert gcd(list_mul(a, c), list_mul(b, c)) == list_mul(gcd(a, b), c)


@given(polys, polys)
def test_gcd_divides_both(a, b):
    if a == 0 and b == 0:
        return
    g = gcd(a, b)
    assert mod(a, g) == 0 and mod(b, g) == 0


def test_powmod():
    f = 0b111  # x^2 + x + 1
    # x^3 = 1 in GF(4)
    assert powmod(0b10, 3, f) == 1
    assert powmod(0b10, 0, f) == 1
    for k in range(10):
        acc = 1
        for _ in range(k):
            acc = mod(mul(acc, 0b110), f)
        assert powmod(0b110, k, f) == acc


def test_is_irreducible_matches_bruteforce():
    for f in range(1 << 9):
        assert is_irreducible(f) == brute_irreducible(f), bin(f)


def test_smallest_irreducible_examples():
    assert smallest_irreducible(2) == 0b111
    for m in range(2, 11):
        f = smallest_irreducible(m)
        assert degree(f) == m
        assert brute_irreducible(f)
        for c in range(1 << m, f):
            assert not brute_irreducible(c)


def test_berlekamp_massey_examples():
    assert berlekamp_massey(from_bits("1111"), 4) == 1
    assert berlekamp_massey(from_bits("0101"), 4) == 2
    s = [0, 0, 0, 1] * 4
    assert brute_lfsr_length(s) == 4
    assert berlekamp_massey(from_bits(s), len(s)) == 4
    assert berlekamp_massey(0, 8) == 0
    with pytest.raises(ValueError):
        berlekamp_massey(0, 0)
    # a set bit outside the stated length is not a bit string of that length
    with pytest.raises(ValueError):
        berlekamp_massey(0b100, 2)
    with pytest.raises(ValueError):
        berlekamp_massey(-1, 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=14))
def test_berlekamp_massey_matches_exhaustive_search(bits):
    assert berlekamp_massey(from_bits(bits), len(bits)) == brute_lfsr_length(bits)


def test_build_field_n3():
    f = build_field(3)
    assert f.m == 2
    assert f.modulus_poly == 0b111
    assert f.alpha == 0b10  # the whole multiplicative group has order 3


def test_build_field_n21():
    f = build_field(21)
    assert f.m == 6 and (1 << 6) - 1 == 63 == 3 * 21
    # verify alpha's order by raw repeated multiplication
    acc, seen = 1, []
    for _ in range(21):
        acc = f.mul(acc, f.alpha)
        seen.append(acc)
    assert seen[-1] == 1
    assert f.pow(f.alpha, 7) != 1
    assert f.pow(f.alpha, 3) != 1


def test_build_field_n33():
    assert build_field(33).m == 10


def test_alpha_powers_distinct():
    for n in (3, 9, 15, 21, 33):
        f = build_field(n)
        powers = f.alpha_powers()
        assert len(set(powers)) == n
        assert powers[0] == 1


def test_build_field_modulus_is_irreducible():
    for n in (3, 9, 15, 21, 33):
        assert brute_irreducible(build_field(n).modulus_poly)


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        build_field(21, degree_cap=4)
    with pytest.raises(DegreeCapExceeded):
        build_field(131, degree_cap=64)  # order of 2 mod 131 is 130


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("DHSEQ_DEGREE_CAP", "4")
    with pytest.raises(DegreeCapExceeded):
        build_field(21)
    monkeypatch.setenv("DHSEQ_DEGREE_CAP", "6")
    assert build_field(21).m == 6


def test_eval_poly():
    f = build_field(21)
    all_ones = (1 << 21) - 1
    for v in range(1, 21):
        assert eval_poly(all_ones, f.alpha_power(v), f) == 0
    assert eval_poly(1, f.alpha_power(5), f) == 1
    xn1 = (1 << 21) | 1
    for v in range(21):
        assert eval_poly(xn1, f.alpha_power(v), f) == 0
    assert eval_poly(0, f.alpha, f) == 0


def test_subset_eval_matches_eval_poly():
    f = build_field(21)
    exps = [0, 2, 5, 11, 17]
    poly = from_bits([1 if i in exps else 0 for i in range(21)])
    for v in range(21):
        assert f.subset_eval(exps, v) == eval_poly(poly, f.alpha_power(v), f)
