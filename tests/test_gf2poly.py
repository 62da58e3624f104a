import random

import pytest
from hypothesis import given, settings, strategies as st

from dhseq import gf2poly, lincomp, numtheory, sequence
from dhseq.cyclotomy import VectorAssignment
from dhseq.errors import BothZero, DegreeCapExceeded
from dhseq.gf2poly import (
    berlekamp_massey,
    build_field,
    degree,
    gcd,
    is_irreducible,
    smallest_irreducible,
    square,
)

from conftest import valid_moduli
from oracles import (
    alpha_power,
    berlekamp_massey_per_bit,
    divmod_,
    eval_poly,
    field_modulus_generic,
    from_bits,
    gcd_by_divmod,
    is_irreducible_by_division,
    minimal_polynomial,
    mul,
    powmod,
    smallest_irreducible_field,
)


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
        if degree(g) >= 1 and divmod_(f, g)[1] == 0:
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
    assert divmod_(a, g)[1] == 0 and divmod_(b, g)[1] == 0


def test_square_of_zero():
    assert square(0) == 0


@given(st.integers(min_value=0, max_value=(1 << 300) - 1))
def test_square_matches_mul(a):
    assert square(a) == mul(a, a)


def test_powmod():
    f = 0b111  # x^2 + x + 1
    # x^3 = 1 in GF(4)
    assert powmod(0b10, 3, f) == 1
    assert powmod(0b10, 0, f) == 1
    for k in range(10):
        acc = 1
        for _ in range(k):
            acc = divmod_(mul(acc, 0b110), f)[1]
        assert powmod(0b110, k, f) == acc


def test_is_irreducible_matches_bruteforce():
    for f in range(1 << 9):
        assert is_irreducible(f) == brute_irreducible(f) == is_irreducible_by_division(f), bin(f)


# degrees above brute force, multiples of 8 and their neighbours among them;
# the walk at 256 passes 531 candidates, about 5 s of long division
@pytest.mark.parametrize("m", [11, 16, 24, 31, 32, 63, 64, 65, 127, 128, 129, 131, 255])
def test_is_irreducible_matches_rabin_by_division_on_the_smallest_irreducible_walk(m):
    # the walk of smallest_irreducible, led by the oracle so that a wrong
    # verdict fails here instead of walking on
    c = (1 << m) + 1
    while not is_irreducible_by_division(c):
        assert not is_irreducible(c), (m, c)
        c += 2
    assert is_irreducible(c) and smallest_irreducible(m) == c, (m, c)


def test_smallest_irreducible_examples():
    assert smallest_irreducible(2) == 0b111
    for m in range(2, 11):
        f = smallest_irreducible(m)
        assert degree(f) == m
        assert brute_irreducible(f)
        for c in range(1 << m, f):
            assert not brute_irreducible(c)


def test_smallest_irreducible_at_degree_one_and_below():
    assert smallest_irreducible(1) == 2
    with pytest.raises(ValueError, match="^degree must be positive$"):
        smallest_irreducible(0)


def test_smallest_irreducible_walk_is_bounded(monkeypatch):
    # the longest real walk (m = 256) resolves well inside the bound
    f = smallest_irreducible(256)
    assert degree(f) == 256 and is_irreducible(f)
    assert (f - (1 << 256) - 1) // 2 < gf2poly._MAX_IRREDUCIBLE_WALK // 4
    # an is_irreducible that rejects everything ends the walk in an error,
    # after exactly the bound; __wrapped__ leaves the cache untouched
    tested = []
    monkeypatch.setattr(gf2poly, "is_irreducible", lambda c: tested.append(c) or False)
    with pytest.raises(ArithmeticError, match="degree 64"):
        smallest_irreducible.__wrapped__(64)
    assert len(tested) == gf2poly._MAX_IRREDUCIBLE_WALK
    monkeypatch.undo()
    assert smallest_irreducible(64) == (1 << 64) + 0b11011


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


def test_berlekamp_massey_matches_per_bit_loop_on_survey_periods():
    for m in valid_moduli(2000):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            s, n = sequence.generate(m, make(m)).packed, m.n
            two = s | s << n
            assert berlekamp_massey(two, 2 * n) == berlekamp_massey_per_bit(two, 2 * n), n


def lfsr_stretch(rng, degree, length):
    """length output bits of a random LFSR with degree taps and a nonzero
    start, bit i of the int being s_i."""
    taps = rng.getrandbits(degree - 1) << 1 | 1 << degree | 1  # c_0 = c_degree = 1
    bits = [rng.getrandbits(1) for _ in range(degree)]
    bits[rng.randrange(degree)] = 1
    while len(bits) < length:
        acc = 0
        for j in range(1, degree + 1):
            acc ^= (taps >> j) & bits[-j]
        bits.append(acc)
    return from_bits(bits[:length])


@pytest.mark.parametrize("run", [8, 32, 300])
def test_berlekamp_massey_jumps_over_long_zero_runs(run):
    # A run of >= 8 zero discrepancies leaves the low byte of the running
    # product zero, so the jump takes the fallback past the byte table.
    rng = random.Random(run)
    for _ in range(60):
        # zeros in the input itself: leading, and inside a random string
        head = rng.randrange(run, 2 * run)
        tail = rng.randrange(1, 80)
        packed = rng.getrandbits(tail) << head
        cases = [(packed, head + tail)]
        middle = rng.getrandbits(20) | (rng.getrandbits(20) << (20 + head))
        cases.append((middle, 40 + head))
        # an LFSR of length <= degree makes no discrepancy after its first
        # 2 * degree bits (Massey 1969), so the run lasts until the tail
        degree = rng.randrange(1, 13)
        stretch = 2 * degree + run + rng.randrange(run)
        tail = rng.randrange(1, 80)
        packed = lfsr_stretch(rng, degree, stretch) | rng.getrandbits(tail) << stretch
        cases.append((packed, stretch + tail))
        for packed, length in cases:
            expected = berlekamp_massey_per_bit(packed, length)
            assert berlekamp_massey(packed, length) == expected, (packed, length)


def test_berlekamp_massey_edges():
    for length in (1, 2, 7, 8, 9, 64, 300):
        assert berlekamp_massey(0, length) == 0
        # the only nonzero discrepancy sits at bit length - 1
        assert berlekamp_massey(1 << (length - 1), length) == length
    assert berlekamp_massey(1, 1) == berlekamp_massey_per_bit(1, 1) == 1
    rng = random.Random(5)
    for _ in range(300):
        length = rng.randrange(2, 200)
        prefix = rng.getrandbits(length - 1)
        low = berlekamp_massey(prefix, length - 1)
        # of the two completions one has a nonzero discrepancy at bit
        # length - 1, which moves L to length - low when 2 * low < length
        found = set()
        for last in (0, 1):
            packed = prefix | last << (length - 1)
            L = berlekamp_massey(packed, length)
            assert L == berlekamp_massey_per_bit(packed, length), (packed, length)
            found.add(L)
        assert found == ({low, length - low} if 2 * low < length else {low}), (prefix, length)


def test_gcd_matches_divmod_euclid_on_random_pairs():
    rng = random.Random(11)
    for _ in range(2000):
        a = rng.getrandbits(rng.randrange(0, 400))
        b = rng.getrandbits(rng.randrange(0, 400))
        if a == 0 and b == 0:
            continue
        if rng.random() < 0.3:  # a shared factor, so that the gcd is not 1
            c = rng.getrandbits(rng.randrange(1, 60)) | 1
            a, b = mul(a, c), mul(b, c)
        assert gcd(a, b) == gcd_by_divmod(a, b), (a, b)


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
    assert powmod(f.alpha, 7, f.modulus_poly) != 1
    assert powmod(f.alpha, 3, f.modulus_poly) != 1


@pytest.mark.parametrize("n", [21, 3 * 8191, 641])
def test_field_mul_is_the_reduced_product(n):
    # 0 and 1 take the unreduced shortcut, every other pair the reduction:
    # at n = 21 (m = 6) every pair, each reduced in one table step; at
    # m = 26 and m = 64 seeded pairs, reduced in four and eight steps
    f = build_field(n)
    if n == 21:
        pairs = [(a, b) for a in range(1 << f.m) for b in range(1 << f.m)]
    else:
        rng = random.Random(n)
        pairs = [(rng.getrandbits(f.m), rng.getrandbits(f.m)) for _ in range(3000)]
    for a, b in pairs:
        assert f.mul(a, b) == divmod_(mul(a, b), f.modulus_poly)[1], (a, b)


# every degree to 17, then multiples of 8 and their neighbours up to 300
@pytest.mark.parametrize(
    "m", [*range(2, 18), 23, 24, 25, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300]
)
def test_reducer_matches_long_division(m):
    rng = random.Random(m)
    for _ in range(2):
        f = 1 << m | rng.getrandbits(m)
        reduce = gf2poly._reducer(f)
        # every bit length up to 2m + 16, so that each alignment of the
        # last byte step meets the table
        for bits in range(2 * m + 17):
            x = rng.getrandbits(bits) | (1 << bits >> 1)
            r = reduce(x)
            assert r == divmod_(x, f)[1], (f, x)
            if x >> m == 0:
                assert r == x, (f, x)


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


@pytest.mark.parametrize("cap", [0, -1, gf2poly.MAX_DEGREE_CAP + 1, 10**5])
def test_degree_cap_out_of_range_raises_before_searching(monkeypatch, cap):
    def refuse(m):
        raise AssertionError(f"searched for an irreducible of degree {m}")

    monkeypatch.setattr(gf2poly, "smallest_irreducible", refuse)
    with pytest.raises(ValueError, match="degree cap"):
        build_field(1019, cap)
    # the largest allowed cap passes the range check and meets the usual cap test
    with pytest.raises(DegreeCapExceeded):
        build_field(1019, gf2poly.MAX_DEGREE_CAP)


def test_eval_poly():
    f = build_field(21)
    all_ones = (1 << 21) - 1
    for v in range(1, 21):
        assert eval_poly(all_ones, alpha_power(f, v), f) == 0
    assert eval_poly(1, alpha_power(f, 5), f) == 1
    xn1 = (1 << 21) | 1
    for v in range(21):
        assert eval_poly(xn1, alpha_power(f, v), f) == 0
    assert eval_poly(0, f.alpha, f) == 0


def test_subset_eval_matches_eval_poly():
    f = build_field(21)
    exps = [0, 2, 5, 11, 17]
    poly = from_bits([1 if i in exps else 0 for i in range(21)])
    for v in range(21):
        assert f.subset_eval(exps, v) == eval_poly(poly, alpha_power(f, v), f)


def test_minimal_polynomial_examples():
    f = 0b10011  # x^4 + x + 1, primitive
    assert minimal_polynomial(0b10, f, 4) == f  # x is its own root
    assert minimal_polynomial(1, f, 4) == 0b11  # x + 1
    assert minimal_polynomial(0, f, 4) == 0b10  # x
    # x^5 has order 3, so it lies in GF(4): x^2 + x + 1
    assert minimal_polynomial(powmod(2, 5, f), f, 4) == 0b111
    # x^3 has order 5: x^4 + x^3 + x^2 + x + 1
    assert minimal_polynomial(0b1000, f, 4) == 0b11111


def test_rebased_field_matches_smallest_irreducible_field():
    for modulus in numtheory.enumerate_valid_moduli(2000):
        n = modulus.n
        m = numtheory.order_of_two(n)
        if m > gf2poly.DEFAULT_DEGREE_CAP:
            continue
        field = build_field(n)
        old = smallest_irreducible_field(n)
        g = field.modulus_poly
        assert field.alpha == 2 and degree(g) == m == field.m, n
        assert brute_irreducible(g) if m <= 16 else is_irreducible(g), n
        # g is the minimal polynomial of the old alpha
        assert eval_poly(g, old.alpha, old) == 0, n
        powers = field.alpha_powers()
        assert len(powers) == n
        for i in {0, 1, m - 1, m, min(m + 1, n - 1), n // 2, n - 1}:
            assert powers[i] == powmod(2, i, g), (n, i)
        seq = sequence.generate(modulus, VectorAssignment.default(modulus))
        assert lincomp.lincomp_spectral(seq, field) == lincomp.lincomp_spectral(seq, old), n


def test_build_field_modulus_matches_the_generic_path():
    for n in range(3, 2000, 2):
        if numtheory.order_of_two(n) <= gf2poly.DEFAULT_DEGREE_CAP:
            assert build_field(n).modulus_poly == field_modulus_generic(n), n


@pytest.mark.parametrize("n", [67, 121, 131, 137, 203, 211, 227, 503])
def test_build_field_modulus_matches_the_generic_path_above_the_default_cap(n):
    m = numtheory.order_of_two(n)
    assert gf2poly.DEFAULT_DEGREE_CAP < m <= gf2poly.MAX_DEGREE_CAP
    field = build_field(n, gf2poly.MAX_DEGREE_CAP)
    assert field.m == m and field.modulus_poly == field_modulus_generic(n)
