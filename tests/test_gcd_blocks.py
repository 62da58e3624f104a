"""The gcd route by cyclotomic blocks against the one-shot Euclid oracle."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dhseq import gf2poly, lincomp
from dhseq.cli import main
from dhseq.cyclotomy import VectorAssignment
from dhseq.errors import MethodDisagreement
from dhseq.lincomp import block_zero_counts, lincomp_bm, lincomp_gcd, unit_orbit_zeros
from dhseq.numtheory import (
    crt_combine,
    divisor_blocks,
    divisors,
    factorize,
    h_orbits,
    orbit_bits,
    validate_modulus,
)
from dhseq.sequence import Period, delta, generate

from conftest import valid_moduli
from oracles import (
    block_counts_euclid,
    cyclotomic_by_division,
    divmod_,
    gcd_by_divmod,
    legendre,
    lincomp_gcd_euclid,
    multiplicative_order,
    orbit_kernel_rotations,
    orbit_labels_by_index,
)


def primes_of(d):
    return [p for p, _ in factorize(d)] if d > 1 else []


def phi(d):
    out = d
    for p in primes_of(d):
        out = out // p * (p - 1)
    return out


def assert_matches_euclid(packed, n):
    seq = Period(packed, n)
    assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq), (n, packed)


def test_cyclotomic_arithmetic_matches_division():
    rng = random.Random(7)
    for d in range(1, 400, 2):
        primes = primes_of(d)
        phi_d = cyclotomic_by_division(d)
        assert gf2poly.cyclotomic(d, primes) == phi_d, d
        assert gf2poly.degree(phi_d) == phi(d)
        for a in (0, 1, (1 << d) - 1, rng.getrandbits(d), rng.getrandbits(d)):
            assert gf2poly.cyclotomic_mod(a, d, primes) == divmod_(a, phi_d)[1], (d, a)
        a = rng.getrandbits(rng.randrange(1, 7 * d))
        assert gf2poly.fold(a, d) == divmod_(a, (1 << d) | 1)[1], d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_odd_periods_match_euclid(data):
    n = data.draw(st.integers(min_value=0, max_value=299)) * 2 + 1
    assert_matches_euclid(data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)


def test_all_zero_and_all_one_periods():
    for n in range(1, 600, 2):
        assert lincomp_gcd(Period(0, n)) == n - n == 0
        assert lincomp_gcd(Period((1 << n) - 1, n)) == n - (n - 1) == 1
        assert_matches_euclid(0, n)
        assert_matches_euclid((1 << n) - 1, n)


@pytest.mark.parametrize(
    "n, sub", [(15, 3), (15, 5), (45, 9), (105, 21), (105, 35), (231, 33), (243, 27), (595, 85)]
)
def test_shorter_subperiod_empties_whole_blocks(n, sub):
    rng = random.Random(n * sub)
    for _ in range(5):
        pattern = rng.getrandbits(sub)
        packed = 0
        for k in range(n // sub):
            packed |= pattern << (k * sub)
        counts = block_zero_counts(packed, n)
        # S = pattern * (x^n + 1)/(x^sub + 1): Phi_d divides it for d not dividing sub
        assert all(counts[d] == phi(d) for d in counts if sub % d)
        assert_matches_euclid(packed, n)


IRREDUCIBLE = [3, 9, 27, 81, 243, 729, 5, 25, 125, 625, 11, 121]
REDUCIBLE = [7, 49, 343, 17, 289]


@pytest.mark.parametrize("n", IRREDUCIBLE + REDUCIBLE)
def test_prime_powers_match_euclid_and_skip_euclid_when_irreducible(n, monkeypatch):
    calls = []
    real_gcd = gf2poly.gcd

    def counted(a, b):
        calls.append(b)
        return real_gcd(a, b)

    monkeypatch.setattr(gf2poly, "gcd", counted)
    rng = random.Random(n)
    m = validate_modulus(factorize(n))
    periods = [generate(m, VectorAssignment.default(m)).packed]
    periods += [rng.getrandbits(n) for _ in range(6)]
    # p equal chunks of w = n/p bits: a multiple of Phi_n(x) = Phi_p(x^w),
    # and with one bit flipped no multiple
    w = n // factorize(n)[0][0]
    chunks = (rng.getrandbits(w) | 1) * sum(1 << c for c in range(0, n, w))
    periods += [chunks, chunks ^ 1 << rng.randrange(n)]
    assert block_zero_counts(chunks, n)[n] == phi(n)
    for packed in periods:
        calls.clear()
        counts = block_zero_counts(packed, n)
        # every block d > 1 of these n is reducible when n is, and its S_d
        # is a union of H-orbits whenever S_n is, so Euclid runs exactly
        # when n is reducible and S_n is no union of H-orbits
        assert bool(calls) == (n in REDUCIBLE and orbit_bits(packed, m.factors) is None)
        for d, count in counts.items():
            phi_d = cyclotomic_by_division(d)
            assert count == gf2poly.degree(real_gcd(divmod_(packed, phi_d)[1], phi_d))
        seq = Period(packed, n)
        assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq)


def test_dh_sequences_match_euclid_to_2000():
    for m in valid_moduli(2000):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            seq = generate(m, make(m))
            assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq), (m.n, make.__name__)


def test_corollary_value_at_3_to_the_13():
    m = validate_modulus([(3, 13)])
    L = lincomp_gcd(generate(m, VectorAssignment.default(m)))
    assert m.n == 1_594_323
    assert L == m.n - delta(m.n) == 1_594_322


def _wrong_degree_gcd(a, b):
    return 0b11  # x + 1: degree 1, while every factor of Phi_7 has degree 3


# bit 1 alone: no union of H-orbits of Z_7 ({0}, {1, 2, 4}, {3, 5, 6}), so
# block 7 runs Euclid
RAW_7 = "0100000"


def test_block_count_off_the_order_of_two_raises(monkeypatch):
    monkeypatch.setattr(gf2poly, "gcd", _wrong_degree_gcd)
    with pytest.raises(MethodDisagreement, match="ord_7"):
        lincomp_gcd(Period(int(RAW_7[::-1], 2), 7))


def test_block_count_guard_exits_3(monkeypatch, capsys, tmp_path):
    f = tmp_path / "raw7.txt"
    f.write_text(RAW_7 + "\n")
    monkeypatch.setattr(gf2poly, "gcd", _wrong_degree_gcd)
    code = main(["lincomp", "--method", "gcd", "--sequence", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert "ord_7(2) = 3" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "bits", ["01", "11", "10", "0110", "1111", "1000", "101100111010", "111111111111", "100100100100"]
)
def test_even_raw_periods_take_euclid_and_match_bm(tmp_path, capsys, bits):
    f = tmp_path / "even.txt"
    f.write_text(bits + "\n")
    seq = Period(int(bits[::-1], 2), len(bits))
    want = lincomp_bm(seq)
    assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq)
    assert main(["lincomp", "--sequence", str(f), "--method", "gcd"]) == 0
    assert capsys.readouterr().out == f"L[gcd] = {want}\n"


# --- the unit-orbit route -----------------------------------------------------


def omega(d):
    return len(primes_of(d))


def orbit_kernel(s, d):
    """K(d), the H-orbits of d-th roots of unity where S_d = s vanishes:
    unit_orbit_zeros summed over the folds S_e, e | d, whose unit orbits
    are the orbits of order e; None when S_d is no union of H-orbits."""
    total = 0
    for e in divisors(factorize(d)):
        bits = orbit_bits(gf2poly.fold(s, e), factorize(e))
        if bits is None:
            return None
        total += unit_orbit_zeros(bits, factorize(e))
    return total


def assert_unit_orbits_match_euclid(packed, n):
    counts = block_counts_euclid(packed, n)
    for d, count in counts.items():
        factors = factorize(d)
        zeros = unit_orbit_zeros(orbit_bits(gf2poly.fold(packed, d), factors), factors)
        assert zeros * phi(d) >> omega(d) == count, (n, d)


def odd_sum_assignment(m, rng):
    vectors = {}
    for d in m.divisors_gt1():
        bits = [rng.randrange(2) for _ in m.divisor_factorization(d)[1:]]
        vectors[d] = tuple(bits) + (1 - sum(bits) % 2,)
    return VectorAssignment(m, vectors)


def test_orbit_kernel_matches_euclid_blocks_to_2000():
    # every block d | n, block 1 and the irreducible ones included, counted
    # on its unit orbits alone
    for m in valid_moduli(2000):
        rng = random.Random(m.n)
        for a in (
            VectorAssignment.default(m),
            VectorAssignment.all_ones_top(m),
            odd_sum_assignment(m, rng),
        ):
            assert_unit_orbits_match_euclid(generate(m, a).packed, m.n)


MULTI_PRIME = [n for n in range(15, 600, 2) if omega(n) >= 2]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_orbit_unions_match_euclid(data):
    n = data.draw(st.sampled_from(MULTI_PRIME))
    orbits = h_orbits(n)
    chosen = data.draw(st.integers(min_value=0, max_value=(1 << len(orbits.reps)) - 1))
    packed = sum(1 << v for v, k in enumerate(orbits.labels) if chosen >> k & 1)
    assert_unit_orbits_match_euclid(packed, n)
    assert lincomp_gcd(Period(packed, n)) == lincomp_gcd_euclid(Period(packed, n))


def spy(monkeypatch, module, name):
    """Wrap module.name so each call's arguments and result are recorded."""
    calls = []
    real = getattr(module, name)

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recorded)
    return calls


def orbit_blocks(calls):
    """The block d of each recorded unit_orbit_zeros call, from its factors."""
    return [math.prod(p**l for p, l in args[1]) for args, _ in calls]


def reducible_blocks(n):
    return sorted(d for d, (_, order) in divisor_blocks(factorize(n)).items() if order != phi(d))


# Of 131*317 only the top block is reducible: ord_41527(2) = 20540, and its
# unit-orbit size 10270 is no multiple of it, so an off-by-one count breaks
# the guard. Of 7^6 every block is (ord_7(2) = 3).
@pytest.mark.parametrize("factors", [[(131, 1), (317, 1)], [(7, 6)]])
def test_flipped_and_rotated_periods_fall_back_to_euclid(factors, monkeypatch):
    m = validate_modulus(factors)
    n = m.n
    packed = generate(m, VectorAssignment.default(m)).packed
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    euclid = spy(monkeypatch, gf2poly, "gcd")
    block_zero_counts(packed, n)
    assert orbit_blocks(orbits) == reducible_blocks(n)
    assert euclid == []
    rotated = (packed << 5 | packed >> (n - 5)) & ((1 << n) - 1)
    for other in (packed ^ 2, rotated):
        orbits.clear()
        euclid.clear()
        assert block_zero_counts(other, n) == block_counts_euclid(other, n)
        assert n not in orbit_blocks(orbits)
        assert phi(n) in {gf2poly.degree(args[1]) for args, _ in euclid}


def test_lincomp_gcd_at_1019_1031():
    m = validate_modulus([(1019, 1), (1031, 1)])
    assert lincomp_gcd(generate(m, VectorAssignment.default(m))) == 1_050_074


def counts_without_euclid(m, make, euclid):
    """block_zero_counts of the period make(m) builds, which as a union of
    H-orbits folds to unions at every d, so no block may run Euclid."""
    euclid.clear()
    counts = block_zero_counts(generate(m, make(m)).packed, m.n)
    assert euclid == [], (m.n, make.__name__)
    return counts


def test_generated_periods_to_3309_make_no_euclid_call(monkeypatch):
    # every survey and verify modulus; the p = +-3 (mod 8) prime-power
    # blocks among them vanish at all or none of their roots
    euclid = spy(monkeypatch, gf2poly, "gcd")
    checked = vanished = 0
    for m in valid_moduli(3309):
        blocks = all_or_none_blocks(m.n)
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            counts = counts_without_euclid(m, make, euclid)
            assert all(counts[d] in (0, phi(d)) for d in blocks), (m.n, make.__name__)
            if m.n <= 2000:
                checked += len(blocks)
                vanished += sum(counts[d] > 0 for d in blocks)
    # 138 (period, block) pairs to 2000, and no such block vanishes
    assert (checked, vanished) == (138, 0)


T6 = [(3, 1), (5, 1), (7, 1), (11, 1), (23, 1), (47, 1)]


@pytest.mark.parametrize(
    "factors",
    [
        [(499, 1), (503, 1)],
        [(5, 1), (7, 1), (11351, 1)],
        [(3, 2), (12899, 1)],
        [(3, 1), (8191, 1)],
        [(3, 1), (5, 1), (2731, 1)],
        T6,
    ],
)
def test_large_top_blocks_make_no_euclid_call(factors, monkeypatch):
    m = validate_modulus(factors)
    euclid = spy(monkeypatch, gf2poly, "gcd")
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
        orbits.clear()
        counts_without_euclid(m, make, euclid)
        assert orbit_blocks(orbits)[-1] == m.n


# L as a per-block Euclid gives it
@pytest.mark.parametrize(
    "factors, L_default, L_all_ones_top",
    [
        ([(3, 2), (12899, 1)], 116_090, 116_090),
        ([(3, 1), (5, 1), (2731, 1)], 40_965, 40_965),
        (T6, 1_212_341, 969_461),
        ([(3, 3), (5, 2), (23, 1)], 15_514, 15_514),
    ],
)
def test_every_large_reducible_block_takes_the_rank_route(
    factors, L_default, L_all_ones_top, monkeypatch
):
    # every reducible block, of 4608 or more or not, takes the unit-orbit
    # count, with no Euclid
    m = validate_modulus(factors)
    reducible = reducible_blocks(m.n)
    assert [d for d in reducible if d >= 4608]
    euclid = spy(monkeypatch, gf2poly, "gcd")
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    for make, L in (
        (VectorAssignment.default, L_default),
        (VectorAssignment.all_ones_top, L_all_ones_top),
    ):
        euclid.clear()
        orbits.clear()
        assert lincomp_gcd(generate(m, make(m))) == L
        assert orbit_blocks(orbits) == reducible
        assert euclid == []


def _off_by_one_orbits(real):
    def zeros(bits, factors):
        return real(bits, factors) + 1

    return zeros


def test_rank_route_leaves_no_cyclic_garbage(monkeypatch):
    # the unit-orbit route builds d-bit label tiles for the union test; held
    # by a reference cycle they would wait for the next full collection,
    # whether the count passes the guard or an off-by-one count trips it
    import gc

    m = validate_modulus([(131, 1), (317, 1)])
    seq = generate(m, VectorAssignment.default(m))
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage]
        off_by_one = _off_by_one_orbits(lincomp.unit_orbit_zeros)
        monkeypatch.setattr(lincomp, "unit_orbit_zeros", off_by_one)
        with pytest.raises(MethodDisagreement, match="ord_41527"):
            lincomp_gcd(seq)
        gc.collect()
        cyclic += [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert orbit_blocks(orbits) == [m.n, m.n]
    assert cyclic == []


def test_block_euclid_matches_divmod_euclid_on_survey_blocks(monkeypatch):
    # generated periods make no Euclid call, so feed them rotated by 5: their
    # S_d are then no unions of H-orbits, and the reducible blocks run Euclid
    calls = spy(monkeypatch, gf2poly, "gcd")
    for m in valid_moduli(2000):
        n = m.n
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            packed = generate(m, make(m)).packed
            r = 5 % n
            lincomp_gcd(Period((packed << r | packed >> (n - r)) & ((1 << n) - 1), n))
    assert len(calls) > 1000
    for (a, b), g in calls:
        assert g == gcd_by_divmod(a, b), (a, b)


def test_divisor_blocks_take_the_order_of_two_by_lcm():
    for n in [m.n for m in valid_moduli(2000)] + [3 * 5 * 7 * 11 * 23 * 47]:
        factors = factorize(n)
        blocks = divisor_blocks(factors)
        assert sorted(blocks) == divisors(factors), n
        assert blocks[1] == ((), 1)
        for d, (dfactors, order) in blocks.items():
            if d > 1:
                assert list(dfactors) == factorize(d), (n, d)
                assert order == multiplicative_order(2, d), (n, d)


def test_rank_count_off_the_order_of_two_raises(monkeypatch):
    monkeypatch.setattr(lincomp, "unit_orbit_zeros", _off_by_one_orbits(lincomp.unit_orbit_zeros))
    m = validate_modulus([(131, 1), (317, 1)])
    with pytest.raises(MethodDisagreement, match="ord_41527"):
        lincomp_gcd(generate(m, VectorAssignment.default(m)))


def test_rank_count_guard_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(lincomp, "unit_orbit_zeros", _off_by_one_orbits(lincomp.unit_orbit_zeros))
    code = main(["lincomp", "--method", "gcd", "--factors", "131:1,317:1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "ord_41527(2) = 20540" in captured.err and captured.out == ""


# --- one-bit flips and the all-or-none prime-power blocks --------------------


def orbit_representative(m, labels):
    """The member of the orbit with these labels (one per prime power of
    n) that orbit_bits reads: by CRT, 0 for label 0 and p^v u for label
    1 + 2 v + c, u = 1 for c = 0 and the least nonsquare mod p for c = 1."""
    residues = []
    for (p, _), b in zip(m.factors, labels):
        if b == 0:
            residues.append(0)
        else:
            v, c = divmod(b - 1, 2)
            u = next(x for x in range(2, p) if legendre(x, p) == -1) if c else 1
            residues.append(p**v * u)
    return crt_combine(residues, m)


@pytest.mark.parametrize("factors", [[(3, 1), (5, 1), (7, 1)], [(3, 2), (5, 1), (11, 1)]])
def test_one_bit_flips_leave_the_rank_route(factors, monkeypatch):
    # every orbit of two or more members, flipped once at the member
    # orbit_bits reads and once at another: S_n is then no union of
    # H-orbits, and the top block's L comes from Euclid
    m = validate_modulus(factors)
    n = m.n
    packed = generate(m, VectorAssignment.default(m)).packed
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    members = {}
    for x, k in enumerate(orbit_labels_by_index(m.factors)):
        members.setdefault(k, []).append(x)
    # label tuples in the order of their index in bits, the last fastest
    for k, orbit in enumerate(itertools.product(*(range(2 * e + 1) for _, e in m.factors))):
        if len(members[k]) < 2:
            continue
        rep = orbit_representative(m, orbit)
        assert rep in members[k]
        for x in (rep, next(x for x in members[k] if x != rep)):
            flipped = Period(packed ^ (1 << x), n)
            assert orbit_bits(flipped.packed, m.factors) is None, (n, orbit, x)
            orbits.clear()
            assert lincomp_gcd(flipped) == lincomp_gcd_euclid(flipped), (n, orbit, x)
            assert n not in orbit_blocks(orbits), (n, orbit, x)


def all_or_none_blocks(n):
    """The blocks d = p^l | n with Phi_d reducible and p = +-3 (mod 8): an
    S_d that is a union of H-orbits vanishes at all or none of the
    primitive d-th roots of unity."""
    return [
        d
        for d, (dfactors, order) in divisor_blocks(factorize(n)).items()
        if len(dfactors) == 1 and dfactors[0][0] % 8 in (3, 5) and order != phi(d)
    ]


@pytest.mark.parametrize("n, bit", [(43, 1), (129, 3), (43 * 3 * 11, 33)])
def test_one_bit_flip_in_an_all_or_none_block_falls_back_to_euclid(n, bit, monkeypatch):
    # bit is a multiple of n/43, so the flip lands in the block of 43
    m = validate_modulus(factorize(n))
    packed = generate(m, VectorAssignment.default(m)).packed
    phi_43 = gf2poly.cyclotomic(43, [43])
    assert 43 in all_or_none_blocks(n) and orbit_bits(gf2poly.fold(packed, 43), [(43, 1)])
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    euclid = spy(monkeypatch, gf2poly, "gcd")
    block_zero_counts(packed, n)
    assert 43 in orbit_blocks(orbits)
    assert phi_43 not in [args[1] for args, _ in euclid]
    flipped = packed ^ (1 << bit)
    assert orbit_bits(gf2poly.fold(flipped, 43), [(43, 1)]) is None
    orbits.clear()
    euclid.clear()
    counts = block_zero_counts(flipped, n)
    assert 43 not in orbit_blocks(orbits)
    assert phi_43 in [args[1] for args, _ in euclid]
    assert counts == block_counts_euclid(flipped, n)


@pytest.mark.parametrize("factors, L", [([(4643, 1)], 4642), ([(43, 3)], 79506)])
def test_large_all_or_none_blocks_take_the_zero_test(factors, L, monkeypatch):
    # reducible blocks of 4608 or more: 4643 (ord_4643(2) = 422) and 43^3
    # (ord(2) = 25886). 2 is a nonsquare mod 43 and 4643, so the Frobenius
    # swaps the two unit orbits of each block (their values are w and w^2 at
    # once): every count is 0 or phi(d), with no Euclid call
    m = validate_modulus(factors)
    n = m.n
    assert [d for d in all_or_none_blocks(n) if d >= 4608] == [n]
    euclid = spy(monkeypatch, gf2poly, "gcd")
    for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
        counts = counts_without_euclid(m, make, euclid)
        assert all(counts[d] in (0, phi(d)) for d in all_or_none_blocks(n)), make.__name__
        seq = Period(generate(m, make(m)).packed, n)
        assert lincomp_gcd(seq) == lincomp_bm(seq) == L


def test_flipped_and_rotated_4643_falls_back_to_euclid(monkeypatch):
    m = validate_modulus([(4643, 1)])
    n = m.n
    packed = generate(m, VectorAssignment.default(m)).packed
    rotated = (packed << 5 | packed >> (n - 5)) & ((1 << n) - 1)
    orbits = spy(monkeypatch, lincomp, "unit_orbit_zeros")
    euclid = spy(monkeypatch, gf2poly, "gcd")
    for other in (packed ^ 2, rotated):
        orbits.clear()
        euclid.clear()
        assert block_zero_counts(other, n) == block_counts_euclid(other, n)
        assert orbits == []
        assert phi(n) in {gf2poly.degree(args[1]) for args, _ in euclid}


# --- K(d) against the GF(2) rank of the d-bit matrix ---------------------------


@pytest.mark.parametrize(
    "factors",
    [
        [(499, 1), (503, 1)],
        [(5, 1), (7, 1), (11351, 1)],
        [(3, 2), (12899, 1)],
        [(7, 6)],
        [(1019, 1), (1031, 1)],
        [(4643, 1)],
        [(131, 1), (317, 1)],
        [(3, 3), (5, 2), (23, 1)],
    ],
)
def test_orbit_kernel_matches_rotations(factors):
    m = validate_modulus(factors)
    for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
        packed = generate(m, make(m)).packed
        for d in divisors(factorize(m.n)):
            s = gf2poly.fold(packed, d)
            assert orbit_kernel(s, d) == orbit_kernel_rotations(s, d, factorize(d)), (m.n, d)
