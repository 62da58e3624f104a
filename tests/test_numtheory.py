import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from dhseq import numtheory
from dhseq.cyclotomy import VectorAssignment
from dhseq.errors import DHSeqError, EvenOrRepeatedPrime, GcdConditionViolated, NotPrime
from dhseq.numtheory import (
    Modulus,
    combined_root,
    crt_combine,
    divisor_blocks,
    enumerate_valid_moduli,
    factorize,
    is_prime,
    order_of_two,
    primitive_root,
    validate_modulus,
)
from dhseq.sequence import block_rules

from conftest import valid_moduli
from oracles import (
    crt_view,
    is_prime_miller_rabin,
    legendre,
    multiplicative_order,
    orbit_rule_bits_by_labels,
    orbit_union_by_index,
)


# Brute-force oracles, deliberately independent of the implementation paths.


def brute_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, n))


def brute_divisors(n):
    return [d for d in range(2, n + 1) if n % d == 0]


def brute_factorize(n):
    """(prime, exponent) pairs of n, ascending, by the prime divisors of n."""
    out = []
    for p in brute_divisors(n):
        if brute_is_prime(p):
            e = 0
            while n % p ** (e + 1) == 0:
                e += 1
            out.append((p, e))
    return out


def test_is_prime_matches_trial_division():
    for n in range(-2, 600):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_larger_cases():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(1_000_003)
    assert not is_prime(1_000_001)  # 101 * 9901


def test_is_prime_matches_miller_rabin():
    for n in range(200_000):
        assert is_prime(n) == is_prime_miller_rabin(n), n
    top = numtheory.MAX_PERIOD
    for n in range(top - 2000 + 1, top, 2):
        assert is_prime(n) == is_prime_miller_rabin(n), n


def test_factorize_recombines():
    for n in range(1, 2000):
        facs = factorize(n)
        assert math.prod(p**e for p, e in facs) == n
        assert facs == sorted(facs)
        assert all(brute_is_prime(p) for p, _ in facs)


def test_factorize_rejects_a_nonpositive_n():
    with pytest.raises(ValueError, match="^factorize expects a positive integer$"):
        factorize(0)


def test_validate_modulus_accepts_21():
    m = validate_modulus([(3, 1), (7, 1)])
    assert m.n == 21
    assert m.factors == ((3, 1), (7, 1))
    assert math.gcd(2, 6) == 2


def test_validate_modulus_accepts_105():
    # all three pairwise totient gcds must be exactly 2
    totients = {3: 2, 5: 4, 7: 6}
    pairs = [(3, 5), (3, 7), (5, 7)]
    assert all(math.gcd(totients[a], totients[b]) == 2 for a, b in pairs)
    m = validate_modulus([(3, 1), (5, 1), (7, 1)])
    assert m.n == 105


def test_validate_modulus_accepts_39_rejects_65():
    assert math.gcd(2, 12) == 2
    assert validate_modulus([(3, 1), (13, 1)]).n == 39
    assert math.gcd(4, 12) == 4
    # the first clashing pair in ascending order, however the input is
    # ordered; 5*13*17 clashes in all three pairs, each with gcd 4
    for factors in ([(5, 1), (13, 1)], [(13, 1), (5, 1), (3, 1)], [(17, 1), (13, 1), (5, 1)]):
        with pytest.raises(GcdConditionViolated) as exc:
            validate_modulus(factors)
        assert exc.value.pair == (5, 13)
        assert exc.value.gcd_value == 4


def test_validate_modulus_rejects_63():
    # totients of 9 and 7 are both 6
    with pytest.raises(GcdConditionViolated):
        validate_modulus([(3, 2), (7, 1)])


def test_validate_modulus_sorts_factors():
    m = validate_modulus([(7, 1), (3, 1)])
    assert m.factors == ((3, 1), (7, 1))


def test_validate_modulus_input_errors():
    with pytest.raises(ValueError):
        validate_modulus([])
    with pytest.raises(EvenOrRepeatedPrime):
        validate_modulus([(2, 1), (3, 1)])
    with pytest.raises(NotPrime):
        validate_modulus([(9, 1)])
    with pytest.raises(EvenOrRepeatedPrime):
        validate_modulus([(3, 1), (3, 2)])
    with pytest.raises(ValueError):
        validate_modulus([(3, 0)])


def test_primitive_root_examples():
    assert primitive_root(3, 1) == 2
    assert primitive_root(7, 1) == 3
    assert primitive_root(3, 2) == 2


def test_primitive_root_is_smallest_generator():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for e in (1, 2):
            q = p**e
            phi = q // p * (p - 1)
            g = primitive_root(p, e)
            assert multiplicative_order(g, q) == phi
            for h in range(2, g):
                assert math.gcd(h, q) != 1 or multiplicative_order(h, q) < phi


def test_primitive_root_rejects_nonprime():
    with pytest.raises(NotPrime):
        primitive_root(9)
    with pytest.raises(NotPrime):
        primitive_root(2)


def test_primitive_root_rejects_an_exponent_below_one():
    with pytest.raises(ValueError, match="^exponent must be >= 1$"):
        primitive_root(7, 0)


def test_h_orbits_rejects_an_even_n():
    with pytest.raises(ValueError, match="^H-orbits need an odd n >= 1, got 4$"):
        numtheory.h_orbits(4)


def test_crt_combine_examples():
    m = validate_modulus([(3, 1), (7, 1)])
    x = crt_combine((2, 3), m)
    assert x == 17 and x % 3 == 2 and x % 7 == 3
    assert crt_combine((0, 0), m) == 0
    assert crt_combine((1, 1), m) == 1


def test_crt_round_trip_full_ring():
    for m in valid_moduli(300):
        for x in range(m.n):
            assert crt_combine(crt_view(x, m), m) == x
    # a couple of larger rings below 10**4
    for facs in ([(3, 2), (5, 2)], [(3, 8)]):
        m = validate_modulus(facs)
        assert m.n <= 10**4
        for x in range(m.n):
            assert crt_combine(crt_view(x, m), m) == x


def test_crt_combine_requires_matching_length():
    m = validate_modulus([(3, 1), (7, 1)])
    with pytest.raises(ValueError):
        crt_combine((1,), m)


def test_combined_root_examples():
    assert combined_root(validate_modulus([(3, 1), (7, 1)])) == 17
    assert combined_root(validate_modulus([(3, 2)])) == 2
    assert combined_root(validate_modulus([(3, 1), (5, 1)])) == 2


def test_combined_root_generates_every_factor_group():
    for m in valid_moduli(500):
        g = combined_root(m)
        for p, e in m.factors:
            q = p**e
            assert multiplicative_order(g % q, q) == q // p * (p - 1)


def test_legendre_examples():
    assert pow(3, 2, 7) == 2
    assert legendre(2, 7) == 1
    squares_mod_7 = {x * x % 7 for x in range(1, 7)}
    assert squares_mod_7 == {1, 2, 4}
    assert legendre(3, 7) == -1
    assert legendre(7, 7) == 0


def test_legendre_against_exhaustive_squares():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        squares = {x * x % p for x in range(1, p)}
        for a in range(2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expected


@given(
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_legendre_is_multiplicative(p, a, b):
    if a % p == 0 or b % p == 0:
        return
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)
    assert legendre(a + p, p) == legendre(a, p)


def test_nonsquare_table_is_cached():
    table = numtheory.nonsquare_table(11351)
    assert numtheory.nonsquare_table(11351) is table
    for p in (3, 7, 11, 13):
        chi = numtheory.nonsquare_table(p)
        assert list(chi) == [int(legendre(x, p) == -1) for x in range(p)]


def test_order_of_two_examples():
    assert multiplicative_order(2, 21) == 6
    assert order_of_two(21) == 6
    assert multiplicative_order(2, 33) == 10
    assert order_of_two(33) == 10
    assert order_of_two(3) == 2


def test_order_of_two_minimal_and_equals_brute_force():
    for n in range(3, 10_000, 2):
        d = order_of_two(n)
        assert d == multiplicative_order(2, n), n
        # minimality: no proper divisor of d already reaches 1
        for k in range(1, d):
            if d % k == 0:
                assert pow(2, k, n) != 1


@pytest.mark.parametrize("p, order", [(1093, 364), (3511, 1755)])
def test_order_of_two_stays_at_wieferich_squares(p, order):
    # 2^(p-1) = 1 (mod p^2): the lift from p to p^2 keeps the order
    assert order_of_two(p) == order_of_two(p * p) == order
    assert multiplicative_order(2, p * p) == order


@pytest.mark.parametrize(
    "p, e, order",
    [
        (3, 15, 2 * 3**14),
        (5, 10, 4 * 5**9),
        (7, 8, 3 * 7**7),
        (11, 6, 10 * 11**5),
        (13, 6, 12 * 13**5),
    ],
)
def test_order_of_two_at_high_prime_powers(p, e, order):
    q = p**e
    t = order_of_two(q)
    assert t == order
    assert pow(2, t, q) == 1
    # t divides p^(e-1) (p - 1), so its primes are at most p
    primes = [r for r in range(2, p + 1) if brute_is_prime(r) and t % r == 0]
    assert all(pow(2, t // r, q) != 1 for r in primes)


def test_divisor_blocks_at_a_wieferich_square():
    assert divisor_blocks([(1093, 2)]) == {
        1: ((), 1),
        1093: (((1093, 1),), 364),
        1194649: (((1093, 2),), 364),
    }


def test_order_of_two_rejects_even_or_tiny():
    with pytest.raises(ValueError):
        order_of_two(10)
    with pytest.raises(ValueError):
        order_of_two(1)


def divisors_gt1(n: int) -> list[int]:
    return Modulus(tuple(factorize(n)), n).divisors_gt1()


def test_proper_divisors_examples():
    assert divisors_gt1(21) == [3, 7, 21]
    assert divisors_gt1(9) == [3, 9]
    assert divisors_gt1(105) == [3, 5, 7, 15, 21, 35, 105]


def test_proper_divisors_against_scan():
    for n in range(2, 300):
        assert divisors_gt1(n) == brute_divisors(n)


def test_enumerate_valid_moduli_matches_bruteforce():
    # the whole list, order and factor tuples, against the totient rule
    # written out here and against validate_modulus
    expected = []
    for n in range(3, 3001, 2):
        factors = brute_factorize(n)
        totients = [p ** (e - 1) * (p - 1) for p, e in factors]
        if all(math.gcd(u, v) == 2 for u, v in itertools.combinations(totients, 2)):
            expected.append(Modulus(tuple(factors), n))
        else:
            with pytest.raises(DHSeqError):
                validate_modulus(factors)
    assert enumerate_valid_moduli(3000) == expected
    assert all(validate_modulus(m.factors) == m for m in expected)
    listed = {m.n for m in expected}
    assert {9, 15, 21, 105} <= listed
    assert 63 not in listed
    for max_n, below in ((0, []), (1, []), (2, []), (3, [3])):
        assert [m.n for m in enumerate_valid_moduli(max_n)] == below


def test_enumerate_valid_moduli_entries_revalidate():
    for m in valid_moduli(400):
        again = validate_modulus(m.factors)
        assert again == m


def test_modulus_divisor_factorization():
    m = validate_modulus([(3, 2), (5, 1)])
    assert m.divisors_gt1() == [3, 5, 9, 15, 45]
    assert m.divisor_factorization(15) == ((3, 1), (5, 1))
    assert m.divisor_factorization(9) == ((3, 2),)
    with pytest.raises(ValueError):
        m.divisor_factorization(7)
    with pytest.raises(ValueError):
        m.divisor_factorization(1)


def test_validate_modulus_period_bound():
    from dhseq.errors import PeriodTooLarge

    assert 3**15 < numtheory.MAX_PERIOD < 3**16
    assert validate_modulus([(3, 15)]).n == 3**15
    for factors in ([(3, 16)], [(3, 1), (7, 1), (2305843009213693951, 1)], [(3, 10**12)]):
        with pytest.raises(PeriodTooLarge) as exc:
            validate_modulus(factors)
        assert isinstance(exc.value, DHSeqError)


def test_enumerated_moduli_are_freed_without_a_full_collection():
    # a survey enumerates hundreds of moduli per call; held by a reference
    # cycle they would wait for the next full collection
    import gc

    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(enumerate_valid_moduli(200)) > 10
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


def _odd_prime_powers(bound):
    for p in filter(is_prime, range(3, bound, 2)):
        l = 1
        while p**l < bound:
            yield p, l
            l += 1


def test_label_tiles_partition_every_odd_prime_power_below_10000():
    checked = 0
    for p, l in _odd_prime_powers(10_000):
        q = p**l
        labels = bytes(numtheory.prime_power_labels(p, l))
        tiles = numtheory.label_tiles(p, l)
        assert len(tiles) == 2 * l + 1
        for tile, w in tiles:
            assert q % w == 0 and 0 < tile < 1 << w, (p, l, w)
        for width in (q, 3 * q, 8 * q):
            # reversed, so that parsed in base 2 the label of x lands at bit x
            row = (labels * (width // q))[::-1]
            union = 0
            for b, (tile, w) in enumerate(tiles):
                tile = numtheory.repeat_bits(tile, w, width)
                picks = b"0" * b + b"1" + b"0" * (255 - b)
                assert tile == int(row.translate(picks), 2), (p, l, b, width)
                assert not union & tile, (p, l, b, width)
                union |= tile
            assert union == (1 << width) - 1, (p, l, width)
        checked += 1
    assert checked == 1267


@given(st.integers(0, 2**40), st.integers(1, 40), st.integers(0, 300))
def test_repeat_bits_reads_bit_y_mod_w(x, w, extra):
    x &= (1 << w) - 1
    width = w + extra
    want = sum(1 << y for y in range(width) if x >> (y % w) & 1)
    assert numtheory.repeat_bits(x, w, width) == want


def test_orbit_union_matches_an_index_oracle_to_2000():
    # seeded random bits per label tuple, plus none and all of them; the
    # bits read back at one member per orbit are the ones laid out
    rng = random.Random(2000)
    for m in valid_moduli(2000):
        k = math.prod(2 * e + 1 for _, e in m.factors)
        for bits in ([0] * k, [1] * k, [rng.randrange(2) for _ in range(k)]):
            s = numtheory.orbit_union(m.factors, bits)
            assert s == orbit_union_by_index(m.factors, bits), (m.n, bits)
            assert numtheory.orbit_bits(s, m.factors) == bits, (m.n, bits)


@pytest.mark.parametrize(
    "factors",
    [
        ((3, 7),),
        ((3, 3), (5, 2), (23, 1)),
        ((3, 1), (7, 1), (43, 2)),
        ((7, 2), (11, 2)),
        ((5, 3), (7, 2)),
    ],
)
def test_orbit_union_matches_an_index_oracle_with_squared_primes(factors):
    # above 2000, with a prime of exponent >= 2 first, in the middle and
    # last; orbit_union needs no totient rule, so 3*7*43^2 serves too
    rng = random.Random(math.prod(p**l for p, l in factors))
    k = math.prod(2 * l + 1 for _, l in factors)
    seeded = [[rng.randrange(2) for _ in range(k)] for _ in range(3)]
    for bits in ([0] * k, [1] * k, *seeded):
        s = numtheory.orbit_union(factors, bits)
        assert s == orbit_union_by_index(factors, bits), (factors, bits)
        assert numtheory.orbit_bits(s, factors) == bits, (factors, bits)


@pytest.mark.parametrize(
    "factors",
    [
        ((3, 7),),
        ((3, 3), (5, 2), (23, 1)),
        ((3, 1), (7, 1), (43, 2)),
        ((7, 2), (11, 2)),
        ((5, 3), (7, 2)),
        ((3, 1), (5, 1), (7, 1), (11, 1), (23, 1), (47, 1)),
    ],
)
def test_orbit_rule_bits_match_a_label_oracle(factors):
    # seeded rules on every block, any sel and flip, and the block_rules of
    # both standard assignments where the shape is a valid modulus
    rng = random.Random(math.prod(p**l for p, l in factors))
    blocks = math.prod(l + 1 for _, l in factors)
    cases = [[(rng.randrange(1 << len(factors)), rng.randrange(2)) for _ in range(blocks)]]
    try:
        m = validate_modulus(factors)
    except GcdConditionViolated:
        assert factors == ((3, 1), (7, 1), (43, 2))
    else:
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            cases.append(block_rules(m, make(m)))
    for rules in cases:
        bits = numtheory.orbit_rule_bits(factors, rules)
        assert bits == orbit_rule_bits_by_labels(factors, rules), (factors, rules)
