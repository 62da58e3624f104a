import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dhseq import sequence
from dhseq.cyclotomy import VectorAssignment
from dhseq.numtheory import h_orbits, prime_power_labels, validate_modulus
from dhseq.sequence import (
    Period,
    block_rules,
    delta,
    generate,
    metadata_block,
    parse_bit_line,
    sequence_line,
)

from conftest import valid_moduli
from oracles import (
    class_index,
    from_bits,
    generate_by_buffer,
    generate_by_index,
    global_partition,
    one_positions,
    residue_class,
    to_bits,
)


def test_generate_n3():
    m = validate_modulus([(3, 1)])
    seq = generate(m, VectorAssignment.default(m))
    assert seq.packed == from_bits((1, 0, 1))


def test_generate_n9_default():
    m = validate_modulus([(3, 2)])
    seq = generate(m, VectorAssignment.default(m))
    assert one_positions(seq.packed) == {0, 2, 5, 6, 8}


def test_weight_rule_n21():
    m = validate_modulus([(3, 1), (7, 1)])
    seq = generate(m, VectorAssignment.default(m))
    assert seq.weight == 11 == (21 + 1) // 2


def test_delta_examples():
    assert delta(15) == 1
    assert delta(21) == 0
    assert delta(33) == 0
    assert delta(3) == 1


def test_delta_matches_weight_parity():
    for m in valid_moduli(500):
        seq = generate(m, VectorAssignment.default(m))
        assert delta(m.n) == 1 - seq.weight % 2


def test_generate_deterministic():
    m = validate_modulus([(3, 1), (5, 1)])
    a = VectorAssignment.all_ones_top(m)
    assert generate(m, a).packed == generate(m, a).packed


def test_generate_agrees_with_partition():
    for m in valid_moduli(100):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            a = make(m)
            seq = generate(m, a)
            _, c1 = global_partition(m, a)
            assert one_positions(seq.packed) == c1


def test_indicator_polynomials_partition_all_exponents():
    # the two indicator polynomials xor to 1 + x + ... + x^(n-1)
    for m in valid_moduli(100):
        a = VectorAssignment.default(m)
        c0, c1 = global_partition(m, a)
        s0 = from_bits([1 if i in c0 else 0 for i in range(m.n)])
        s1 = from_bits([1 if i in c1 else 0 for i in range(m.n)])
        assert s0 ^ s1 == (1 << m.n) - 1


def test_sequence_file_round_trip():
    m = validate_modulus([(3, 1), (7, 1)])
    seq = generate(m, VectorAssignment.default(m))
    line = sequence_line(seq)
    assert line.endswith("\n") and len(line) == 22
    assert parse_bit_line(line) == Period(seq.packed, seq.n)


def test_generated_periods_with_equal_inputs_are_equal():
    m = validate_modulus([(3, 1), (7, 1)])
    a = generate(m, VectorAssignment.default(m))
    b = generate(m, VectorAssignment.default(m))
    assert a == b and hash(a) == hash(b)


def test_period_read_back_equals_the_one_written():
    m = validate_modulus([(3, 2), (5, 1), (11, 1)])
    seq = generate(m, VectorAssignment.all_ones_top(m))
    back = parse_bit_line(sequence_line(seq))
    assert back == seq
    assert type(back) is type(seq) is Period


def test_metadata_block():
    m = validate_modulus([(3, 1), (7, 1)])
    a = VectorAssignment.default(m)
    meta = metadata_block(m, a, generate(m, a))
    assert "n=21" in meta
    assert "factors=3:1,7:1" in meta
    assert "assignment=3:1;7:1;21:01" in meta
    assert "weight=11" in meta


# int(line, 2) accepts the prefix, the signs, the underscore and both
# non-ASCII digit pairs, so the 0/1 check must refuse them first
@pytest.mark.parametrize(
    "line", ["01012", "", "0b1", "+1", "-1", "1_0", "0 1", "\u0660\u0661", "\uff10\uff11"]
)
def test_parse_bit_line_rejects_junk(line):
    with pytest.raises(ValueError):
        parse_bit_line(line + "\n")


def test_parse_bit_line_strips_crlf():
    assert parse_bit_line("0110\r\n") == Period(0b0110, 4)


def test_parse_bit_line_period_bound():
    from dhseq.errors import DHSeqError, PeriodTooLarge
    from dhseq.numtheory import MAX_PERIOD

    rp = parse_bit_line("0" * (MAX_PERIOD - 2) + "1\n")
    assert rp == Period(1 << (MAX_PERIOD - 2), MAX_PERIOD - 1)
    for bad in ("1" * MAX_PERIOD, "2" * (MAX_PERIOD + 1)):
        with pytest.raises(PeriodTooLarge) as exc:
            parse_bit_line(bad)
        assert isinstance(exc.value, DHSeqError)


def test_raw_period():
    rp = Period(from_bits((1, 0, 1)), 3)
    assert rp.n == 3


def test_generate_matches_index_oracle_and_partition_to_2000():
    for m in valid_moduli(2000):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            a = make(m)
            packed = generate(m, a).packed
            assert packed == generate_by_index(m, a), (m.n, make.__name__)
            assert one_positions(packed) == global_partition(m, a)[1], (m.n, make.__name__)


def _odd_sum_vector(draw, width):
    bits = draw(st.lists(st.integers(0, 1), min_size=width - 1, max_size=width - 1))
    return tuple(bits) + (1 - sum(bits) % 2,)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generate_matches_index_oracle_random_odd_sum(data):
    m = data.draw(st.sampled_from(valid_moduli(400)))
    vectors = {
        d: _odd_sum_vector(data.draw, len(m.divisor_factorization(d)))
        for d in m.divisors_gt1()
    }
    a = VectorAssignment(m, vectors)
    assert generate(m, a).packed == generate_by_index(m, a)


def test_generate_matches_index_oracle_three_primes_large():
    m = validate_modulus([(5, 1), (7, 1), (11351, 1)])
    a = VectorAssignment.default(m)
    seq = generate(m, a)
    assert seq.packed == generate_by_index(m, a)
    assert seq.weight == (m.n + 1) // 2


def _random_odd_sum(m):
    rng = random.Random(m.n)
    vectors = {}
    for d in m.divisors_gt1():
        bits = [rng.randrange(2) for _ in m.divisor_factorization(d)[1:]]
        vectors[d] = (*bits, 1 - sum(bits) % 2)
    return VectorAssignment(m, vectors)


# the selected primes' period is shorter than d in some blocks of each, and
# the top blocks xor two or three tables at n far above the Hypothesis sizes
@pytest.mark.parametrize("make", [VectorAssignment.all_ones_top, _random_odd_sum])
@pytest.mark.parametrize(
    "factors", [[(3, 3), (5, 2), (23, 1)], [(5, 1), (7, 1), (11351, 1)], [(499, 1), (503, 1)]]
)
def test_generate_matches_index_oracle_large(factors, make):
    m = validate_modulus(factors)
    a = make(m)
    assert generate(m, a).packed == generate_by_index(m, a)


# beyond generate_by_index: labels of valuation up to 12 (3^13) and 5 (7^6),
# a Wieferich square, a squared prime under a large one, n near 10^6 and
# t = 6, with 729 H-orbits
@pytest.mark.parametrize(
    "make", [VectorAssignment.default, VectorAssignment.all_ones_top, _random_odd_sum]
)
@pytest.mark.parametrize(
    "factors",
    [
        [(3, 13)],
        [(7, 6)],
        [(1093, 2)],
        [(3, 2), (12899, 1)],
        [(1019, 1), (1031, 1)],
        [(3, 1), (5, 1), (7, 1), (11, 1), (23, 1), (47, 1)],
    ],
)
def test_generate_matches_buffer_oracle_large(factors, make):
    m = validate_modulus(factors)
    a = make(m)
    assert generate(m, a).packed == generate_by_buffer(m, a)


@pytest.mark.parametrize("line", ["01100", "0", "1", "000", "1000", "0001", "10110"])
def test_bit_line_round_trip_keeps_leading_and_trailing_zeros(line):
    rp = parse_bit_line(line + "\n")
    assert rp.n == len(line)
    assert to_bits(rp.packed, rp.n) == tuple(int(c) for c in line)
    assert sequence_line(rp) == line + "\n"


def test_sequence_line_matches_per_bit_format():
    for factors in ([(3, 7)], [(3, 1), (5, 1), (7, 1)], [(5, 1), (7, 1)]):
        m = validate_modulus(factors)
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            seq = generate(m, make(m))
            line = sequence_line(seq)
            assert line == "".join(map(str, to_bits(seq.packed, seq.n))) + "\n"
            assert sequence_line(parse_bit_line(line)) == line


def test_raw_period_rejects_bits_beyond_n():
    with pytest.raises(ValueError):
        Period(0b1000, 3)
    with pytest.raises(ValueError):
        Period(0, 0)


def _block_rule_cases(max_n):
    for m in valid_moduli(max_n):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top, _random_odd_sum):
            yield m, make(m)


def test_block_rules_follow_their_definition_to_2000():
    # f_j = chi_{p_j}((n/d)/p_j^(e_j - l_j)) expanded over the primes: the xor,
    # over r != j, of (e_r - l_r) mod 2 times chi_{p_j}(p_r), each chi by
    # Euler's criterion; so a rule depends only on the exponents, those
    # Legendre bits and the assignment
    blocks = flips = 0
    for m, a in _block_rule_cases(2000):
        rules = block_rules(m, a)
        exponents = list(itertools.product(*(range(e + 1) for _, e in m.factors)))
        assert len(rules) == len(exponents) and rules[0] == (0, 1)
        for ls, (sel, flip) in zip(exponents[1:], rules[1:]):
            d = math.prod(p**l for (p, _), l in zip(m.factors, ls))
            primes = [j for j, l in enumerate(ls) if l]
            assert sel == sum(1 << j for j, bit in zip(primes, a.vector_for(d)) if bit)
            want = 0
            for j in primes:
                if sel >> j & 1:
                    for r, ((q, e), l) in enumerate(zip(m.factors, ls)):
                        if r != j:
                            want ^= (e - l) % 2 * residue_class(q, m.factors[j][0], 1)
            assert flip == want, (m.n, d, a)
            blocks += 1
            flips += flip
    assert (blocks, flips) == (6261, 2046)


def test_block_rules_give_the_class_of_every_orbit_to_2000():
    # the rule read at the labels of r as generate's per-orbit bit table
    # reads it, not through generate, against the class of r's unit part in
    # its own block
    for m, a in _block_rule_cases(2000):
        rules = block_rules(m, a)
        strides = [math.prod(e + 1 for _, e in m.factors[j + 1 :]) for j in range(m.t)]
        tables = [prime_power_labels(p, e) for p, e in m.factors]
        for r in h_orbits(m.n).reps[1:]:
            k = chis = 0
            for j, ((p, e), table) in enumerate(zip(m.factors, tables)):
                label = table[r % p**e]
                if label:
                    v, c = divmod(label - 1, 2)
                    k += (e - v) * strides[j]
                    chis |= c << j
            sel, flip = rules[k]
            g = math.gcd(r, m.n)
            d = m.n // g
            want = class_index(r // g, m.divisor_factorization(d), a.vector_for(d))
            assert flip ^ ((chis & sel).bit_count() & 1) == want, (m.n, r, a)


def test_generate_reads_its_flips_from_block_rules(monkeypatch):
    m = validate_modulus([(3, 2), (5, 1), (11, 1)])
    a = VectorAssignment.parse_spec(m, "495:101\n45:11\n99:01\n55:11")
    assert generate(m, a).packed == generate_by_index(m, a)
    real = sequence.block_rules

    def without_flips(modulus, assignment):
        rules = real(modulus, assignment)
        return rules[:1] + [(sel, 0) for sel, _ in rules[1:]]

    monkeypatch.setattr(sequence, "block_rules", without_flips)
    moved = generate(m, a).packed ^ generate_by_index(m, a)
    assert moved.bit_count() == 32
