import pytest
from hypothesis import given, settings, strategies as st

from dhseq.cyclotomy import VectorAssignment, global_partition
from dhseq.numtheory import validate_modulus
from dhseq.sequence import (
    DHSequence,
    RawPeriod,
    delta,
    generate,
    metadata_block,
    parse_bit_line,
    sequence_line,
)

from conftest import valid_moduli
from oracles import from_bits, generate_by_index, one_positions, to_bits


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
    assert parse_bit_line(line) == RawPeriod(seq.packed, seq.n)


def test_metadata_block():
    m = validate_modulus([(3, 1), (7, 1)])
    seq = generate(m, VectorAssignment.default(m))
    meta = metadata_block(seq)
    assert "n=21" in meta
    assert "factors=3:1,7:1" in meta
    assert "assignment=3:1;7:1;21:01" in meta
    assert "weight=11" in meta


def test_parse_bit_line_rejects_junk():
    with pytest.raises(ValueError):
        parse_bit_line("01012")
    with pytest.raises(ValueError):
        parse_bit_line("")


def test_raw_period():
    rp = RawPeriod(from_bits((1, 0, 1)), 3)
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
        RawPeriod(0b1000, 3)
    with pytest.raises(ValueError):
        RawPeriod(0, 0)
