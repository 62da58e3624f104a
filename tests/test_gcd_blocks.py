"""The gcd route by cyclotomic blocks against the one-shot Euclid oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dhseq import gf2poly, lincomp
from dhseq.cli import main
from dhseq.cyclotomy import VectorAssignment
from dhseq.errors import MethodDisagreement
from dhseq.lincomp import block_zero_counts, lincomp_bm, lincomp_gcd
from dhseq.numtheory import factorize, validate_modulus
from dhseq.sequence import RawPeriod, delta, generate

from conftest import valid_moduli
from oracles import cyclotomic_by_division, divmod_, lincomp_gcd_euclid


def primes_of(d):
    return [p for p, _ in factorize(d)] if d > 1 else []


def phi(d):
    out = d
    for p in primes_of(d):
        out = out // p * (p - 1)
    return out


def assert_matches_euclid(packed, n):
    seq = RawPeriod(packed, n)
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
        zero = lincomp_gcd(RawPeriod(0, n))
        assert zero.L == 0 and zero.zero_count == n
        ones = lincomp_gcd(RawPeriod((1 << n) - 1, n))
        assert ones.L == 1 and ones.zero_count == n - 1
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
    for packed in periods:
        calls.clear()
        counts = block_zero_counts(packed, n)
        assert bool(calls) == (n in REDUCIBLE)
        for d, count in counts.items():
            phi_d = cyclotomic_by_division(d)
            assert count == gf2poly.degree(real_gcd(divmod_(packed, phi_d)[1], phi_d))
        seq = RawPeriod(packed, n)
        assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq)


def test_dh_sequences_match_euclid_to_2000():
    for m in valid_moduli(2000):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            seq = generate(m, make(m))
            assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq), (m.n, make.__name__)


def test_corollary_value_at_3_to_the_13():
    m = validate_modulus([(3, 13)])
    r = lincomp_gcd(generate(m, VectorAssignment.default(m)))
    assert m.n == 1_594_323
    assert r.L == m.n - delta(m.n) == 1_594_322


def _wrong_degree_gcd(a, b):
    return 0b11  # x + 1: degree 1, while every factor of Phi_7 has degree 3


def test_block_count_off_the_order_of_two_raises(monkeypatch):
    monkeypatch.setattr(gf2poly, "gcd", _wrong_degree_gcd)
    m = validate_modulus([(7, 1)])
    with pytest.raises(MethodDisagreement, match="ord_7"):
        lincomp_gcd(generate(m, VectorAssignment.default(m)))


def test_block_count_guard_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(gf2poly, "gcd", _wrong_degree_gcd)
    code = main(["lincomp", "--method", "gcd", "--factors", "7:1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "ord_7(2) = 3" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "bits", ["01", "11", "10", "0110", "1111", "1000", "101100111010", "111111111111", "100100100100"]
)
def test_even_raw_periods_take_euclid_and_match_bm(tmp_path, capsys, bits):
    f = tmp_path / "even.txt"
    f.write_text(bits + "\n")
    seq = RawPeriod(int(bits[::-1], 2), len(bits))
    want = lincomp_bm(seq).L
    assert lincomp_gcd(seq) == lincomp_gcd_euclid(seq)
    assert main(["lincomp", "--sequence", str(f), "--method", "gcd"]) == 0
    assert capsys.readouterr().out == f"L[gcd] = {want}\n"
