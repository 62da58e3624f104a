"""The orbit-reduced spectral engine against the per-v sweeps it replaced."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dhseq import cyclotomy, lincomp, sequence
from dhseq.cyclotomy import VectorAssignment
from dhseq.gf2poly import build_field, exponents
from dhseq.lincomp import (
    common_reps,
    lincomp_gcd,
    lincomp_spectral,
    spectral_values,
    spectrum,
)
from dhseq.numtheory import factorize, h_orbits, order_of_two, validate_modulus
from dhseq.sequence import Period, generate
from dhseq.theorems import (
    CheckRun,
    all_checks,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_theorem1,
)

import oracles
from conftest import valid_moduli
from oracles import (
    lemma2_sweep,
    lemma3_sweep,
    lemma4_sweep,
    spectral_values_sweep,
    spectrum_by_subset_eval,
    theorem1_sweep,
)

FIELD_MODULI = tuple(m for m in valid_moduli(300) if order_of_two(m.n) <= 64)
FIELD_MODULI_2000 = tuple(m for m in valid_moduli(2000) if order_of_two(m.n) <= 64)


def omega(d: int) -> int:
    return len(factorize(d))


def phi(d: int) -> int:
    return sum(1 for x in range(1, d + 1) if math.gcd(x, d) == 1)


def h_group(n: int) -> list[int]:
    """Units of Z_n that are squares modulo every prime of n, by brute force."""
    primes = [p for p, _ in factorize(n)]
    squares = {p: {x * x % p for x in range(1, p)} for p in primes}
    return [
        u for u in range(1, n) if math.gcd(u, n) == 1 and all(u % p in squares[p] for p in primes)
    ]


@pytest.mark.parametrize(
    "n", [3, 9, 15, 21, 27, 45, 63, 81, 105, 125, 225, 231, 243, 255, 343, 1575]
)
def test_orbits_are_the_h_orbits(n):
    # 45, 63, 225, 255 and 1575 = 3^2*5^2*7 are not valid periods: the
    # orbits exist for any odd n
    orbits = h_orbits(n)
    h = h_group(n)
    members = {}
    for v, label in enumerate(orbits.labels):
        members.setdefault(label, []).append(v)
    assert sorted(members) == list(range(len(orbits.reps)))
    for k, rep in enumerate(orbits.reps):
        assert members[k] == sorted({u * rep % n for u in h} | {rep})
        assert min(members[k]) == rep
        assert orbits.sizes[k] == len(members[k])
    assert list(orbits.reps) == sorted(orbits.reps)


def test_orbit_count_and_sizes():
    for m in valid_moduli(2000):
        n = m.n
        orbits = h_orbits(n)
        divisors = [1] + m.divisors_gt1()
        assert len(orbits.reps) == sum(2 ** omega(d) for d in divisors), n
        if all(e == 1 for _, e in m.factors):
            assert len(orbits.reps) == 3**m.t
        for rep, size in zip(orbits.reps, orbits.sizes):
            d = n // math.gcd(rep, n)
            assert size == (phi(d) >> omega(d) if d > 1 else 1), (n, rep)
        assert sum(orbits.sizes) == n


def test_engine_matches_sweep_every_field_modulus():
    for m in FIELD_MODULI:
        field = build_field(m.n)
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            seq = generate(m, make(m))
            assert spectral_values(seq, field) == spectral_values_sweep(seq, field), m.n
            exps = [i for i in range(m.n) if seq.packed >> i & 1]
            assert spectrum(exps, field).reduced, m.n


def test_orbit_sums_are_the_per_orbit_sums_of_the_power_table():
    for m in FIELD_MODULI_2000:
        field = build_field(m.n)
        orbits = field.orbits()
        members = [[] for _ in orbits.reps]
        for e, label in enumerate(orbits.labels):
            members[label].append(e)
        sums = field.orbit_sums()
        assert sums == tuple(field.subset_eval(orbit) for orbit in members), m.n
        assert sums[0] == 1, m.n  # the orbit {0}
        assert field.orbit_sums() is sums, m.n


def test_engine_matches_per_representative_sums_for_every_checked_set(monkeypatch):
    # every exponent set that spectral_values and the lemma2, lemma3,
    # lemma4 and theorem1 checks hand to spectrum, for every field modulus
    # to 2000 under both assignments
    real = lincomp.spectrum
    built = []

    def recording(exps, field):
        spec = real(exps, field)
        built.append((exps, spec))
        return spec

    monkeypatch.setattr(lincomp, "spectrum", recording)
    for m in FIELD_MODULI_2000:
        field = build_field(m.n)
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            a = make(m)
            spectral_values(generate(m, a), field)
            all_checks(m, a, field)
        assert built, m.n
        seen = set()
        for exps, got in built:
            key = frozenset(exps)
            if key in seen:
                continue
            seen.add(key)
            want = spectrum_by_subset_eval(exps, field)
            assert got.reduced == want.reduced, m.n
            assert list(got.reps) == list(want.reps), m.n
            assert got.values == want.values, (m.n, sorted(exps)[:8])
        built.clear()


@st.composite
def odd_sum_assignments(draw):
    m = draw(st.sampled_from(FIELD_MODULI))
    vectors = {}
    for d in m.divisors_gt1():
        width = len(m.divisor_factorization(d))
        bits = draw(st.lists(st.integers(0, 1), min_size=width - 1, max_size=width - 1))
        vectors[d] = tuple(bits) + (1 - sum(bits) % 2,)
    return m, VectorAssignment(m, vectors)


@settings(max_examples=60, deadline=None)
@given(odd_sum_assignments())
def test_engine_matches_sweep_random_odd_sum(case):
    m, a = case
    field = build_field(m.n)
    seq = generate(m, a)
    assert spectral_values(seq, field) == spectral_values_sweep(seq, field)
    assert check_theorem1(CheckRun(m, a, field)) == theorem1_sweep(m, a, field)


def default_and_all_ones_top(m):
    return [VectorAssignment.default(m), VectorAssignment.all_ones_top(m)]


def every_top_vector(m):
    """Every nonzero vector on d = n, the default elsewhere."""
    return [
        VectorAssignment.from_overrides(m, {m.n: bits})
        for bits in itertools.product((0, 1), repeat=m.t)
        if any(bits)
    ]


def seeded_random_vectors(m):
    """Eight assignments of random nonzero vectors on every divisor, odd
    and even coordinate sums alike."""
    rng = random.Random(m.n)
    out = []
    for _ in range(8):
        vectors = {}
        for d in m.divisors_gt1():
            width = len(m.divisor_factorization(d))
            vectors[d] = rng.choice(
                [bits for bits in itertools.product((0, 1), repeat=width) if any(bits)]
            )
        out.append(VectorAssignment(m, vectors))
    return out


# no modulus up to 300 has t = 3 with a squared prime, so 3^2*5*11 (m = 60)
# puts lemma3's class swap at q = 9 under the t = 3 assignments
T3_FIELD_MODULI = tuple(m for m in FIELD_MODULI if m.t == 3) + (
    validate_modulus([(3, 2), (5, 1), (11, 1)]),
)


@pytest.mark.parametrize(
    "moduli, assignments",
    [
        (FIELD_MODULI, default_and_all_ones_top),
        (T3_FIELD_MODULI, every_top_vector),
        (T3_FIELD_MODULI, seeded_random_vectors),
    ],
    ids=["default-and-all-ones-top", "t3-every-top-vector", "t3-seeded-random"],
)
def test_checks_match_sweeps_every_field_modulus(moduli, assignments):
    for m in moduli:
        field = build_field(m.n)
        default = CheckRun(m, VectorAssignment.default(m), field)
        assert check_lemma4(default) == lemma4_sweep(m, field), m.n
        for a in assignments(m):
            run = CheckRun(m, a, field)
            assert check_theorem1(run) == theorem1_sweep(m, a, field), m.n
            for d in m.divisors_gt1():
                assert check_lemma2(run, d) == lemma2_sweep(m, a, d, field)
                assert check_lemma3(run, d) == lemma3_sweep(m, a, d, field)


def seeded_odd_sum_vectors(m):
    """One assignment of random vectors with odd coordinate sum on every divisor."""
    rng = random.Random(m.n)
    vectors = {}
    for d in m.divisors_gt1():
        bits = tuple(rng.randrange(2) for _ in range(len(m.divisor_factorization(d)) - 1))
        vectors[d] = bits + (1 - sum(bits) % 2,)
    return VectorAssignment(m, vectors)


def test_lemma2_set_form_without_a_field_matches_the_lifted_sweep():
    # the check compares classes in Z_d, the sweep their lifts to Z_n
    for m in valid_moduli(1000):
        for a in default_and_all_ones_top(m) + [seeded_odd_sum_vectors(m)]:
            run = CheckRun(m, a, None)
            for d in m.divisors_gt1():
                assert check_lemma2(run, d) == lemma2_sweep(m, a, d), (m.n, d)


def flipped(seq: Period, positions) -> Period:
    packed = seq.packed
    for i in positions:
        packed ^= 1 << i
    return Period(packed, seq.n)


def test_raw_period_off_the_orbits_takes_full_sweep():
    for factors, i in (([(3, 1), (5, 1), (7, 1)], 4), ([(3, 1), (7, 1)], 1), ([(3, 2)], 5)):
        m = validate_modulus(factors)
        field = build_field(m.n)
        seq = generate(m, VectorAssignment.default(m))
        raw = Period(seq.packed ^ 1 << i, m.n)
        exps = [j for j in range(m.n) if raw.packed >> j & 1]
        spec = spectrum(exps, field)
        assert not spec.reduced
        assert list(spec.reps) == list(range(m.n))
        assert spectral_values(raw, field) == spectral_values_sweep(raw, field)
        assert lincomp_spectral(raw, field) == lincomp_gcd(raw)


def test_common_reps_needs_every_spectrum_reduced():
    field = build_field(21)
    orbit = spectrum([0], field)  # {0} is an orbit
    off = spectrum([1], field)  # {1} is not
    assert orbit.reduced and not off.reduced
    assert common_reps(orbit) == field.orbits().reps
    for spectra in ((orbit, off), (off, orbit)):
        assert list(common_reps(*spectra)) == list(range(21))


# --- a failure is never hidden ------------------------------------------------

M105 = validate_modulus([(3, 1), (5, 1), (7, 1)])
M33 = validate_modulus([(3, 1), (11, 1)])
M35 = validate_modulus([(5, 1), (7, 1)])


def orbit_of(n: int, v: int) -> list[int]:
    labels = h_orbits(n).labels
    return [w for w in range(n) if labels[w] == labels[v]]


def patch_generate(monkeypatch, positions_for):
    real = sequence.generate

    def tampered(modulus, assignment):
        seq = real(modulus, assignment)
        return flipped(seq, positions_for(modulus.n))

    monkeypatch.setattr(sequence, "generate", tampered)


def test_flipped_period_fails_theorem1_and_lemma4_like_the_sweep(monkeypatch):
    # every single nonzero bit (off the orbits: full sweep) and every nonzero
    # orbit (still a union of orbits: representatives only)
    for m in (M105, M33, M35):
        field = build_field(m.n)
        a = VectorAssignment.default(m)
        flips = [[i] for i in range(1, m.n)]
        flips += [orbit_of(m.n, rep) for rep in h_orbits(m.n).reps[1:]]
        for positions in flips:
            patch_generate(monkeypatch, lambda n: positions)
            got = check_theorem1(CheckRun(m, a, field))
            assert got == theorem1_sweep(m, a, field), (m.n, positions)
            assert got.applicable and got.holds is False, (m.n, positions)
            if m.t == 2:
                got = check_lemma4(CheckRun(m, a, field))
                assert got == lemma4_sweep(m, field), (m.n, positions)
                assert got.holds is False, (m.n, positions)
            monkeypatch.undo()


def test_flipped_orbit_reports_pairing_witness_through_reduced_spectra(monkeypatch):
    # flipping a whole orbit keeps the period a union of orbits, so the
    # check runs on representatives only and must still name the first v
    patch_generate(monkeypatch, lambda n: orbit_of(n, 5))
    m = M105
    field = build_field(m.n)
    a = VectorAssignment.default(m)
    seq = sequence.generate(m, a)
    assert spectrum([i for i in range(m.n) if seq.packed >> i & 1], field).reduced
    got = check_theorem1(CheckRun(m, a, field))
    assert got == theorem1_sweep(m, a, field)
    assert got.witness.startswith("pairing fails at v=")


def swap_first(d0, d1):
    """Move one unit from each class to the other: no longer a union of orbits."""
    return tuple(sorted(d0[1:] + d1[:1])), tuple(sorted(d1[1:] + d0[:1]))


def swap_all(d0, d1):
    """Exchange the two classes: still unions of orbits."""
    return d1, d0


def patch_classes(monkeypatch, target, tamper):
    """The package and the sweeps build their classes by different routes;
    both get the same tampered class of d = target."""
    real = cyclotomy.generalized_classes
    real_oracle = oracles.classes_by_root

    def tampered(factors, a_d):
        pair = real(factors, a_d)
        return tamper(*pair) if math.prod(p**e for p, e in factors) == target else pair

    def tampered_oracle(factors, a_d, roots=None):
        pair = real_oracle(factors, a_d, roots)
        if pair.d != target:
            return pair
        d0, d1 = tamper(pair.d0, pair.d1)
        return dataclasses.replace(pair, d0=d0, d1=d1)

    monkeypatch.setattr(cyclotomy, "generalized_classes", tampered)
    monkeypatch.setattr(oracles, "classes_by_root", tampered_oracle)


@pytest.mark.parametrize("tamper", [swap_first, swap_all])
@pytest.mark.parametrize("m", [M105, M33], ids=["105", "33"])
def test_tampered_class_fails_lemma2_and_lemma3_like_the_sweep(monkeypatch, m, tamper):
    target = m.n
    patch_classes(monkeypatch, target, tamper)
    field = build_field(m.n)
    a = VectorAssignment.default(m)
    run = CheckRun(m, a, field)
    got3 = check_lemma3(run, target)
    assert got3 == lemma3_sweep(m, a, target, field)
    assert got3.holds is False and got3.witness.startswith("mismatch at v=")
    got2 = check_lemma2(run, target)
    assert got2 == lemma2_sweep(m, a, target, field)
    if tamper is swap_first:
        assert got2.holds is False


@pytest.mark.parametrize("m", [M105, M33], ids=["105", "33"])
def test_tampered_class_fails_the_lemma2_set_form_without_a_field(monkeypatch, m):
    patch_classes(monkeypatch, m.n, swap_first)
    a = VectorAssignment.default(m)
    got = check_lemma2(CheckRun(m, a, None), m.n)
    assert got == lemma2_sweep(m, a, m.n)
    assert got == (f"lemma2(d={m.n})", True, False, f"set form fails for d={m.n}")


def test_tampered_class_above_the_sweep_bound_exits_2(monkeypatch, capsys):
    # lemma3 would sweep all 8191 v for a class that is no union of H-orbits
    from dhseq.cli import main
    from dhseq.lincomp import MAX_FULL_SWEEP

    real = cyclotomy.generalized_classes

    def tampered(factors, a_d):
        pair = real(factors, a_d)
        return swap_first(*pair) if factors == ((8191, 1),) else pair

    monkeypatch.setattr(cyclotomy, "generalized_classes", tampered)
    assert main(["verify", "--check", "lemma3", "--factors", "8191:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"above n={MAX_FULL_SWEEP}" in captured.err


def test_spectral_values_refuses_a_full_sweep_above_the_bound():
    # spectrum refuses the full sweep before it starts, for the spectral
    # method and the lemma checks alike; a union of H-orbits is reduced
    from dhseq.errors import DHSeqError
    from dhseq.lincomp import MAX_FULL_SWEEP

    m = validate_modulus([(8191, 1)])
    assert m.n > MAX_FULL_SWEEP
    field = build_field(m.n)
    seq = generate(m, VectorAssignment.default(m))
    assert spectrum(exponents(seq.packed), field).reduced
    assert lincomp_spectral(seq, field) == lincomp_gcd(seq)
    raw = Period(seq.packed ^ 1 << 5, m.n)
    with pytest.raises(DHSeqError, match=f"above n={MAX_FULL_SWEEP}"):
        spectrum(exponents(raw.packed), field)
    with pytest.raises(DHSeqError, match=f"above n={MAX_FULL_SWEEP}"):
        spectral_values(raw, field)
