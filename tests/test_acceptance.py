"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS/FAIL line (visible with -s or on failure),
then asserts that no counterexample was found.
"""

import math

from dhseq import theorems
from dhseq.cyclotomy import VectorAssignment, generalized_classes
from dhseq.gf2poly import build_field
from dhseq.lincomp import lincomp_bm, lincomp_gcd, lincomp_spectral, spectral_values
from dhseq.numtheory import combined_root, order_of_two, validate_modulus
from dhseq.sequence import delta, generate
from dhseq.theorems import predicted_L_two_primes

from conftest import valid_moduli

NAMED_MODULI = (9, 15, 21, 33, 105)


def report(label, failures, checked):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {status} {label} ({checked} cases)")
    assert not failures, f"{label}: {failures[:10]}"


def two_prime_moduli(max_n):
    for m in valid_moduli(max_n):
        if m.t == 2 and all(e == 1 for _, e in m.factors):
            yield m


def odd_sum_assignments(modulus):
    """Assignments whose every divisor vector has odd coordinate sum."""
    yield VectorAssignment.default(modulus)
    variant = {
        d: (1,) * len(modulus.divisor_factorization(d))
        for d in modulus.divisors_gt1()
        if len(modulus.divisor_factorization(d)) % 2 == 1
    }
    if variant:
        yield VectorAssignment.from_overrides(modulus, variant)


def test_criterion_1_two_prime_closed_form():
    failures = []
    checked = 0
    for m in two_prime_moduli(1000):
        (p1, _), (p2, _) = m.factors
        if p1 % 4 != 3 or p2 % 4 != 3:
            continue
        checked += 1
        predicted = predicted_L_two_primes(p1, p2)
        seq = generate(m, VectorAssignment.all_ones_top(m))
        bm = lincomp_bm(seq)
        gc = lincomp_gcd(seq)
        if not (bm == gc == predicted):
            failures.append((m.n, bm, gc, predicted))
    assert checked >= 50
    report("1: closed-form L for two-prime n<=1000, both primes 3 mod 4", failures, checked)


def test_criterion_2_theorem1_bound_to_2000():
    failures = []
    moduli = valid_moduli(2000)
    for m in moduli:
        v = theorems.check_theorem1(theorems.CheckRun(m, VectorAssignment.default(m), None))
        if not (v.applicable and v.holds):
            failures.append((m.n, v.witness))
    report("2: theorem1 bound L >= (n+1)/2 - delta, all valid n<=2000", failures, len(moduli))


def test_criterion_3_lemma4_spectrum():
    failures = []
    checked = 0
    for m in two_prime_moduli(300):
        if order_of_two(m.n) > 64:
            continue
        checked += 1
        v = theorems.check_lemma4(
            theorems.CheckRun(m, VectorAssignment.default(m), build_field(m.n))
        )
        if not (v.applicable and v.holds):
            failures.append((m.n, v.witness))
    assert checked >= 25
    report("3: lemma4 unit spectrum, two-prime n<=300 with ord <= 64", failures, checked)


def test_criterion_4_method_equivalence():
    failures = []
    checked = 0
    for m in valid_moduli(500):
        for make in (VectorAssignment.default, VectorAssignment.all_ones_top):
            seq = generate(m, make(m))
            checked += 1
            bm = lincomp_bm(seq)
            gc = lincomp_gcd(seq)
            if bm != gc:
                failures.append((m.n, "bm/gcd", bm, gc))
            if order_of_two(m.n) <= 64:
                sp = lincomp_spectral(seq, build_field(m.n))
                if sp != gc:
                    failures.append((m.n, "spectral", sp, gc))
    report("4: BM = GCD (= SPECTRAL when buildable), n<=500, two assignments", failures, checked)


def test_criterion_5_lemma1_set_identity():
    failures = []
    checked = 0
    for m in valid_moduli(2000):
        for assignment in odd_sum_assignments(m):
            run = theorems.CheckRun(m, assignment, None)
            for d in m.divisors_gt1():
                a_d = assignment.vector_for(d)
                if sum(a_d) % 2 == 0:
                    continue
                checked += 1
                v = theorems.check_lemma1(run, d)
                if not (v.applicable and v.holds):
                    failures.append((m.n, d, a_d))
    report("5: lemma1 class swap for every odd-sum divisor vector, n<=2000", failures, checked)


def test_criterion_6_lemma2_and_lemma3():
    failures = []
    checked = 0
    for n_factors in ([(3, 2)], [(3, 1), (5, 1)], [(3, 1), (7, 1)], [(3, 1), (11, 1)], [(3, 1), (5, 1), (7, 1)]):
        m = validate_modulus(n_factors)
        assert m.n in NAMED_MODULI
        field = build_field(m.n)
        default = theorems.CheckRun(m, VectorAssignment.default(m), field)
        top = theorems.CheckRun(m, VectorAssignment.all_ones_top(m), field)
        for d in m.divisors_gt1():
            v = theorems.check_lemma2(default, d)
            checked += 1
            if not (v.applicable and v.holds):
                failures.append(("lemma2", m.n, d))
            for run in (default, top):
                v = theorems.check_lemma3(run, d)
                checked += 1
                if not (v.applicable and v.holds):
                    failures.append(("lemma3", m.n, d, run.assignment.vector_for(d)))
    report("6: lemma2 (set + evaluation) and lemma3 on {9,15,21,33,105}", failures, checked)


def test_criterion_7_pairing_identity():
    failures = []
    checked = 0
    for n in NAMED_MODULI:
        m = next(mm for mm in valid_moduli(105) if mm.n == n)
        field = build_field(n)
        g = combined_root(m)
        for assignment in odd_sum_assignments(m):
            values = spectral_values(generate(m, assignment), field)
            for v in range(1, n):
                checked += 1
                if values[v] ^ values[v * g % n] != 1:
                    failures.append((n, assignment.spec_string(), v))
    report("7: pairing S(a^v) + S(a^gv) = 1 on {9,15,21,33,105}", failures, checked)


def test_criterion_8_structural_invariants():
    failures = []
    checked = 0
    for m in valid_moduli(2000):
        n = m.n
        checked += 1
        # divisor blocks partition the nonzero residues
        seen = set()
        ok = True
        for d in m.divisors_gt1():
            block = {(n // d) * u % n for u in range(1, d) if math.gcd(u, d) == 1}
            if block & seen:
                ok = False
            seen |= block
        if not ok or seen != set(range(1, n)):
            failures.append((n, "divisor blocks"))
        # per-divisor classes split the unit group
        assignment = VectorAssignment.default(m)
        for d in m.divisors_gt1():
            d0, d1 = generalized_classes(m.divisor_factorization(d), assignment.vector_for(d))
            units_d = {u for u in range(1, d) if math.gcd(u, d) == 1}
            if set(d0) | set(d1) != units_d or set(d0) & set(d1):
                failures.append((n, d, "class partition"))
        # weight and delta rules
        seq = generate(m, assignment)
        if seq.weight != (n + 1) // 2:
            failures.append((n, "weight"))
        if delta(n) != (1 if n % 4 == 3 else 0) or delta(n) != 1 - seq.weight % 2:
            failures.append((n, "delta"))
    report("8a: partition laws, weight, delta, all valid n<=2000", failures, checked)

    failures = []
    checked = 0
    for m in valid_moduli(2000):
        if order_of_two(m.n) > 64:
            continue
        checked += 1
        seq = generate(m, VectorAssignment.default(m))
        values = spectral_values(seq, build_field(m.n))
        zeros = {v for v, val in enumerate(values) if val == 0}
        if any((2 * v) % m.n not in zeros for v in zeros):
            failures.append((m.n, "frobenius"))
    report("8b: frobenius closure of the spectral zero set (ord <= 64)", failures, checked)
