"""Executable verdicts for the structural identities behind the construction.

Each check returns a CheckVerdict rather than a bare bool so a failure
carries a witness: the first divisor, exponent, or unit where the identity
broke. Checks that need the GF(2^m) context take a BinaryField; passing
None restricts them to whatever can be decided without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cyclotomy, gf2poly, lincomp, numtheory, sequence
from .cyclotomy import VectorAssignment
from .errors import MethodDisagreement, OutsideCaseTable
from .gf2poly import BinaryField
from .numtheory import Modulus
from .sequence import delta


@dataclass(frozen=True)
class CheckVerdict:
    name: str
    applicable: bool
    holds: bool | None
    witness: str | None = None

    @property
    def passed(self) -> bool:
        """True unless the check was applicable and failed."""
        return not self.applicable or bool(self.holds)


def check_lemma1(modulus: Modulus, d: int, a_d) -> CheckVerdict:
    """Multiplication by the combined root must swap the two classes of d
    whenever the vector has odd coordinate sum."""
    name = f"lemma1(d={d})"
    a_d = tuple(a_d)
    if sum(a_d) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    pair = cyclotomy.generalized_classes(modulus.divisor_factorization(d), a_d)
    g = numtheory.combined_root(modulus) % d
    swapped0 = {g * x % d for x in pair.d0}
    swapped1 = {g * x % d for x in pair.d1}
    if swapped0 == set(pair.d1) and swapped1 == set(pair.d0):
        return CheckVerdict(name, True, True)
    return CheckVerdict(name, True, False, f"g={g} does not swap the classes of {d}")


def check_lemma2(
    modulus: Modulus, assignment: VectorAssignment, d: int, field: BinaryField | None = None
) -> CheckVerdict:
    """Scaled-class evaluations must match under the root-for-argument swap:
    the lifted d1 sum at alpha^(vg) equals the lifted d0 sum at alpha^v.

    Without a field only the underlying set identity is checked.
    """
    name = f"lemma2(d={d})"
    a_d = assignment.vector_for(d)
    if sum(a_d) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    n = modulus.n
    k = n // d
    pair = cyclotomy.generalized_classes(modulus.divisor_factorization(d), a_d)
    g = numtheory.combined_root(modulus)
    lifted0 = {k * x % n for x in pair.d0}
    lifted1 = {k * x % n for x in pair.d1}
    if {g * x % n for x in lifted1} != lifted0:
        return CheckVerdict(name, True, False, f"set form fails for d={d}")
    if field is not None:
        exps0 = sorted(lifted0)
        exps1 = sorted(lifted1)
        for v in range(1, n):
            if field.subset_eval(exps1, v * g % n) != field.subset_eval(exps0, v):
                return CheckVerdict(name, True, False, f"evaluation form fails at v={v}")
    return CheckVerdict(name, True, True)


def check_theorem1(
    modulus: Modulus, assignment: VectorAssignment, field: BinaryField | None = None
) -> CheckVerdict:
    """When every divisor vector has odd coordinate sum, the complexity of
    the generated period must reach (n+1)/2 - delta. Given a field, the
    complementary spectrum pairing (values at v and g*v sum to 1) is
    verified as well."""
    name = "theorem1"
    if any(sum(assignment.vector_for(d)) % 2 == 0 for d in modulus.divisors_gt1()):
        return CheckVerdict(name, False, None, "a divisor vector has even coordinate sum")
    seq = sequence.generate(modulus, assignment)
    n = modulus.n
    bound = (n + 1) // 2 - delta(n)
    L = lincomp.lincomp_gcd(seq).L
    if L < bound:
        return CheckVerdict(name, True, False, f"L={L} below bound {bound}")
    if field is not None:
        values = lincomp.spectral_values(seq, field)
        g = numtheory.combined_root(modulus)
        for v in range(1, n):
            if values[v] ^ values[v * g % n] != 1:
                return CheckVerdict(name, True, False, f"pairing fails at v={v}")
    return CheckVerdict(name, True, True)


def check_corollary(modulus: Modulus, assignment: VectorAssignment) -> CheckVerdict:
    """When 2 generates every factor's unit group (so the combined root can
    be taken to be 2), the complexity must be exactly n - delta."""
    name = "corollary"
    if any(sum(assignment.vector_for(d)) % 2 == 0 for d in modulus.divisors_gt1()):
        return CheckVerdict(name, False, None, "a divisor vector has even coordinate sum")
    for p, e in modulus.factors:
        q = p**e
        if numtheory.multiplicative_order(2, q) != q // p * (p - 1):
            return CheckVerdict(name, False, None, f"2 is not a primitive root modulo {q}")
    seq = sequence.generate(modulus, assignment)
    expected = modulus.n - delta(modulus.n)
    L = lincomp.lincomp_gcd(seq).L
    if L == expected:
        return CheckVerdict(name, True, True)
    return CheckVerdict(name, True, False, f"L={L}, expected {expected}")


@dataclass(frozen=True)
class CrtSplitCoefficients:
    """Weights b_k writing n/d as a combination of the cofactors n/q_k.

    Defining congruence: sum of b_k * (n/q_k) over the prime powers q_k of d
    equals n/d modulo n, with every b_k a unit modulo its q_k.
    """

    d: int
    prime_powers: tuple[int, ...]
    coefficients: tuple[int, ...]


def crt_split(modulus: Modulus, d: int) -> CrtSplitCoefficients:
    """Split coefficients for a divisor d > 1 of n, least nonnegative."""
    facs = modulus.divisor_factorization(d)
    qs = tuple(p**l for p, l in facs)
    bs = tuple(pow(d // q, -1, q) for q in qs)
    n = modulus.n
    if sum(b * (n // q) for b, q in zip(bs, qs)) % n != n // d:
        raise MethodDisagreement(f"CRT split coefficients {bs} for d={d} miss n/d")
    return CrtSplitCoefficients(d, qs, bs)


def check_lemma3(
    modulus: Modulus, assignment: VectorAssignment, d: int, field: BinaryField
) -> CheckVerdict:
    """The lifted d1 sum at alpha^v must factor through the per-prime-power
    roots of unity beta_k = alpha^(b_k n/q_k) of d's own split: it equals the
    sum over odd index tuples of the products of per-factor class sums at
    beta_k^v. (Equivalently, with the roots from the split of n itself the
    per-factor argument is beta^((n/d)v); the two forms coincide.)"""
    name = f"lemma3(d={d})"
    n = modulus.n
    a_d = assignment.vector_for(d)
    facs = modulus.divisor_factorization(d)
    pair = cyclotomy.generalized_classes(facs, a_d)
    k = n // d
    lhs_exps = [k * x % n for x in pair.d1]
    split = crt_split(modulus, d)
    _, i1 = cyclotomy.index_sets(a_d)
    factor_classes = [
        cyclotomy.prime_power_classes(p, l, numtheory.primitive_root(p, l))
        for p, l in facs
    ]
    beta_exps = [
        b * (n // q) % n for b, q in zip(split.coefficients, split.prime_powers)
    ]
    table = field.alpha_powers()
    for v in range(1, n):
        lhs = 0
        for e in lhs_exps:
            lhs ^= table[e * v % n]
        sums = []
        for be, classes in zip(beta_exps, factor_classes):
            base = be * v % n
            s0 = 0
            for c in classes.d0:
                s0 ^= table[base * c % n]
            s1 = 0
            for c in classes.d1:
                s1 ^= table[base * c % n]
            sums.append((s0, s1))
        rhs = 0
        for tup in sorted(i1):
            term = 1
            for bit, pairsum in zip(tup, sums):
                term = field.mul(term, pairsum[bit])
            rhs ^= term
        if lhs != rhs:
            return CheckVerdict(name, True, False, f"mismatch at v={v}")
    return CheckVerdict(name, True, True)


def check_lemma4(modulus: Modulus, field: BinaryField) -> CheckVerdict:
    """With the all-ones vector on a squarefree two-prime n, the spectrum on
    units must be constant: 0 when both primes are 3 mod 4, 1 otherwise."""
    name = "lemma4"
    if modulus.t != 2 or any(e != 1 for _, e in modulus.factors):
        return CheckVerdict(name, False, None, "n is not a product of two distinct primes")
    (p1, _), (p2, _) = modulus.factors
    seq = sequence.generate(modulus, VectorAssignment.all_ones_top(modulus))
    expected = 0 if p1 % 4 == 3 and p2 % 4 == 3 else 1
    ones = gf2poly.exponents(seq.packed)
    n = modulus.n
    for v in range(1, n):
        if math.gcd(v, n) != 1:
            continue
        if field.subset_eval(ones, v) != expected:
            return CheckVerdict(name, True, False, f"S(alpha^{v}) != {expected}")
    return CheckVerdict(name, True, True)


def predicted_L_two_primes(p1: int, p2: int) -> int:
    """Closed-form complexity for n = p1*p2 under the all-ones top vector.

    Defined only when both primes are 3 mod 4; the four cases split on the
    residues mod 8.
    """
    numtheory.validate_modulus([(p1, 1), (p2, 1)])
    if p1 % 4 != 3 or p2 % 4 != 3:
        raise OutsideCaseTable(p1, p2)
    r1, r2 = p1 % 8, p2 % 8
    if (r1, r2) == (3, 3):
        return p1 + p2 - 1
    if (r1, r2) == (3, 7):
        return p1 + (p2 - 1) // 2
    if (r1, r2) == (7, 3):
        return p2 + (p1 - 1) // 2
    return (p1 + p2) // 2


def all_checks(
    modulus: Modulus, assignment: VectorAssignment, field: BinaryField | None = None
) -> list[CheckVerdict]:
    """Every check, divisor-expanded, in a deterministic order.

    Checks that require a field are reported as not applicable when none is
    supplied (extension degree above the cap).
    """
    divisors = modulus.divisors_gt1()
    out = [check_lemma1(modulus, d, assignment.vector_for(d)) for d in divisors]
    out += [check_lemma2(modulus, assignment, d, field) for d in divisors]
    if field is not None:
        out += [check_lemma3(modulus, assignment, d, field) for d in divisors]
        out.append(check_lemma4(modulus, field))
    else:
        out += [
            CheckVerdict(f"lemma3(d={d})", False, None, "field unavailable")
            for d in divisors
        ]
        out.append(CheckVerdict("lemma4", False, None, "field unavailable"))
    out.append(check_theorem1(modulus, assignment, field))
    out.append(check_corollary(modulus, assignment))
    return out
