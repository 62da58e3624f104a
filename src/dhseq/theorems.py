"""Executable verdicts for the structural identities behind the construction.

Each check returns a CheckVerdict rather than a bare bool so a failure
carries a witness: the first divisor, exponent, or unit where the identity
broke. Checks that need the GF(2^m) context take a BinaryField; passing
None restricts them to whatever can be decided without one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import cyclotomy, gf2poly, lincomp, numtheory, sequence
from .cyclotomy import VectorAssignment
from .errors import OutsideCaseTable
from .gf2poly import BinaryField
from .numtheory import Modulus
from .sequence import Period, delta

_EVEN_SUM = "a divisor vector has even coordinate sum"


def _has_even_vector(modulus: Modulus, assignment: VectorAssignment) -> bool:
    return any(sum(assignment.vector_for(d)) % 2 == 0 for d in modulus.divisors_gt1())


class CheckVerdict(NamedTuple):
    name: str
    applicable: bool
    holds: bool | None
    witness: str | None = None

    @property
    def passed(self) -> bool:
        """True unless the check was applicable and failed."""
        return not self.applicable or bool(self.holds)


class _DivisorMemo:
    """One run's memo over the divisors d > 1 of n: the class pair (d0, d1)
    of d under the assignment, and the spectrum of each class lifted to Z_n
    by n/d, each built on its first read."""

    def __init__(self, modulus: Modulus, assignment: VectorAssignment, field: BinaryField | None):
        self.modulus, self.assignment, self.field = modulus, assignment, field
        self._classes, self._spectra = {}, {}

    def classes(self, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if d not in self._classes:
            self._classes[d] = cyclotomy.generalized_classes(
                self.modulus.divisor_factorization(d), self.assignment.vector_for(d)
            )
        return self._classes[d]

    def spectrum(self, d: int, j: int) -> lincomp.Spectrum:
        """The spectrum of {(n/d) x mod n : x in class j of d}."""
        if (d, j) not in self._spectra:
            n = self.modulus.n
            lifted = [n // d * x % n for x in self.classes(d)[j]]
            self._spectra[d, j] = lincomp.spectrum(lifted, self.field)
        return self._spectra[d, j]


def check_lemma1(modulus: Modulus, d: int, a_d, classes=None) -> CheckVerdict:
    """Multiplication by the combined root must swap the two classes of d
    whenever the vector has odd coordinate sum. `classes`, the (d0, d1) pair
    of d, is built when not given."""
    name = f"lemma1(d={d})"
    a_d = tuple(a_d)
    if sum(a_d) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    d0, d1 = classes or cyclotomy.generalized_classes(modulus.divisor_factorization(d), a_d)
    g = numtheory.combined_root(modulus) % d
    swapped0 = {g * x % d for x in d0}
    swapped1 = {g * x % d for x in d1}
    if swapped0 == set(d1) and swapped1 == set(d0):
        return CheckVerdict(name, True, True)
    return CheckVerdict(name, True, False, f"g={g} does not swap the classes of {d}")


def check_lemma2(
    modulus: Modulus, assignment: VectorAssignment, d: int,
    field: BinaryField | None = None, memo: _DivisorMemo | None = None,
) -> CheckVerdict:
    """Scaled-class evaluations must match under the root-for-argument swap:
    the lifted d1 sum at alpha^(vg) equals the lifted d0 sum at alpha^v.

    Without a field only the underlying set identity is checked. `memo`,
    the run's divisor memo, is built when not given.
    """
    name = f"lemma2(d={d})"
    if sum(assignment.vector_for(d)) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    memo = memo or _DivisorMemo(modulus, assignment, field)
    d0, d1 = memo.classes(d)
    n = modulus.n
    k = n // d
    g = numtheory.combined_root(modulus)
    lifted0 = {k * x % n for x in d0}
    lifted1 = {k * x % n for x in d1}
    if {g * x % n for x in lifted1} != lifted0:
        return CheckVerdict(name, True, False, f"set form fails for d={d}")
    if field is not None:
        s0, s1 = memo.spectrum(d, 0), memo.spectrum(d, 1)
        for v in lincomp.common_reps(s0, s1)[1:]:
            if s1[v * g % n] != s0[v]:
                return CheckVerdict(name, True, False, f"evaluation form fails at v={v}")
    return CheckVerdict(name, True, True)


def _measure(modulus: Modulus, assignment: VectorAssignment) -> tuple[Period, int]:
    """The generated period and its complexity by the gcd route."""
    seq = sequence.generate(modulus, assignment)
    return seq, lincomp.lincomp_gcd(seq)


def check_theorem1(
    modulus: Modulus, assignment: VectorAssignment, field: BinaryField | None = None, measured=None
) -> CheckVerdict:
    """When every divisor vector has odd coordinate sum, the complexity of
    the generated period must reach (n+1)/2 - delta. Given a field, the
    complementary spectrum pairing (values at v and g*v sum to 1) is
    verified as well. `measured`, the period and its complexity by the gcd
    route, is computed when not given."""
    name = "theorem1"
    if _has_even_vector(modulus, assignment):
        return CheckVerdict(name, False, None, _EVEN_SUM)
    seq, L = measured or _measure(modulus, assignment)
    n = modulus.n
    bound = (n + 1) // 2 - delta(n)
    if L < bound:
        return CheckVerdict(name, True, False, f"L={L} below bound {bound}")
    if field is not None:
        spec = lincomp.spectrum(gf2poly.exponents(seq.packed), field)
        g = numtheory.combined_root(modulus)
        for v in lincomp.common_reps(spec)[1:]:
            if spec[v] ^ spec[v * g % n] != 1:
                return CheckVerdict(name, True, False, f"pairing fails at v={v}")
    return CheckVerdict(name, True, True)


def check_corollary(
    modulus: Modulus, assignment: VectorAssignment, L: int | None = None
) -> CheckVerdict:
    """When 2 generates every factor's unit group (so the combined root can
    be taken to be 2), the complexity must be exactly n - delta. L, the
    complexity of the generated period, is measured when not given."""
    name = "corollary"
    if _has_even_vector(modulus, assignment):
        return CheckVerdict(name, False, None, _EVEN_SUM)
    for p, e in modulus.factors:
        q = p**e
        if numtheory.order_of_two(q) != q // p * (p - 1):
            return CheckVerdict(name, False, None, f"2 is not a primitive root modulo {q}")
    if L is None:
        L = _measure(modulus, assignment)[1]
    expected = modulus.n - delta(modulus.n)
    if L == expected:
        return CheckVerdict(name, True, True)
    return CheckVerdict(name, True, False, f"L={L}, expected {expected}")


def _odd_tuple_sum(field: BinaryField, a_d, pairs) -> int:
    """The sum, over the index tuples i whose dot product with a_d is odd,
    of the products of pairs[j][i_j], by one pass over the factors: (even,
    odd) hold that sum over the tuples of the factors so far, split by
    parity. A factor that a_d selects sends the class-1 terms across the
    split; any other factor multiplies both by the sum of its pair."""
    mul = field.mul
    even, odd = 1, 0
    for a, (x0, x1) in zip(a_d, pairs):
        if a:
            even, odd = mul(even, x0) ^ mul(odd, x1), mul(even, x1) ^ mul(odd, x0)
        else:
            both = x0 ^ x1
            even, odd = mul(even, both), mul(odd, both)
    return odd


def check_lemma3(
    modulus: Modulus, assignment: VectorAssignment, d: int, field: BinaryField | None,
    memo: _DivisorMemo | None = None,
) -> CheckVerdict:
    """The lifted d1 sum at alpha^v must factor through the prime powers q of
    d: it equals the sum over odd index tuples of the products of per-factor
    class sums at beta^v, beta = alpha^(b n/q), b = (d/q)^-1 mod q. As b maps
    class j of q onto class j xor chi_p(d/q), that sum is the memo's lifted
    spectrum of class j xor chi_p(d/q) of q. The right side is taken by
    _odd_tuple_sum, at most four products per prime power of d; the left is
    the spectrum of the lifted class itself. Not applicable without a
    field; `memo` is as for check_lemma2."""
    name = f"lemma3(d={d})"
    if field is None:
        return CheckVerdict(name, False, None, "field unavailable")
    memo = memo or _DivisorMemo(modulus, assignment, field)
    lhs = memo.spectrum(d, 1)
    pairs = []
    for p, l in modulus.divisor_factorization(d):
        swap = numtheory.nonsquare_table(p)[d // p**l % p]
        pairs.append((memo.spectrum(p**l, swap), memo.spectrum(p**l, 1 - swap)))
    a_d = assignment.vector_for(d)
    for v in lincomp.common_reps(lhs, *(s for pair in pairs for s in pair))[1:]:
        if lhs[v] != _odd_tuple_sum(field, a_d, [(s0[v], s1[v]) for s0, s1 in pairs]):
            return CheckVerdict(name, True, False, f"mismatch at v={v}")
    return CheckVerdict(name, True, True)


def check_lemma4(modulus: Modulus, field: BinaryField | None) -> CheckVerdict:
    """With the all-ones vector on a squarefree two-prime n, the spectrum on
    units must be constant: 0 when both primes are 3 mod 4, 1 otherwise.
    Not applicable without a field."""
    name = "lemma4"
    if field is None:
        return CheckVerdict(name, False, None, "field unavailable")
    if modulus.t != 2 or any(e != 1 for _, e in modulus.factors):
        return CheckVerdict(name, False, None, "n is not a product of two distinct primes")
    (p1, _), (p2, _) = modulus.factors
    seq = sequence.generate(modulus, VectorAssignment.all_ones_top(modulus))
    expected = 0 if p1 % 4 == 3 and p2 % 4 == 3 else 1
    spec = lincomp.spectrum(gf2poly.exponents(seq.packed), field)
    n = modulus.n
    for v in lincomp.common_reps(spec)[1:]:
        if math.gcd(v, n) == 1 and spec[v] != expected:
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


CHECKS = ("lemma1", "lemma2", "lemma3", "lemma4", "theorem1", "corollary")


def all_checks(
    modulus: Modulus, assignment: VectorAssignment, field: BinaryField | None = None,
    check: str = "all",
) -> list[CheckVerdict]:
    """The verdicts of one check of CHECKS, divisor-expanded, or of every
    check for "all", in a deterministic order.

    Checks that require a field are reported as not applicable when none is
    supplied (extension degree above the cap). The lemmas share one divisor
    memo per run, so each class pair and each lifted-class spectrum is built
    once, on its first read (lemma1 and lemma2 read d on an odd coordinate
    sum; lemma3, with a field, reads d and its prime powers). When
    theorem1 is requested, one period and one gcd serve it and the
    corollary; the corollary alone measures only where it applies.
    """
    if check != "all" and check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECKS} or 'all'")
    out = {name: [] for name in (CHECKS if check == "all" else (check,))}
    memo = _DivisorMemo(modulus, assignment, field)
    for d in modulus.divisors_gt1():
        if "lemma1" in out:
            a_d = assignment.vector_for(d)
            classes = memo.classes(d) if sum(a_d) % 2 else None
            out["lemma1"].append(check_lemma1(modulus, d, a_d, classes))
        if "lemma2" in out:
            out["lemma2"].append(check_lemma2(modulus, assignment, d, field, memo))
        if "lemma3" in out:
            out["lemma3"].append(check_lemma3(modulus, assignment, d, field, memo))
    if "lemma4" in out:
        out["lemma4"].append(check_lemma4(modulus, field))
    shared = "theorem1" in out and not _has_even_vector(modulus, assignment)
    measured = _measure(modulus, assignment) if shared else None
    if "theorem1" in out:
        out["theorem1"].append(check_theorem1(modulus, assignment, field, measured))
    if "corollary" in out:
        out["corollary"].append(check_corollary(modulus, assignment, measured and measured[1]))
    return [v for verdicts in out.values() for v in verdicts]
