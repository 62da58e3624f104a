"""Executable verdicts for the structural identities behind the construction.

Each check returns a CheckVerdict rather than a bare bool so a failure
carries a witness: the first divisor, exponent, or unit where the identity
broke. Every check takes one CheckRun, which holds the modulus, the
assignment and the GF(2^m) context of a run; a run without a field
restricts the checks to whatever can be decided without one.
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


class CheckRun:
    """What the checks of one run share: the class pair (d0, d1) of each
    divisor d > 1 as two sets of Z_d, the spectrum of each class lifted to
    Z_n by n/d, and the generated period with its complexity by the gcd
    route, each built on its first read and kept for the run."""

    def __init__(self, modulus: Modulus, assignment: VectorAssignment, field: BinaryField | None):
        if field is not None and field.n != modulus.n:
            raise ValueError(f"field is for n={field.n}, modulus has n={modulus.n}")
        self.modulus, self.assignment, self.field = modulus, assignment, field
        self._classes, self._spectra, self._measured = {}, {}, None

    def classes(self, d: int) -> tuple[frozenset[int], frozenset[int]]:
        """The classes D_0, D_1 of d under the assignment, residues of Z_d."""
        if d not in self._classes:
            self._classes[d] = tuple(map(frozenset, cyclotomy.generalized_classes(
                self.modulus.divisor_factorization(d), self.assignment.vector_for(d)
            )))
        return self._classes[d]

    def spectrum(self, d: int, j: int) -> lincomp.Spectrum:
        """The spectrum of {(n/d) x : x in class j of d}, in Z_n as x < d."""
        if (d, j) not in self._spectra:
            k = self.modulus.n // d
            self._spectra[d, j] = lincomp.spectrum([k * x for x in self.classes(d)[j]], self.field)
        return self._spectra[d, j]

    def measured(self) -> tuple[Period, int]:
        """The generated period and its complexity by the gcd route."""
        if self._measured is None:
            seq = sequence.generate(self.modulus, self.assignment)
            self._measured = seq, lincomp.lincomp_gcd(seq)
        return self._measured


def check_lemma1(run: CheckRun, d: int) -> CheckVerdict:
    """Multiplication by the combined root must swap the two classes of d
    whenever the vector has odd coordinate sum."""
    name = f"lemma1(d={d})"
    if sum(run.assignment.vector_for(d)) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    d0, d1 = run.classes(d)
    g = numtheory.combined_root(run.modulus) % d
    if {g * x % d for x in d0} == d1 and {g * x % d for x in d1} == d0:
        return CheckVerdict(name, True, True)
    return CheckVerdict(name, True, False, f"g={g} does not swap the classes of {d}")


def check_lemma2(run: CheckRun, d: int) -> CheckVerdict:
    """Scaled-class evaluations must match under the root-for-argument swap:
    the lifted d1 sum at alpha^(vg) equals the lifted d0 sum at alpha^v.

    The set form g D_1 = D_0, alone without a field, is checked in Z_d:
    y -> (n/d)y embeds Z_d in Z_n and commutes with multiplication by g."""
    name = f"lemma2(d={d})"
    if sum(run.assignment.vector_for(d)) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    d0, d1 = run.classes(d)
    g = numtheory.combined_root(run.modulus)
    if {g * x % d for x in d1} != d0:
        return CheckVerdict(name, True, False, f"set form fails for d={d}")
    if run.field is not None:
        n = run.modulus.n
        s0, s1 = run.spectrum(d, 0), run.spectrum(d, 1)
        for v in lincomp.common_reps(s0, s1)[1:]:
            if s1[v * g % n] != s0[v]:
                return CheckVerdict(name, True, False, f"evaluation form fails at v={v}")
    return CheckVerdict(name, True, True)


def check_theorem1(run: CheckRun) -> CheckVerdict:
    """When every divisor vector has odd coordinate sum, the complexity of
    the generated period must reach (n+1)/2 - delta. Given a field, the
    complementary spectrum pairing (values at v and g*v sum to 1) is
    verified as well."""
    name = "theorem1"
    if _has_even_vector(run.modulus, run.assignment):
        return CheckVerdict(name, False, None, _EVEN_SUM)
    seq, L = run.measured()
    n = run.modulus.n
    bound = (n + 1) // 2 - delta(n)
    if L < bound:
        return CheckVerdict(name, True, False, f"L={L} below bound {bound}")
    if run.field is not None:
        spec = lincomp.spectrum(gf2poly.exponents(seq.packed), run.field)
        g = numtheory.combined_root(run.modulus)
        for v in lincomp.common_reps(spec)[1:]:
            if spec[v] ^ spec[v * g % n] != 1:
                return CheckVerdict(name, True, False, f"pairing fails at v={v}")
    return CheckVerdict(name, True, True)


def check_corollary(run: CheckRun) -> CheckVerdict:
    """When 2 generates every factor's unit group (so the combined root can
    be taken to be 2), the complexity must be exactly n - delta."""
    name = "corollary"
    if _has_even_vector(run.modulus, run.assignment):
        return CheckVerdict(name, False, None, _EVEN_SUM)
    for p, e in run.modulus.factors:
        q = p**e
        if numtheory.order_of_two(q) != q // p * (p - 1):
            return CheckVerdict(name, False, None, f"2 is not a primitive root modulo {q}")
    L = run.measured()[1]
    expected = run.modulus.n - delta(run.modulus.n)
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


def check_lemma3(run: CheckRun, d: int) -> CheckVerdict:
    """The lifted d1 sum at alpha^v must factor through the prime powers q of
    d: it equals the sum over odd index tuples of the products of per-factor
    class sums at beta^v, beta = alpha^(b n/q), b = (d/q)^-1 mod q. As b maps
    class j of q onto class j xor chi_p(d/q), that sum is the run's lifted
    spectrum of class j xor chi_p(d/q) of q. The right side is taken by
    _odd_tuple_sum, at most four products per prime power of d; the left is
    the spectrum of the lifted class itself. Not applicable without a
    field."""
    name = f"lemma3(d={d})"
    if run.field is None:
        return CheckVerdict(name, False, None, "field unavailable")
    lhs = run.spectrum(d, 1)
    pairs = []
    for p, l in run.modulus.divisor_factorization(d):
        swap = numtheory.nonsquare_table(p)[d // p**l % p]
        pairs.append((run.spectrum(p**l, swap), run.spectrum(p**l, 1 - swap)))
    a_d = run.assignment.vector_for(d)
    for v in lincomp.common_reps(lhs, *(s for pair in pairs for s in pair))[1:]:
        if lhs[v] != _odd_tuple_sum(run.field, a_d, [(s0[v], s1[v]) for s0, s1 in pairs]):
            return CheckVerdict(name, True, False, f"mismatch at v={v}")
    return CheckVerdict(name, True, True)


def check_lemma4(run: CheckRun) -> CheckVerdict:
    """With the all-ones vector on a squarefree two-prime n, the spectrum on
    units must be constant: 0 when both primes are 3 mod 4, 1 otherwise.
    The period is generated under that vector, not the run's assignment.
    Not applicable without a field."""
    name = "lemma4"
    if run.field is None:
        return CheckVerdict(name, False, None, "field unavailable")
    if run.modulus.t != 2 or any(e != 1 for _, e in run.modulus.factors):
        return CheckVerdict(name, False, None, "n is not a product of two distinct primes")
    (p1, _), (p2, _) = run.modulus.factors
    seq = sequence.generate(run.modulus, VectorAssignment.all_ones_top(run.modulus))
    expected = 0 if p1 % 4 == 3 and p2 % 4 == 3 else 1
    spec = lincomp.spectrum(gf2poly.exponents(seq.packed), run.field)
    for v in lincomp.common_reps(spec)[1:]:
        if math.gcd(v, run.modulus.n) == 1 and spec[v] != expected:
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
    supplied (extension degree above the cap). The checks share one
    CheckRun, so each class pair, each lifted-class spectrum and the
    generated period with its gcd are built at most once, on their first
    read: lemma1 and lemma2 read d on an odd coordinate sum; lemma3, with a
    field, reads d and its prime powers; theorem1 and the corollary read
    the period only where they apply.
    """
    if check != "all" and check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECKS} or 'all'")
    run = CheckRun(modulus, assignment, field)
    verdicts = []
    for name in CHECKS if check == "all" else (check,):
        # looked up per call, so a patched or traced check is seen
        run_check = globals()[f"check_{name}"]
        if name in ("lemma1", "lemma2", "lemma3"):
            verdicts += [run_check(run, d) for d in modulus.divisors_gt1()]
        else:
            verdicts.append(run_check(run))
    return verdicts
