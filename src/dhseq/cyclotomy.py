"""Order-2 cyclotomic classes and the two-class partition of Z_n.

Classes are explicit sorted residue tuples for exhaustive desk-scale work;
sequence.generate builds the same partition from per-prime quadratic
character tables without materializing any class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import numtheory
from .errors import (
    AssignmentFormatError,
    MissingDivisorVector,
    NotPrimitiveRoot,
    ZeroVector,
)
from .numtheory import Modulus


@dataclass(frozen=True)
class PrimePowerClasses:
    """Squares subgroup d0 of Z_{p^e}* and its nonsquare coset d1 = g*d0."""

    prime_power: int
    d0: tuple[int, ...]
    d1: tuple[int, ...]


def prime_power_classes(p: int, e: int, g: int) -> PrimePowerClasses:
    """Split Z_{p^e}* into the subgroup generated by g^2 and its coset."""
    q = p**e
    phi = q // p * (p - 1)
    g %= q
    if g % p == 0 or numtheory.multiplicative_order(g, q) != phi:
        raise NotPrimitiveRoot(g, q)
    g2 = g * g % q
    d0 = []
    x = 1
    for _ in range(phi // 2):
        d0.append(x)
        x = x * g2 % q
    d1 = tuple(sorted(g * y % q for y in d0))
    return PrimePowerClasses(q, tuple(sorted(d0)), d1)


def index_sets(a_d) -> tuple[frozenset, frozenset]:
    """Split {0,1}^m by the parity of the dot product with a_d."""
    a_d = tuple(a_d)
    if not any(a_d):
        raise ZeroVector(a_d)
    i0, i1 = [], []
    for tup in product((0, 1), repeat=len(a_d)):
        parity = sum(t * a for t, a in zip(tup, a_d)) % 2
        (i1 if parity else i0).append(tup)
    return frozenset(i0), frozenset(i1)


@dataclass(frozen=True)
class ClassPair:
    """The two generalized classes of Z_d* selected by the vector a_d.

    coset_rep is the deterministic b with d1 = b*d0, chosen as
    (min d1) * (min d0)^-1 mod d.
    """

    d: int
    a_d: tuple[int, ...]
    d0: tuple[int, ...]
    d1: tuple[int, ...]
    coset_rep: int


def generalized_classes(factors, a_d, roots=None) -> ClassPair:
    """Build both classes of Z_d* for d given by its factorization.

    A unit lands in class j when the parity of (per-factor nonsquare
    indicators) dotted with a_d is j. roots may supply per-factor primitive
    roots; the classes themselves do not depend on that choice, which the
    NotPrimitiveRoot check keeps honest.
    """
    factors = tuple(factors)
    a_d = tuple(a_d)
    if len(a_d) != len(factors):
        raise ValueError("one vector coordinate per distinct prime required")
    if not any(a_d):
        raise ZeroVector(a_d)
    if roots is None:
        roots = tuple(numtheory.primitive_root(p, e) for p, e in factors)
    per_factor = [prime_power_classes(p, e, g) for (p, e), g in zip(factors, roots)]
    nonsquares = [frozenset(c.d1) for c in per_factor]
    qs = [p**e for p, e in factors]
    d = math.prod(qs)
    d0, d1 = [], []
    for x in range(1, d):
        if math.gcd(x, d) != 1:
            continue
        parity = 0
        for q, a, ns in zip(qs, a_d, nonsquares):
            if a and x % q in ns:
                parity ^= 1
        (d1 if parity else d0).append(x)
    b = d1[0] * pow(d0[0], -1, d) % d
    return ClassPair(d, a_d, tuple(d0), tuple(d1), b)


def _unit_last(m: int) -> tuple[int, ...]:
    return (0,) * (m - 1) + (1,)


class VectorAssignment:
    """One nonzero bit vector per divisor d > 1 of n.

    Coordinates follow the ascending primes of each divisor. Immutable by
    convention after construction.
    """

    def __init__(self, modulus: Modulus, vectors: dict):
        self.modulus = modulus
        self.vectors = {d: tuple(v) for d, v in sorted(vectors.items())}
        for d, vec in self.vectors.items():
            _check_vector(modulus, d, vec)

    @classmethod
    def default(cls, modulus: Modulus) -> "VectorAssignment":
        """(0,...,0,1) everywhere: weight on each divisor's largest prime."""
        vectors = {
            d: _unit_last(len(modulus.divisor_factorization(d)))
            for d in modulus.divisors_gt1()
        }
        return cls(modulus, vectors)

    @classmethod
    def all_ones_top(cls, modulus: Modulus) -> "VectorAssignment":
        """All-ones vector on n itself, default elsewhere."""
        base = cls.default(modulus)
        vectors = dict(base.vectors)
        vectors[modulus.n] = (1,) * modulus.t
        return cls(modulus, vectors)

    @classmethod
    def from_overrides(cls, modulus: Modulus, overrides: dict) -> "VectorAssignment":
        """Default assignment with explicit vectors for selected divisors."""
        base = cls.default(modulus)
        vectors = dict(base.vectors)
        for d, vec in overrides.items():
            vectors[int(d)] = tuple(vec)
        return cls(modulus, vectors)

    @classmethod
    def parse_spec(cls, modulus: Modulus, text: str) -> "VectorAssignment":
        """Parse 'd:bits' lines; divisors not mentioned keep the default."""
        overrides = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            head, sep, bits = line.partition(":")
            if not sep:
                raise AssignmentFormatError(line, "expected d:bits")
            try:
                d = int(head)
            except ValueError:
                raise AssignmentFormatError(line, "divisor is not an integer") from None
            if set(bits) - {"0", "1"} or not bits:
                raise AssignmentFormatError(line, "bits must be a nonempty 0/1 string")
            if d <= 1 or modulus.n % d != 0:
                raise AssignmentFormatError(line, f"{d} is not a divisor > 1 of {modulus.n}")
            vec = tuple(int(c) for c in bits)
            if len(vec) != len(modulus.divisor_factorization(d)):
                raise AssignmentFormatError(
                    line, "one bit per distinct prime of the divisor required"
                )
            if not any(vec):
                raise AssignmentFormatError(line, "vector must be nonzero")
            overrides[d] = vec
        return cls.from_overrides(modulus, overrides)

    def vector_for(self, d: int) -> tuple[int, ...]:
        try:
            return self.vectors[d]
        except KeyError:
            raise MissingDivisorVector(d) from None

    def spec_string(self) -> str:
        return ";".join(
            f"{d}:{''.join(map(str, vec))}" for d, vec in self.vectors.items()
        )

    def __repr__(self):
        return f"VectorAssignment({self.spec_string()})"


def _check_vector(modulus: Modulus, d: int, vec: tuple[int, ...]):
    if d <= 1 or modulus.n % d != 0:
        raise ValueError(f"{d} is not a divisor > 1 of {modulus.n}")
    if len(vec) != len(modulus.divisor_factorization(d)):
        raise ValueError(f"vector for {d} needs one bit per distinct prime")
    if any(b not in (0, 1) for b in vec):
        raise ValueError(f"vector for {d} must contain only bits")
    if not any(vec):
        raise ZeroVector(vec)


def global_partition(modulus: Modulus, assignment: VectorAssignment):
    """The partition (C0, C1) of Z_n; 0 always lands in C1."""
    n = modulus.n
    c0: set[int] = set()
    c1: set[int] = {0}
    for d in modulus.divisors_gt1():
        pair = generalized_classes(
            modulus.divisor_factorization(d), assignment.vector_for(d)
        )
        k = n // d
        c0.update(k * x % n for x in pair.d0)
        c1.update(k * x % n for x in pair.d1)
    return frozenset(c0), frozenset(c1)
