"""Order-2 cyclotomic classes of each divisor and the vectors that pick them.

Every class is decided by the per-prime quadratic character tables chi_p
(numtheory.nonsquare_table) through class_pattern: sequence.generate writes
the patterns straight into the period, and generalized_classes splits one
into explicit sorted residue tuples for the lemma checks.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import compress
from operator import and_

from . import numtheory
from .errors import AssignmentFormatError, MissingDivisorVector, ZeroVector
from .numtheory import Modulus


def class_pattern(d: int, tables) -> bytes:
    """The class pattern of Z_d as d bytes.

    Byte x is the xor of table[x mod len(table)] over the given tables,
    whose lengths are pairwise coprime with a product w dividing d. The xor
    is built at period w, one table of length p at a time (the pattern so
    far repeated p times against the table repeated w times), and only then
    repeated d/w times, so one table of a prime p costs O(p) bytes of work.
    With the tables chi_p of the primes that a_d selects, byte x of a unit x
    is its class; for odd p a unit is a square modulo p^e exactly when it is
    one modulo p, so chi_p decides membership in every power of p.
    """
    pattern, w = b"\0", 1
    for table in tables:
        p = len(table)
        pattern = (
            int.from_bytes(pattern * p, "little") ^ int.from_bytes(table * w, "little")
        ).to_bytes(w * p, "little")
        w *= p
    return pattern * (d // w)


def generalized_classes(factors, a_d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both classes (d0, d1) of Z_d*, ascending, for d given by its
    factorization: a unit lands in class j when the parity of its per-factor
    nonsquare indicators, dotted with a_d, is j."""
    factors = tuple(factors)
    a_d = tuple(a_d)
    if len(a_d) != len(factors):
        raise ValueError("one vector coordinate per distinct prime required")
    if not any(a_d):
        raise ZeroVector(a_d)
    d = math.prod(p**e for p, e in factors)
    tables = [numtheory.nonsquare_table(p) for (p, _), a in zip(factors, a_d) if a]
    pattern = int.from_bytes(class_pattern(d, tables), "little")
    units = reduce(
        and_,
        (int.from_bytes((b"\0" + b"\1" * (p - 1)) * (d // p), "little") for p, _ in factors),
    )
    d1 = pattern & units
    return (
        tuple(compress(range(d), (units ^ d1).to_bytes(d, "little"))),
        tuple(compress(range(d), d1.to_bytes(d, "little"))),
    )


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
        return cls.from_overrides(modulus, {})

    @classmethod
    def all_ones_top(cls, modulus: Modulus) -> "VectorAssignment":
        """All-ones vector on n itself, default elsewhere."""
        return cls.from_overrides(modulus, {modulus.n: (1,) * modulus.t})

    @classmethod
    def from_overrides(cls, modulus: Modulus, overrides: dict) -> "VectorAssignment":
        """Default assignment with explicit vectors for selected divisors."""
        vectors = {
            d: _unit_last(len(modulus.divisor_factorization(d)))
            for d in modulus.divisors_gt1()
        }
        for d, vec in overrides.items():
            vectors[int(d)] = tuple(vec)
        return cls(modulus, vectors)

    @classmethod
    def parse_spec(cls, modulus: Modulus, text: str) -> "VectorAssignment":
        """Parse 'd:bits' lines; divisors not mentioned keep the default, and
        none may be listed twice."""
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
            if d in overrides:
                raise AssignmentFormatError(line, f"divisor {d} is listed twice")
            if set(bits) - {"0", "1"} or not bits:
                raise AssignmentFormatError(line, "bits must be a nonempty 0/1 string")
            vec = tuple(int(c) for c in bits)
            try:
                _check_vector(modulus, d, vec)
            except (ValueError, ZeroVector) as exc:
                raise AssignmentFormatError(line, str(exc)) from None
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
