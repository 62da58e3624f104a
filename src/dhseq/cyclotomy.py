"""Order-2 cyclotomic classes of each divisor and the vectors that pick them.

Every class is a union of H-orbits of Z_d, H the units that are squares
modulo every prime of d, and numtheory.orbit_union lays out every such
union: sequence.generate builds whole periods with it, and
generalized_classes builds both classes of one divisor with it, as
explicit sorted residue tuples for the lemma checks.
"""

from __future__ import annotations

from . import gf2poly, numtheory
from .errors import AssignmentFormatError, MissingDivisorVector, ZeroVector
from .numtheory import Modulus


def generalized_classes(factors, a_d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both classes (d0, d1) of Z_d*, ascending, for d given by its
    factorization: a unit lands in class j when the parity of its per-factor
    nonsquare indicators, dotted with a_d, is j.

    For odd p a unit is a square modulo p^e exactly when it is one modulo p,
    so the unit orbits are the label tuples of numtheory.prime_power_labels
    with label 1 (square) or 2 (nonsquare) at every prime, and orbit_union
    lays out each class from the bits of its unit orbits.
    """
    factors = tuple(factors)
    a_d = tuple(a_d)
    if len(a_d) != len(factors):
        raise ValueError("one vector coordinate per distinct prime required")
    if not any(a_d):
        raise ZeroVector(a_d)
    # per label tuple, in orbit_union's order: 0 off the units, else 1 + its
    # class; labels[b] maps that state through label b (2 flips where a = 1)
    orbits = [1]
    for (_, l), a in zip(factors, a_d):
        labels = [(0, 0, 0), (0, 1, 2), (0, 1 + a, 2 - a)] + [(0, 0, 0)] * (2 * l - 2)
        orbits = [label[c] for c in orbits for label in labels]
    d0, d1 = (numtheory.orbit_union(factors, [c == j for c in orbits]) for j in (1, 2))
    return tuple(gf2poly.exponents(d0)), tuple(gf2poly.exponents(d1))


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
        none may be listed twice. Spaces around either side are stripped;
        the divisor must then be ASCII decimal digits, so the signs,
        underscores and non-ASCII digits that int() would accept are
        refused."""
        overrides = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            head, sep, bits = line.partition(":")
            if not sep:
                raise AssignmentFormatError(line, "expected d:bits")
            head, bits = head.strip(), bits.strip()
            if not (head.isascii() and head.isdigit()):
                raise AssignmentFormatError(line, "divisor is not a decimal integer")
            d = int(head)
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
