"""Binary sequence materialization and its on-disk format.

A period is one Python int with bit i equal to s_i, plus its length n
(zeros at the end of the period are high zero bits, which the int itself
does not hold).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import VectorAssignment
from .numtheory import Modulus

_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class DHSequence:
    """One period of the two-class binary sequence (bit i is 1 iff i in C1)."""

    modulus: Modulus
    assignment: VectorAssignment
    packed: int

    @property
    def n(self) -> int:
        return self.modulus.n

    @property
    def weight(self) -> int:
        return self.packed.bit_count()


@dataclass(frozen=True)
class RawPeriod:
    """A bare period of n bits with no construction metadata."""

    packed: int
    n: int

    def __post_init__(self):
        if self.n < 1 or self.packed < 0 or self.packed >> self.n:
            raise ValueError(f"packed period does not fit in {self.n} bits")


def delta(n: int) -> int:
    """1 when n = 3 (mod 4), else 0 (equivalently: the full-period sum
    (n+1)/2 is even exactly then)."""
    return 1 if n % 4 == 3 else 0


def _nonsquare_table(p: int) -> bytes:
    """chi_p: byte x is 1 when x is a nonsquare unit modulo p, else 0."""
    table = bytearray(b"\x01") * p
    table[0] = 0
    for x in range(1, (p + 1) // 2):
        table[x * x % p] = 0
    return bytes(table)


def generate(modulus: Modulus, assignment: VectorAssignment) -> DHSequence:
    """Materialize one period.

    Index 0 is always a one; every other index i belongs to exactly one
    block (n/d)*Z_d*, and its bit is the class of the unit part of i there.
    For odd p a unit is a square modulo p^e exactly when it is one modulo p,
    so the class pattern of a whole block Z_d is the xor of the tables chi_p
    repeated d/p times, over the primes p of d that a_d selects. Writing the
    blocks at stride n/d in decreasing order of d leaves every index with
    the bit of its own block, since a non-unit x of Z_d is rewritten by the
    smaller block d/gcd(x, d).
    """
    n = modulus.n
    chi = {p: _nonsquare_table(p) for p, _ in modulus.factors}
    buf = bytearray(n)
    for d in sorted(modulus.divisors_gt1(), reverse=True):
        block = 0
        for (p, _), a in zip(modulus.divisor_factorization(d), assignment.vector_for(d)):
            if a:
                block ^= int.from_bytes(chi[p] * (d // p), "little")
        buf[:: n // d] = block.to_bytes(d, "little")
    buf[0] = 1
    return DHSequence(modulus, assignment, int(buf.translate(_ASCII_BITS)[::-1], 2))


def sequence_line(seq) -> str:
    """The sequence file payload: one ASCII line of 0/1 characters, s_0 first."""
    return format(seq.packed, f"0{seq.n}b")[::-1] + "\n"


def metadata_block(seq: DHSequence) -> str:
    """Sidecar key=value block describing a generated sequence."""
    lines = [
        f"n={seq.n}",
        f"factors={','.join(f'{p}:{e}' for p, e in seq.modulus.factors)}",
        f"assignment={seq.assignment.spec_string()}",
        f"weight={seq.weight}",
    ]
    return "\n".join(lines) + "\n"


def parse_bit_line(text: str) -> RawPeriod:
    """Read a sequence file payload back into a packed period."""
    line = text.strip()
    if not line or set(line) - {"0", "1"}:
        raise ValueError("sequence file must be a single line of 0/1 characters")
    return RawPeriod(int(line[::-1], 2), len(line))
