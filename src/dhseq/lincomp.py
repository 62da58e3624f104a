"""Linear complexity of a period by three independent methods.

Any object with .packed (bit i is s_i) and .n works as input, so raw
periods read from disk get the same treatment as constructed sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2poly
from .gf2poly import BinaryField

BM = "BM"
GCD = "GCD"
SPECTRAL = "SPECTRAL"


@dataclass(frozen=True)
class LinComplexityResult:
    L: int
    method: str
    zero_count: int | None = None
    zero_set: frozenset | None = None


def lincomp_bm(seq) -> LinComplexityResult:
    """Shortest-LFSR length, measured on two concatenated periods."""
    n, s = seq.n, seq.packed
    return LinComplexityResult(gf2poly.berlekamp_massey(s | s << n, 2 * n), BM)


def lincomp_gcd(seq) -> LinComplexityResult:
    """n minus the number of period roots shared with x^n + 1."""
    g = gf2poly.gcd(seq.packed, (1 << seq.n) | 1)
    zero_count = g.bit_length() - 1
    return LinComplexityResult(seq.n - zero_count, GCD, zero_count)


def spectral_values(seq, field: BinaryField) -> list[int]:
    """S(alpha^v) for v = 0..n-1."""
    if field.n != seq.n:
        raise ValueError(f"field is for n={field.n}, sequence has n={seq.n}")
    ones = gf2poly.exponents(seq.packed)
    table = field.alpha_powers()
    n = seq.n
    out = []
    for v in range(n):
        acc = 0
        for i in ones:
            acc ^= table[v * i % n]
        out.append(acc)
    return out


def lincomp_spectral(seq, field: BinaryField) -> LinComplexityResult:
    """Root-counting form: n minus the count of v with S(alpha^v) = 0."""
    values = spectral_values(seq, field)
    zeros = frozenset(v for v, val in enumerate(values) if val == 0)
    return LinComplexityResult(seq.n - len(zeros), SPECTRAL, len(zeros), zeros)
