"""Binary sequence materialization and its on-disk format.

A period is one record, Period(packed, n): bit i of the int packed is s_i,
and n is the length (zeros at the end of the period are high zero bits,
which the int itself does not hold). generate and parse_bit_line both
return one, so equal bits compare equal. generate reads each H-orbit's
bit from block_rules and lays the orbits out with numtheory.orbit_union.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomy import VectorAssignment
from .errors import PeriodTooLarge
from .numtheory import MAX_PERIOD, Modulus, nonsquare_table, orbit_union


# a NamedTuple class body may not define __new__, so Period checks its
# fields in a subclass; equality and hashing stay those of (packed, n)
class _PeriodFields(NamedTuple):
    packed: int
    n: int


class Period(_PeriodFields):
    """One period of n bits, generated or read back from a sequence file;
    it holds no modulus or assignment, so equal bits compare equal."""

    __slots__ = ()

    def __new__(cls, packed: int, n: int):
        if n < 1 or packed < 0 or packed >> n:
            raise ValueError(f"packed period does not fit in {n} bits")
        return super().__new__(cls, packed, n)

    @property
    def weight(self) -> int:
        return self.packed.bit_count()


def delta(n: int) -> int:
    """1 when n = 3 (mod 4), else 0 (equivalently: the full-period sum
    (n+1)/2 is even exactly then)."""
    return 1 if n % 4 == 3 else 0


def block_rules(modulus: Modulus, assignment: VectorAssignment) -> list[tuple[int, int]]:
    """The rule (sel, flip) of each block d = prod p_j^l_j of n, the (l_j)
    in the order of itertools.product over 0..e_j (the last prime's fastest).

    An index i of block d, d = n/gcd(i, n) > 1, has the class of the unit
    u = i/(n/d) in Z_d* as its bit: the xor of chi_{p_j}(u) over the p_j
    that a_d selects (bit j of sel). With v_j = v_{p_j}(i) = e_j - l_j, u and
    i/p_j^v_j differ by the unit (n/d)/p_j^v_j mod p_j, so chi_{p_j}(u) is
    chi_{p_j}(i/p_j^v_j) flipped when f_j = chi_{p_j}((n/d)/p_j^v_j) is 1;
    flip is the xor of the selected f_j. Block d = 1, index 0 alone, is (0, 1).
    """
    factors, n = modulus.factors, modulus.n
    blocks = [(1, ())]
    for p, e in factors:
        blocks = [(d * p**l, ls + (l,)) for d, ls in blocks for l in range(e + 1)]
    rules = [(0, 1)]
    for d, ls in blocks[1:]:
        bits = iter(assignment.vector_for(d))
        sel = flip = 0
        for j, ((p, e), l) in enumerate(zip(factors, ls)):
            if l and next(bits):
                sel |= 1 << j
                flip ^= nonsquare_table(p)[n // d // p ** (e - l) % p]
        rules.append((sel, flip))
    return rules


def generate(modulus: Modulus, assignment: VectorAssignment) -> Period:
    """Materialize one period. By block_rules, the bit of i depends only on
    the labels of i mod p_j^e_j (numtheory.prime_power_labels), its H-orbit:
    the valuations fix the block and the chi bits the class. So each orbit
    gets one bit, and numtheory.orbit_union lays out those set to 1."""
    rule = block_rules(modulus, assignment)
    # per orbit, built one prime at a time (the last prime's label fastest):
    # its block's rule offset (sum of l_j * stride_j) and its chi bits
    orbits, stride = [(0, 0)], len(rule)
    for j, (p, e) in enumerate(modulus.factors):
        stride //= e + 1
        labels = [(0, 0)] + [((e - v) * stride, c << j) for v in range(e) for c in (0, 1)]
        orbits = [(k + offset, chis | c) for k, chis in orbits for offset, c in labels]
    bits = [rule[k][1] ^ ((chis & rule[k][0]).bit_count() & 1) for k, chis in orbits]
    return Period(orbit_union(modulus.factors, bits), modulus.n)


def sequence_line(seq: Period) -> str:
    """The sequence file payload: one ASCII line of 0/1 characters, s_0 first."""
    return format(seq.packed, f"0{seq.n}b")[::-1] + "\n"


def metadata_block(modulus: Modulus, assignment: VectorAssignment, period: Period) -> str:
    """Sidecar key=value block: the period's provenance and weight."""
    lines = [
        f"n={period.n}",
        f"factors={','.join(f'{p}:{e}' for p, e in modulus.factors)}",
        f"assignment={assignment.spec_string()}",
        f"weight={period.weight}",
    ]
    return "\n".join(lines) + "\n"


def parse_bit_line(text: str) -> Period:
    """Read a sequence file payload back into a packed period.

    After surrounding whitespace is stripped, the line must be nonempty
    ASCII with no byte left once the digits 0 and 1 are deleted, so inner
    spaces and the signs, underscores, prefixes and non-ASCII digits that
    int(..., 2) would accept are all refused.
    """
    line = text.strip()
    if len(line) >= MAX_PERIOD:
        raise PeriodTooLarge(f"of {len(line)} bits", MAX_PERIOD)
    if not line or not line.isascii() or line.encode("ascii").translate(None, b"01"):
        raise ValueError("sequence file must be a single line of 0/1 characters")
    return Period(int(line[::-1], 2), len(line))
