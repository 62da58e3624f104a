"""Elementary number theory underpinning the sequence construction.

Everything here is deterministic and pure: factorization is plain trial
division below MAX_PERIOD (lincomp.block_zero_counts, gf2poly.build_field,
order_of_two and h_orbits factor the n of every period; a survey, each odd
n up to its bound), primality is a factorization, exact for every n, and
primitive roots are always the smallest positive ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .errors import EvenOrRepeatedPrime, GcdConditionViolated, NotPrime, PeriodTooLarge

# A period is one n-bit int built from per-prime-power tiles of at most n
# bits, the spectral route labels Z_n in an n-entry table, and the lemma
# checks list the classes of Z_d, so n must stay far below memory.
MAX_PERIOD = 1 << 24


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n > 0 by trial division; (prime, exponent) pairs, ascending."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """Primality by trial division (factorize): exact for every n, in
    O(sqrt(n)) steps, so validate_modulus asks only below MAX_PERIOD."""
    return n > 1 and factorize(n) == [(n, 1)]


def divisors(factors) -> list[int]:
    """Every divisor of the product of the (prime, exponent) pairs, ascending."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


class Modulus(NamedTuple):
    """A validated period n = p1^e1 * ... * pt^et; build via validate_modulus."""

    factors: tuple[tuple[int, int], ...]
    n: int

    @property
    def t(self) -> int:
        return len(self.factors)

    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**e for p, e in self.factors)

    def divisors_gt1(self) -> list[int]:
        return [d for d in divisors(self.factors) if d > 1]

    def divisor_factorization(self, d: int) -> tuple[tuple[int, int], ...]:
        """Factorization of a divisor d > 1 of n, ascending primes."""
        if d <= 1 or self.n % d != 0:
            raise ValueError(f"{d} is not a divisor > 1 of {self.n}")
        out = []
        for p, _ in self.factors:
            l = 0
            while d % p == 0:
                d //= p
                l += 1
            if l:
                out.append((p, l))
        return tuple(out)

    def factor_string(self) -> str:
        return "*".join(f"{p}^{e}" for p, e in self.factors)


def validate_modulus(factor_list) -> Modulus:
    """Check a (prime, exponent) list and assemble the Modulus.

    The bases must be pairwise-distinct odd primes with positive exponents
    whose totients p^(e-1)(p-1) have pairwise gcd exactly 2.
    """
    factors = [(int(p), int(e)) for p, e in factor_list]
    if not factors:
        raise ValueError("factor list is empty")
    n = 1
    for p, e in factors:
        if e < 1:
            raise ValueError(f"exponent for {p} must be >= 1, got {e}")
        if p <= 2 or p % 2 == 0:
            raise EvenOrRepeatedPrime(p)
        # p >= 3, so this stops within log_3(MAX_PERIOD) steps however large e is
        for _ in range(e):
            n *= p
            if n >= MAX_PERIOD:
                listed = "*".join(f"{q}^{k}" for q, k in factors)
                raise PeriodTooLarge(listed, MAX_PERIOD)
    for p, _ in factors:
        if not is_prime(p):
            raise NotPrime(p)
    factors.sort()
    for (p1, _), (p2, _) in zip(factors, factors[1:]):
        if p1 == p2:
            raise EvenOrRepeatedPrime(p1)
    clash = _totient_clash(factors)
    if clash:
        raise GcdConditionViolated(*clash)
    return Modulus(tuple(factors), n)


def _totient_clash(factors):
    """(p, q, g) for the first pair p < q of the ascending, distinct odd
    prime factors whose totients p^(e-1)(p-1) and q^(f-1)(q-1) have gcd
    g != 2; None when every pair has gcd exactly 2."""
    for (p, e), (q, f) in itertools.combinations(factors, 2):
        g = math.gcd(p ** (e - 1) * (p - 1), q ** (f - 1) * (q - 1))
        if g != 2:
            return p, q, g
    return None


def crt_combine(residues: Sequence[int], modulus: Modulus) -> int:
    """Least nonnegative x congruent to residues[k] modulo the k-th
    prime-power factor of n, ascending primes."""
    qs = modulus.prime_powers()
    if len(residues) != len(qs):
        raise ValueError("one residue per prime-power factor required")
    n = modulus.n
    x = 0
    for r, q in zip(residues, qs):
        m = n // q
        x += r * m * pow(m, -1, q)
    return x % n


@functools.lru_cache(maxsize=16)
def primitive_root(p: int, e: int = 1) -> int:
    """Smallest positive primitive root modulo p**e, for an odd prime p
    (cached: the lemma checks ask for the same roots on every divisor)."""
    if p <= 2 or not is_prime(p):
        raise NotPrime(p)
    if e < 1:
        raise ValueError("exponent must be >= 1")
    q = p**e
    phi = q // p * (p - 1)
    checks = [phi // r for r, _ in factorize(phi)]
    for g in range(2, q):
        if g % p == 0:
            continue
        if all(pow(g, c, q) != 1 for c in checks):
            return g
    raise ArithmeticError(f"no primitive root found modulo {q}")


def combined_root(modulus: Modulus) -> int:
    """CRT combination of the per-factor smallest primitive roots."""
    return crt_combine([primitive_root(p, e) for p, e in modulus.factors], modulus)


def _orders_of_two(p: int, e: int) -> list[int]:
    """ord_(p^l)(2) for l = 0..e, p an odd prime: p - 1 with each prime
    r | p - 1 divided out while 2^(t/r) = 1 (mod p) for what is left, t,
    then t or t * p at each p^l, as 2^t = 1 (mod p^l) or not (the units 1
    mod p^(l-1) form a group of order p; t stays at Wieferich primes)."""
    t = p - 1
    for r, _ in factorize(p - 1):
        while t % r == 0 and pow(2, t // r, p) == 1:
            t //= r
    orders = [1, t]
    for l in range(2, e + 1):
        if pow(2, t, p**l) != 1:
            t *= p
        orders.append(t)
    return orders


def divisor_blocks(factors) -> dict[int, tuple[tuple[tuple[int, int], ...], int]]:
    """Every d | n, n odd and given by its (prime, exponent) pairs, mapped to
    the pairs of d and ord_d(2), the lcm of _orders_of_two over the prime
    powers of d."""
    blocks = {1: ((), 1)}
    for p, e in factors:
        orders = _orders_of_two(p, e)
        blocks = {
            d * p**l: (f + ((p, l),), math.lcm(order, orders[l])) if l else (f, order)
            for d, (f, order) in blocks.items()
            for l in range(e + 1)
        }
    return blocks


def order_of_two(n: int) -> int:
    """Multiplicative order of 2 modulo odd n > 1 (the extension degree)."""
    if n <= 1 or n % 2 == 0:
        raise ValueError("n must be odd and > 1")
    return math.lcm(*(_orders_of_two(p, e)[e] for p, e in factorize(n)))


# a period asks for its few primes again on every orbit or class call; a
# survey asks for hundreds of primes, so keep only the recent ones
@functools.lru_cache(maxsize=16)
def nonsquare_table(p: int) -> bytes:
    """chi_p: byte x is 1 when x is a nonsquare unit modulo p, else 0."""
    table = bytearray(b"\x01") * p
    table[0] = 0
    for x in range(1, (p + 1) // 2):
        table[x * x % p] = 0
    return bytes(table)


class HOrbits(NamedTuple):
    """The orbits of Z_n under multiplication by H, the units that are
    squares modulo every prime of n (n odd).

    The orbit of v is fixed by g = gcd(v, n) and the quadratic characters
    of the unit part v/g modulo the primes of d = n/g: there are
    sum over d | n of 2^omega(d) orbits, of sizes phi(d)/2^omega(d).
    Orbits are numbered by their least member, ascending.
    """

    labels: list[int]  # labels[v]: the number of the orbit of v
    reps: tuple[int, ...]  # least member of each orbit, ascending
    sizes: tuple[int, ...]


def prime_power_labels(p: int, l: int) -> bytearray:
    """The H-orbit of each x in Z_{p^l}, p an odd prime: byte x is 0 for
    x = 0, otherwise 1 + 2 v + chi_p(x / p^v) with v = v_p(x), so there
    are 2l + 1 labels.

    The multiples of p^v are written at stride p^v for v = 0, 1, ..., each
    pass overwriting those of p^(v+1), from chi_p translated to the labels
    of valuation v and repeated at C speed.
    """
    chi = nonsquare_table(p)
    labels = bytearray(p**l)
    for v in range(l):
        pair = bytes((2 * v + 1, 2 * v + 2)) + bytes(254)
        labels[:: p**v] = chi.translate(pair) * p ** (l - 1 - v)
    labels[0] = 0
    return labels


_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")
_SQUARE_BITS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def label_tiles(p: int, l: int) -> list[tuple[int, int]]:
    """One period of each label b of prime_power_labels(p, l) as a bit
    tile: entry b is (tile, w), where bit x of the w-bit tile is set when x
    carries label b, and whether x carries it depends only on x mod w.

    - Label 0 (x = 0 mod p^l) is the one bit 0, w = p^l.
    - The labels of valuation v, 1 + 2 v + c, are the x = p^v u with u a
      square (c = 0) or nonsquare (c = 1) unit mod p, so w = p^(v+1). At
      v = 0 the nonsquare tile is chi_p read as base-2 digits at C speed,
      and the square tile is the other units. At v >= 1 the (p - 1)/2 bits
      p^v u of each are set in a buffer of p^(v+1) / 8 bytes; p^2 <= p^l
      lies below MAX_PERIOD, so that loop is short (p < 4096).

    repeat_bits widens a tile to any number of bits.
    """
    chi = nonsquare_table(p)
    nonsquares = int(chi.translate(_ASCII_BITS)[::-1], 2)
    tiles = [(1, p**l), (nonsquares ^ ((1 << p) - 2), p), (nonsquares, p)]
    if l > 1:
        nonsquare_units = chi[1:]  # byte u - 1 is chi_p(u)
        square_units = nonsquare_units.translate(_SQUARE_BITS)
    for v in range(1, l):
        step = p**v
        for members in (square_units, nonsquare_units):
            bits = bytearray(step * p // 8 + 1)
            for u in itertools.compress(range(1, p), members):
                x = step * u
                bits[x >> 3] |= 1 << (x & 7)
            tiles.append((int.from_bytes(bits, "little"), step * p))
    return tiles


def repeat_bits(x: int, w: int, width: int) -> int:
    """The width-bit int whose bit y is bit y mod w of x, for x below 2^w
    and width >= w: x doubled by shifts while that stays within width, then
    topped up once (a last doubling past width would cost twice the ints)."""
    while 2 * w <= width:
        x |= x << w
        w *= 2
    if w < width:
        x |= (x & ((1 << (width - w)) - 1)) << w
    return x


def orbit_union(factors, bits) -> int:
    """The d-bit union of the H-orbits of Z_d, d = prod p_j^l_j, whose bit
    is 1: orbit (b_j), b_j a label of prime_power_labels(p_j, l_j), has bit
    bits[sum of b_j * stride_j], stride_j = prod of 2 l_i + 1 over i > j.

    By CRT an orbit is the AND of its labels' tiles (label_tiles). A pass
    per prime, the first prime first, replaces each 2 l + 1 patterns over
    Z_below that differ only in the label b of p by their union over
    Z_(below p^l): each nonzero pattern (in the first pass, an orbit bit)
    repeated and ANDed with the tile of b. Labels join by increasing
    valuation v at the width below p^(v+1) of their tiles (label 0 with the
    last), so only the top step of the last, largest prime works at d bits.
    """
    parts, below = bits, 1
    for p, l in factors:
        tiles = label_tiles(p, l)
        stride = len(parts) // (2 * l + 1)
        # by valuation: the join width and each label's offset and tile
        steps, width = [], below
        for v in range(l):
            width *= p
            labels = (2 * v + 1, 2 * v + 2) + ((0,) if v == l - 1 else ())
            steps.append((width, [(b * stride, repeat_bits(*tiles[b], width)) for b in labels]))
        unions = []
        for r in range(stride):
            acc, w = 0, below
            for width, labels in steps:
                if acc:
                    acc = repeat_bits(acc, w, width)
                w = width
                for offset, tile in labels:
                    if child := parts[r + offset]:
                        acc |= repeat_bits(child, below, width) & tile if below > 1 else tile
            unions.append(acc)
        parts, below = unions, width
    return parts[0]


def orbit_bits(s: int, factors) -> list[int] | None:
    """The bits with orbit_union(factors, bits) == s, read off s at one
    member per orbit, or None when s is no union of H-orbits of Z_d. The
    member is the CRT lift of 0 for label 0 and p^v u for label 1 + 2 v + c,
    u = 1 for c = 0 and the least nonsquare modulo p for c = 1."""
    d = math.prod(p**l for p, l in factors)
    members = [0]
    for p, l in factors:
        lift = d // p**l * pow(d // p**l, -1, p**l)
        u = nonsquare_table(p).index(1)
        xs = [0] + [p**v * c for v in range(l) for c in (1, u)]
        members = [(m + x * lift) % d for m in members for x in xs]
    data = s.to_bytes(d // 8 + 1, "little")
    bits = [data[m >> 3] >> (m & 7) & 1 for m in members]
    return bits if orbit_union(factors, bits) == s else None


def h_orbits(n: int) -> HOrbits:
    """Label every v in Z_n with its H-orbit.

    By CRT the orbit of v is the tuple of the orbits of v mod p^l
    (prime_power_labels), read as a mixed-radix number: each table, spread
    to native 4-byte items and tiled over Z_n, is one int, and the ints sum
    without carries. The labels are then renumbered by least member.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"H-orbits need an odd n >= 1, got {n}")
    order = sys.byteorder
    total, count = 0, 1
    for p, l in factorize(n):
        q = p**l
        items = bytearray(4 * q)
        items[(0 if order == "little" else 3) :: 4] = prime_power_labels(p, l)
        total += int.from_bytes(items * (n // q), order) * count
        count *= 2 * l + 1
    labels = memoryview(total.to_bytes(4 * n, order)).cast("I").tolist()
    # renumber by least member: dict keys keep first-occurrence order
    renumber = [0] * count
    for k, label in enumerate(dict.fromkeys(labels)):
        renumber[label] = k
    labels = list(map(renumber.__getitem__, labels))
    sizes = Counter(labels)
    reps = tuple(labels.index(k) for k in range(count))
    return HOrbits(labels, reps, tuple(sizes[k] for k in range(count)))


def enumerate_valid_moduli(max_n: int) -> list[Modulus]:
    """Every valid modulus with n <= max_n, ascending by n: the odd n whose
    factors pass the totient rule of validate_modulus."""
    out = []
    for n in range(3, max_n + 1, 2):
        factors = factorize(n)
        if not _totient_clash(factors):
            out.append(Modulus(tuple(factors), n))
    return out
