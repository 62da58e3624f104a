"""Polynomials over GF(2) as Python integers, plus GF(2^m) field contexts.

Bit i of the integer is the coefficient of x^i, so the zero polynomial is 0
and leading coefficients are nonzero for free. degree() returns None for the
zero polynomial instead of a sentinel that could leak into arithmetic.
"""

from __future__ import annotations

import functools
from itertools import compress

from . import numtheory
from .errors import BothZero, DegreeCapExceeded

DEFAULT_DEGREE_CAP = 64
# build_field's irreducible search grows fast with m: about 0.9 s at m = 258
# and 2 min at m = 1018 (Python 3.11, 2 vCPUs)
MAX_DEGREE_CAP = 256

_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def degree(a: int):
    """Degree of a, or None for the zero polynomial."""
    return a.bit_length() - 1 if a else None


def square(a: int) -> int:
    """a^2 = a(x^2) over GF(2): bit i moves to bit 2i, done at C speed by
    reading the binary digits of a as base-4 digits."""
    return int(format(a, "b"), 4)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor (monic comes for free over GF(2))."""
    if a == 0 and b == 0:
        raise BothZero()
    # long division, one shift-xor per leading bit, with each degree carried
    # across the swap
    da, db = a.bit_length(), b.bit_length()
    while b:
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b, da, db = b, a, db, da
    return a


def fold(a: int, d: int) -> int:
    """a modulo x^d + 1: the xor of its d-bit chunks, taken by halving the
    chunk count at each step (x^(kd) = 1 modulo x^d + 1)."""
    chunks = -(-a.bit_length() // d)
    while chunks > 1:
        chunks = (chunks + 1) // 2
        a = (a & ((1 << chunks * d) - 1)) ^ (a >> chunks * d)
    return a


def _cyclotomic_terms(d: int, primes) -> list[tuple[int, int]]:
    """Phi_d as a Moebius product of (x^e + 1)^mu(d/e): the pairs (e, mu(d/e))
    over the e | d with d/e squarefree, given the distinct primes of d.
    The first pair is (d, 1)."""
    terms = [(d, 1)]
    for p in primes:
        terms += [(e // p, -mu) for e, mu in terms]
    return terms


def cyclotomic(d: int, primes) -> int:
    """Phi_d over GF(2), given the distinct primes of d."""
    terms = _cyclotomic_terms(d, primes)
    return _mobius_product(1, terms, sum(e * mu for e, mu in terms) + 1)


def _mobius_product(a: int, terms, length: int) -> int:
    """a times the product of (x^e + 1)^sign over (e, sign) in terms,
    modulo x^length.

    Each multiplication is one shift-xor. Each division is a multiplication
    by the power series 1/(1 + x^e) = (1 + x^e)(1 + x^2e)(1 + x^4e)...,
    a stride-e prefix xor done by doubling; when the true product is a
    polynomial of degree below length, the truncated result is exact.
    """
    mask = (1 << length) - 1
    a &= mask
    for e, sign in terms:
        if sign > 0:
            a = (a ^ (a << e)) & mask
        else:
            while e < length:
                a = (a ^ (a << e)) & mask
                e <<= 1
    return a


def cyclotomic_mod(a: int, d: int, primes) -> int:
    """a modulo Phi_d for a of degree below d, without dividing by the dense
    Phi_d: with Psi_d = (x^d + 1)/Phi_d, the quotient is (a * Psi_d) >> d,
    since a * Psi_d = q (x^d + 1) + r Psi_d with deg(r Psi_d) < d."""
    terms = _cyclotomic_terms(d, primes)
    psi = [(e, -mu) for e, mu in terms[1:]]
    q = _mobius_product(a, psi, 2 * d) >> d
    return a ^ _mobius_product(q, terms, d)


def is_irreducible(f: int) -> bool:
    """Rabin's criterion: x^(2^m) = x mod f and, for every prime q | m,
    gcd(x^(2^(m/q)) - x, f) = 1."""
    m = degree(f)
    if m is None or m == 0:
        return False
    if m == 1:
        return True
    x = 2
    checkpoints = {m // q for q, _ in numtheory.factorize(m)}
    reduce = _reducer(f)
    h = x
    for k in range(1, m + 1):
        h = reduce(square(h))
        if k in checkpoints and gcd(h ^ x, f) != 1:
            return False
    return h == x


# the longest walk over m = 2..256 tests 531 candidates (m = 256), 8x below
# this bound, which ends a wrong is_irreducible's walk in an error, not a hang
_MAX_IRREDUCIBLE_WALK = 4096


@functools.cache
def smallest_irreducible(m: int) -> int:
    """The degree-m irreducible with the smallest coefficient integer
    (cached: surveys ask for the same few degrees on every row)."""
    if m < 1:
        raise ValueError("degree must be positive")
    if m == 1:
        return 2
    for c in range((1 << m) + 1, 1 << (m + 1), 2)[:_MAX_IRREDUCIBLE_WALK]:
        if is_irreducible(c):
            return c
    raise ArithmeticError(f"no irreducible of degree {m} in {_MAX_IRREDUCIBLE_WALK} candidates")


# _LOW_BIT[v] = (v & -v).bit_length(): one past the index of the lowest set
# bit of the byte v, and 0 (a miss) for v = 0
_LOW_BIT = bytes((v & -v).bit_length() for v in range(256))


def berlekamp_massey(packed: int, length: int) -> int:
    """Length of the shortest LFSR generating the first ``length`` bits of
    ``packed`` (bit i is s_i).

    Incremental-discrepancy form: the running products of the sequence with
    both connection polynomials are updated by whole-integer shifts and xors,
    which big-int arithmetic makes far cheaper than per-bit convolution.
    The state changes only at a nonzero discrepancy (Massey 1969), and the
    discrepancies still ahead are the bits of sc, so each iteration jumps
    straight to the lowest set bit of sc: a 256-entry table on its low byte,
    or (sc & -sc).bit_length() when that byte is zero. For a periodic
    sequence, call this on two concatenated periods.
    """
    if length < 1:
        raise ValueError("empty bit string")
    if packed < 0 or packed >> length:
        raise ValueError(f"packed bits do not fit in length {length}")
    sb = sc = packed
    # bit 0 of sc stands for position i; the next nonzero discrepancy, at
    # i + step - 1, moves it to i + step
    L = i = 0
    while sc:
        step = _LOW_BIT[sc & 255] or (sc & -sc).bit_length()
        i += step
        if i > length:
            break
        sc >>= step
        if 2 * L < i:
            sb, sc = sc, sb
            L = i - L
        sc ^= sb
    return L


def exponents(a: int) -> list[int]:
    """Exponents of the nonzero terms of a, ascending, picked at C speed by
    compressing the range with the binary digits of a read as 0/1 bytes."""
    digits = format(a, "b")[::-1].encode("ascii").translate(_DIGIT_BYTES)
    return list(compress(range(a.bit_length()), digits))


class BinaryField:
    """GF(2^m) as GF(2)[x]/(g), g the minimal polynomial of a fixed n-th root
    of unity alpha, so alpha = x; elements are ints < 2^m.

    Immutable after construction. Four tables are cached on first use and
    shared by every evaluation: the n powers of alpha, the H-orbits of Z_n,
    the k orbit sums (the Gauss periods) that reduced spectra are built
    from, and the byte table that reduces products modulo g.
    """

    alpha = 2  # x

    def __init__(self, n: int, m: int, modulus_poly: int):
        self.n = n
        self.m = m
        self.modulus_poly = modulus_poly
        self._alpha_pow = None
        self._orbits = None
        self._orbit_sums = None
        self._reduce = None

    def mul(self, a: int, b: int) -> int:
        """The product of two field elements; 0 and 1 need no reduction."""
        if a <= 1 or b <= 1:
            return a * b
        if self._reduce is None:
            self._reduce = _reducer(self.modulus_poly)
        return self._reduce(_times(a)(b))

    def alpha_powers(self) -> tuple[int, ...]:
        """alpha^0 .. alpha^(n-1): since alpha = x, each power is the last
        one shifted left and reduced by one xor, an LFSR run on g."""
        if self._alpha_pow is None:
            g = self.modulus_poly
            m = self.m
            out = [1] * self.n
            x = 1
            for i in range(1, self.n):
                x <<= 1
                if x >> m:
                    x ^= g
                out[i] = x
            self._alpha_pow = tuple(out)
        return self._alpha_pow

    def orbits(self) -> numtheory.HOrbits:
        """The H-orbits of Z_n, on which every spectrum of a union of
        orbits is constant."""
        if self._orbits is None:
            self._orbits = numtheory.h_orbits(self.n)
        return self._orbits

    def orbit_sums(self) -> tuple[int, ...]:
        """P[j], the sum of alpha^e over the members e of H-orbit j, in one
        pass over the power table and the orbit labels."""
        if self._orbit_sums is None:
            sums = [0] * len(self.orbits().reps)
            for power, label in zip(self.alpha_powers(), self.orbits().labels):
                sums[label] ^= power
            self._orbit_sums = tuple(sums)
        return self._orbit_sums

    def subset_eval(self, exponents, v: int = 1) -> int:
        """Sum over the exponent set of alpha^(e*v)."""
        table = self.alpha_powers()
        n = self.n
        acc = 0
        for e in exponents:
            acc ^= table[e * v % n]
        return acc


def resolve_degree_cap(degree_cap: int | None) -> int:
    """DEFAULT_DEGREE_CAP for None, else the cap itself; ValueError outside
    1..MAX_DEGREE_CAP."""
    if degree_cap is None:
        return DEFAULT_DEGREE_CAP
    if not 1 <= degree_cap <= MAX_DEGREE_CAP:
        raise ValueError(f"degree cap {degree_cap} is outside 1..{MAX_DEGREE_CAP}")
    return degree_cap


def _xor_span(entries) -> list[int]:
    """The xor-combinations of the entries: index v holds the xor of the
    entries at the set bits of v."""
    table = [0]
    for entry in entries:
        table += [t ^ entry for t in table]
    return table


def _reducer(f: int):
    """x -> x mod f for the fixed f of degree m, eight bits per step.

    Entry v of the table is (v x^m) xor (v x^m mod f): xored in at shift s,
    it clears the byte v at bits m + s.. and adds its remainder below. The
    table is linear in v, so it is the xor-span of its 8 single-bit entries
    x^(m+j) + (x^(m+j) mod f).
    """
    m = f.bit_length() - 1
    entries = []
    r = f ^ (1 << m)  # x^m mod f
    for j in range(8):
        entries.append((1 << (m + j)) ^ r)
        r <<= 1
        if r >> m:
            r ^= f
    table = _xor_span(entries)

    def reduce(x: int) -> int:
        s = x.bit_length() - m
        while s > 0:
            s = s - 8 if s > 8 else 0
            x ^= table[x >> (m + s)] << s
        return x

    return reduce


def _times(a: int):
    """x -> the carry-less product x * a, four bits of x per step through
    the 16 products of a with a nibble."""
    window = _xor_span([a, a << 1, a << 2, a << 3])

    def times(x: int) -> int:
        acc = shift = 0
        while x:
            acc ^= window[x & 15] << shift
            x >>= 4
            shift += 4
        return acc

    return times


def _power(a: int, k: int, reduce) -> int:
    """a**k modulo the f of reduce, for a reduced a and k >= 1, by
    square-and-multiply from the top bit of k."""
    times = _times(a)
    acc = a
    for bit in format(k, "b")[1:]:
        acc = reduce(square(acc))
        if bit == "1":
            acc = reduce(times(acc))
    return acc


def _minimal_polynomial(a: int, reduce, m: int) -> int:
    """The minimal polynomial over GF(2) of a, in the degree-m field that
    reduce works in: the first linear dependency among 1, a, a^2, ...,
    found by eliminating each power against the earlier ones while tracking
    which powers were combined."""
    times = _times(a)
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, combination)
    power = 1
    for k in range(m + 1):
        v, combo = power, 1 << k
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = (v, combo)
                break
            bv, bc = basis[top]
            v ^= bv
            combo ^= bc
        else:
            return combo
        power = reduce(times(power))
    raise ArithmeticError(f"no dependency among the first {m + 1} powers")


def build_field(n: int, degree_cap: int | None = None) -> BinaryField:
    """GF(2^m) for the smallest m with 2^m = 1 (mod n), on the minimal
    polynomial of an order-n alpha, so that alpha = x.

    alpha is found in the lexicographically smallest irreducible f of degree
    m, as e^((2^m - 1)/n) for the first base element e (by coefficient value,
    starting at x) whose power has order exactly n; the modulus is then its
    minimal polynomial, which has degree m. Products are reduced modulo f
    through a byte table and multiplied by each fixed base through a nibble
    window, both built for this call. A cap outside 1..MAX_DEGREE_CAP
    raises ValueError.
    """
    degree_cap = resolve_degree_cap(degree_cap)
    m = numtheory.order_of_two(n)
    if m > degree_cap:
        raise DegreeCapExceeded(n, m, degree_cap)
    reduce = _reducer(smallest_irreducible(m))
    step = ((1 << m) - 1) // n
    nprimes = [p for p, _ in numtheory.factorize(n)]
    for e in range(2, 1 << m):
        a = _power(e, step, reduce)
        if a == 1:
            continue
        if all(_power(a, n // q, reduce) != 1 for q in nprimes):
            return BinaryField(n, m, _minimal_polynomial(a, reduce, m))
    raise ArithmeticError(f"no element of order {n} found in GF(2^{m})")
