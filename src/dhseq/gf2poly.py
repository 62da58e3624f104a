"""Polynomials over GF(2) as Python integers, plus GF(2^m) field contexts.

Bit i of the integer is the coefficient of x^i, so the zero polynomial is 0
and leading coefficients are nonzero for free. degree() returns None for the
zero polynomial instead of a sentinel that could leak into arithmetic.
"""

from __future__ import annotations

import os

from . import numtheory
from .errors import BothZero, DegreeCapExceeded

DEFAULT_DEGREE_CAP = 64
_DEGREE_CAP_ENV = "DHSEQ_DEGREE_CAP"


def degree(a: int):
    """Degree of a, or None for the zero polynomial."""
    return a.bit_length() - 1 if a else None


def mul(a: int, b: int) -> int:
    """Carry-less (GF(2)) product."""
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def mod(a: int, b: int) -> int:
    """Remainder of a modulo b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    db = b.bit_length() - 1
    da = a.bit_length() - 1
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length() - 1
    return a


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a divided by b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    q = 0
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def gcd(a: int, b: int) -> int:
    """Greatest common divisor (monic comes for free over GF(2))."""
    if a == 0 and b == 0:
        raise BothZero()
    while b:
        a, b = b, mod(a, b)
    return a


def powmod(a: int, k: int, m: int) -> int:
    """a**k reduced modulo m."""
    if k < 0:
        raise ValueError("negative exponent")
    a = mod(a, m)
    acc = 1
    while k:
        if k & 1:
            acc = mod(mul(acc, a), m)
        a = mod(mul(a, a), m)
        k >>= 1
    return acc


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
    h = x
    for k in range(1, m + 1):
        h = mod(mul(h, h), f)
        if k in checkpoints and gcd(h ^ x, f) != 1:
            return False
    return h == x


def smallest_irreducible(m: int) -> int:
    """The degree-m irreducible with the smallest coefficient integer."""
    if m < 1:
        raise ValueError("degree must be positive")
    if m == 1:
        return 2
    for c in range((1 << m) + 1, 1 << (m + 1), 2):
        if is_irreducible(c):
            return c
    raise ArithmeticError(f"no irreducible polynomial of degree {m}")


def berlekamp_massey(packed: int, length: int) -> int:
    """Length of the shortest LFSR generating the first ``length`` bits of
    ``packed`` (bit i is s_i).

    Incremental-discrepancy form: the running products of the sequence with
    both connection polynomials are updated by whole-integer shifts and xors,
    which big-int arithmetic makes far cheaper than per-bit convolution. For
    a periodic sequence, call this on two concatenated periods.
    """
    if length < 1:
        raise ValueError("empty bit string")
    if packed < 0 or packed >> length:
        raise ValueError(f"packed bits do not fit in length {length}")
    sb = sc = packed
    L = 0
    gap = 0
    for i in range(length):
        disc = sc & (1 << gap)
        gap += 1
        if disc:
            sc >>= gap
            gap = 0
            if 2 * L <= i:
                sb, sc = sc, sb
                L = i + 1 - L
            sc ^= sb
    return L


def exponents(a: int) -> list[int]:
    """Exponents of the nonzero terms of a, ascending."""
    return [i for i, c in enumerate(format(a, "b")[::-1]) if c == "1"]


class BinaryField:
    """GF(2^m) with a fixed n-th root of unity alpha; elements are ints < 2^m.

    Immutable after construction; the power table for alpha is cached on
    first use and shared by every evaluation.
    """

    def __init__(self, n: int, m: int, modulus_poly: int, alpha: int):
        self.n = n
        self.m = m
        self.modulus_poly = modulus_poly
        self.alpha = alpha
        self._alpha_pow = None

    def mul(self, a: int, b: int) -> int:
        return mod(mul(a, b), self.modulus_poly)

    def pow(self, a: int, k: int) -> int:
        return powmod(a, k, self.modulus_poly)

    def alpha_powers(self) -> tuple[int, ...]:
        """alpha^0 .. alpha^(n-1)."""
        if self._alpha_pow is None:
            out = [1]
            for _ in range(self.n - 1):
                out.append(self.mul(out[-1], self.alpha))
            self._alpha_pow = tuple(out)
        return self._alpha_pow

    def alpha_power(self, k: int) -> int:
        return self.alpha_powers()[k % self.n]

    def subset_eval(self, exponents, v: int = 1) -> int:
        """Sum over the exponent set of alpha^(e*v)."""
        table = self.alpha_powers()
        n = self.n
        acc = 0
        for e in exponents:
            acc ^= table[e * v % n]
        return acc


def eval_poly(f: int, x: int, field: BinaryField) -> int:
    """Horner evaluation of f at the field element x."""
    d = degree(f)
    if d is None:
        return 0
    acc = 0
    for i in range(d, -1, -1):
        acc = field.mul(acc, x) ^ ((f >> i) & 1)
    return acc


def build_field(n: int, degree_cap: int | None = None) -> BinaryField:
    """GF(2^m) for the smallest m with 2^m = 1 (mod n), plus an order-n alpha.

    The modulus polynomial is the lexicographically smallest irreducible of
    degree m. alpha is e^((2^m - 1)/n) for the first base element e (by
    coefficient value, starting at x) whose power has order exactly n.
    """
    if degree_cap is None:
        degree_cap = int(os.environ.get(_DEGREE_CAP_ENV, DEFAULT_DEGREE_CAP))
    m = numtheory.order_of_two(n)
    if m > degree_cap:
        raise DegreeCapExceeded(n, m, degree_cap)
    f = smallest_irreducible(m)
    step = ((1 << m) - 1) // n
    nprimes = [p for p, _ in numtheory.factorize(n)]
    for e in range(2, 1 << m):
        a = powmod(e, step, f)
        if a == 1:
            continue
        if all(powmod(a, n // q, f) != 1 for q in nprimes):
            return BinaryField(n, m, f, a)
    raise ArithmeticError(f"no element of order {n} found in GF(2^{m})")
