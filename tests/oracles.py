"""Slow, independent reference forms of what the package computes fast.

These are the per-index and per-bit routes the package used before a period
became one packed int; tests compare the fast routes against them.
"""

import math


def from_bits(bits) -> int:
    """Pack an iterable of 0/1 values, index i to coefficient of x^i."""
    acc = 0
    for i, b in enumerate(bits):
        if int(b):
            acc |= 1 << i
    return acc


def to_bits(packed: int, n: int) -> tuple[int, ...]:
    """The n bits of a packed period, s_0 first."""
    return tuple((packed >> i) & 1 for i in range(n))


def one_positions(packed: int) -> set[int]:
    return {i for i in range(packed.bit_length()) if (packed >> i) & 1}


def residue_class(x: int, p: int, e: int) -> int:
    """0 if the unit x is a square modulo p**e, 1 otherwise (Euler's criterion)."""
    q = p**e
    phi = q // p * (p - 1)
    r = pow(x % q, phi // 2, q)
    if r == 1:
        return 0
    if r == q - 1:
        return 1
    raise ValueError(f"{x} is not a unit modulo {q}")


def class_index(x: int, factors, a_d) -> int:
    """Class (0 or 1) of the unit x in Z_d* under the vector a_d."""
    parity = 0
    for (p, e), a in zip(factors, a_d):
        if a:
            parity ^= residue_class(x, p, e)
    return parity


def generate_by_index(modulus, assignment) -> int:
    """The packed period built index by index: the class of the unit part
    of i in its own block n/gcd(i, n), and 1 at index 0."""
    n = modulus.n
    facs = {d: modulus.divisor_factorization(d) for d in modulus.divisors_gt1()}
    vecs = {d: assignment.vector_for(d) for d in facs}
    bits = [0] * n
    bits[0] = 1
    for i in range(1, n):
        g = math.gcd(i, n)
        d = n // g
        bits[i] = class_index(i // g, facs[d], vecs[d])
    return int("".join(map(str, reversed(bits))), 2)
