"""Linear complexity of a period by three independent methods, and the
spectral engine that the spectral method and the lemma checks share.

Every method takes a sequence.Period (bit i of .packed is s_i, length .n),
the one record that generate and parse_bit_line both return, so a period
read from disk gets the same treatment as a generated one.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

from . import gf2poly, numtheory
from .errors import DHSeqError, MethodDisagreement
from .gf2poly import BinaryField


def lincomp_bm(seq) -> int:
    """Shortest-LFSR length, measured on two concatenated periods."""
    n, s = seq.n, seq.packed
    return gf2poly.berlekamp_massey(s | s << n, 2 * n)


def lincomp_gcd(seq) -> int:
    """n minus the degree of gcd(S, x^n + 1).

    For odd n the gcd is taken block by block over x^n + 1 = the product of
    the Phi_d, d | n (block_zero_counts); an even n, whose x^n + 1 is not
    squarefree, runs one Euclid on (S, x^n + 1).
    """
    n = seq.n
    if n % 2:
        zero_count = sum(block_zero_counts(seq.packed, n).values())
    else:
        zero_count = gf2poly.gcd(seq.packed, (1 << n) | 1).bit_length() - 1
    return n - zero_count


# The rank route starts at d = _RANK_FLOOR: with every reducible block on
# it, lincomp_gcd took 1.6 times as long over the 995 survey periods (n <=
# 2000) and 2.4 times over the 12 verify periods (to 3309); with the pivot
# rank, floors of 0, 500 and 1000 still cost 1.9, 1.3 and 1.2 times as much
# over the survey's n (2-vCPU host, Python 3.11). 4608 lies above every
# block of those. p = +-3 (mod 8) prime powers take the zero test at any d.
_RANK_FLOOR = 4608


def block_zero_counts(packed: int, n: int) -> dict[int, int]:
    """deg gcd(S mod Phi_d, Phi_d) for every d | n, n odd.

    x^n + 1 is squarefree for odd n, so these sum to deg gcd(S, x^n + 1).
    S_d = S mod (x^d + 1) is folded from S_dp for a prime p, largest d
    first; then each block, smallest d first, takes the cheapest exact route:

    - block 1 is the parity of S;
    - a zero test when S vanishes at every primitive d-th root of unity or
      at none: when Phi_d is irreducible (ord_d(2) = phi(d), so d = p^l),
      or, at any size, when d = p^l, S_d is a union of H-orbits
      (numtheory.orbit_bits) and p = +-3 (mod 8), so that 2 is a nonsquare
      and the Frobenius and H generate Z_d*. As Phi_d(x) = Phi_p(x^w),
      w = p^(l-1), Phi_d divides S_d exactly when its p w-bit chunks agree;
    - else, when d >= _RANK_FLOOR and S_d is a union of H-orbits,
      orbit_kernel counts K(d), the H-orbits of d-th roots of unity where
      S vanishes. Those of order e | d number z(e) = count(e) *
      2^omega(e) / phi(e), so the count is (K(d) - the sum of z(e) over
      e | d, e < d) * phi(d) / 2^omega(d);
    - otherwise Euclid runs on (S_d mod Phi_d, Phi_d).

    Each irreducible factor of Phi_d has degree ord_d(2), so a count that is
    no multiple of it, or falls outside [0, phi(d)], raises MethodDisagreement.
    """
    factors = numtheory.factorize(n)
    primes = [p for p, _ in factors]
    blocks = numtheory.divisor_blocks(factors)
    divisors = sorted(blocks)
    folded = {n: packed}
    for d in reversed(divisors[:-1]):
        p = next(p for p in primes if n % (d * p) == 0)
        folded[d] = gf2poly.fold(folded[d * p], d)
    counts = {1: 1 - folded[1]}
    orbit_zeros = {1: counts[1]}  # z(e) of the blocks done so far
    for d in divisors[1:]:
        dfactors, order = blocks[d]
        phi = math.prod(p ** (l - 1) * (p - 1) for p, l in dfactors)
        size = phi >> len(dfactors)  # phi(d) / 2^omega(d), one H-orbit of units
        s, p = folded[d], dfactors[0][0]
        if order == phi or (
            len(dfactors) == 1 and p % 8 in (3, 5) and numtheory.orbit_bits(s, dfactors)
        ):
            w = d // p
            count = phi if s == numtheory.repeat_bits(s & ((1 << w) - 1), w, d) else 0
        elif d >= _RANK_FLOOR and (kernel := orbit_kernel(s, d, dfactors)) is not None:
            count = (kernel - sum(z for e, z in orbit_zeros.items() if d % e == 0)) * size
        else:
            dprimes = [p for p, _ in dfactors]
            r = gf2poly.cyclotomic_mod(s, d, dprimes)
            count = gf2poly.degree(gf2poly.gcd(r, gf2poly.cyclotomic(d, dprimes)))
        if count % order or not 0 <= count <= phi:
            raise MethodDisagreement(
                f"block Phi_{d} has {count} common roots, not a multiple of"
                f" ord_{d}(2) = {order} between 0 and phi({d}) = {phi}"
            )
        counts[d] = count
        orbit_zeros[d] = count // size
    return counts


def orbit_kernel(s: int, d: int, factors) -> int | None:
    """K(d): the number of H-orbits of d-th roots of unity where S_d
    vanishes, for S_d = s of degree below d and d given by its (prime,
    exponent) pairs; None when S_d is not a union of H-orbits of Z_d.

    An H-invariant S_d lies in the algebra spanned by the orbit sums
    theta_B of GF(2)[x]/(x^d + 1), and multiplication by it is a k x k
    matrix over GF(2), k the number of orbits: entry (C, B), the
    coefficient of x^c in S_d * theta_B for any c in C, is the parity of
    |S_d & (c - B)|. Over a field holding the d-th roots of unity that
    algebra is the functions on the orbits, so the kernel dimension
    k - rank counts the orbits where S vanishes. The columns are built over
    A = -B, which only reorders them.

    By CRT an orbit is one label of numtheory.prime_power_labels per prime
    power q || d, and |O & (c + A)| is the product over q of the counts in
    Z_q. So the matrix is the xor, over the orbits O of S_d, of the
    Kronecker products of the q-tables numtheory.label_sum_parities gives
    at the labels of O, summed over a trie with one level per prime power.
    The only d-bit work is numtheory.orbit_bits, which ends the route when
    an orbit meets S_d in part (the test lincomp.spectrum makes).
    """
    bits = numtheory.orbit_bits(s, factors)
    if bits is None:
        return None
    w, levels = len(bits), []
    for p, l in factors:
        # w is the row width of the levels below and this label's stride in
        # bits. Bit a of row c of a label's table is spread to bit a * w, so
        # the Kronecker product with a w-bit row r is r times the spread row
        w //= 2 * l + 1
        steps = [1 << a * w for a in range(2 * l + 1)]
        tables = [
            [sum(step for a, step in enumerate(steps) if row >> a & 1) for row in rows]
            for rows in numtheory.label_sum_parities(p, l)
        ]
        levels.append((tables, w))
    # the sums below each trie node, from the leaves (one orbit's bit each)
    # up: a node adds, over its labels whose sum below is not zero, the
    # Kronecker product of the label's table with that sum
    sums = [[bit] for bit in bits]
    for tables, w in reversed(levels):
        size, below = len(tables), sums
        sums = []
        for node in range(0, len(below), size):
            total = [0] * (size * w)
            for table, rest in zip(tables, below[node : node + size]):
                if any(rest):
                    for c, spread in enumerate(table):
                        if spread:
                            for i, r in enumerate(rest, c * w):
                                total[i] ^= r * spread
            sums.append(total)
    return len(bits) - gf2poly.rank(sums[0])


class Spectrum:
    """S(alpha^v), the sum over an exponent set of alpha^(e*v), for every v
    in Z_n, held as one value per orbit.

    When the set is a union of H-orbits (reduced) the orbits are those of
    BinaryField.orbits() and S is constant on each, so the values are built
    from the field's orbit sums; otherwise every v is its own orbit and is
    evaluated by BinaryField.subset_eval. Either way reps[k] is the least
    member of orbit k, ascending, values[k] = S(alpha^reps[k]), and
    labels[v] is the orbit of v. (A plain class, not a NamedTuple like the
    other records: as a tuple, its spec[v] would shadow field indexing.)
    """

    __slots__ = ("reduced", "reps", "values", "labels")

    def __init__(
        self, reduced: bool, reps: Sequence[int], values: tuple[int, ...], labels: Sequence[int]
    ):
        self.reduced = reduced
        self.reps = reps
        self.values = values
        self.labels = labels

    def __getitem__(self, v: int) -> int:
        return self.values[self.labels[v]]


def _orbit_cover(exps, orbits: numtheory.HOrbits) -> list[int] | None:
    """The H-orbits whose union is a set of distinct exponents in [0, n),
    or None when the set meets some orbit in part, by an O(|exps|) count of
    hits per orbit."""
    hits = Counter(map(orbits.labels.__getitem__, exps))
    if all(orbits.sizes[k] == count for k, count in hits.items()):
        return list(hits)
    return None


# a period that is no union of H-orbits (only a raw one can be) costs n
# evaluations of O(n) each: lincomp took 0.8 s at n = 4095, 3.6 s at 8191
# and 54 s at 32767 (Python 3.11.7, 2 vCPUs), so the sweep stops
MAX_FULL_SWEEP = 4095


def spectrum(exps, field: BinaryField) -> Spectrum:
    """Evaluate S(alpha^v) for a set of distinct exponents in [0, n).

    When the set is a union of H-orbits (_orbit_cover), S is reduced to
    one value per orbit, built from the field's orbit sums P: multiplying
    by r maps an orbit O = H*o onto the orbit rO of r*o, every member of
    rO hit |O|/|rO| times (the fibres are cosets of the stabiliser of o),
    so S(alpha^r) is the xor of P[rO] over the orbits O of the set with
    |O|/|rO| odd. That is O(k * k_E) small-int work for k orbits, k_E of
    them in the set. Any other set, which only a raw period or a tampered
    class is, takes field.subset_eval at all n values; above MAX_FULL_SWEEP
    it raises DHSeqError first, so a lemma check given one exits 2.
    """
    orbits = field.orbits()
    cover = _orbit_cover(exps, orbits)
    if cover is None:
        if field.n > MAX_FULL_SWEEP:
            raise DHSeqError(
                f"the period is not a union of H-orbits, and a full spectral sweep"
                f" at n={field.n} is refused above n={MAX_FULL_SWEEP}"
            )
        reps = range(field.n)
        return Spectrum(False, reps, tuple(field.subset_eval(exps, r) for r in reps), reps)
    n, labels, sizes, sums = field.n, orbits.labels, orbits.sizes, field.orbit_sums()
    members = [(orbits.reps[j], sizes[j]) for j in cover]
    values = []
    for r in orbits.reps:
        acc = 0
        for o, size in members:
            j = labels[r * o % n]
            if size // sizes[j] & 1:
                acc ^= sums[j]
        values.append(acc)
    return Spectrum(True, orbits.reps, tuple(values), labels)


def common_reps(*spectra: Spectrum) -> Sequence[int]:
    """The v a check over these spectra must visit, ascending.

    A property of v built from reduced spectra (at v and at unit multiples
    of v) is constant on H-orbits, so the orbit minima suffice, and the
    first failing minimum is the first failing v. One spectrum that is not
    reduced forces every v.
    """
    if all(s.reduced for s in spectra):
        return spectra[0].reps
    return range(len(spectra[0].labels))


def spectral_values(seq, field: BinaryField) -> list[int]:
    """S(alpha^v) for v = 0..n-1. A full sweep above MAX_FULL_SWEEP raises
    DHSeqError before it starts (spectrum)."""
    if field.n != seq.n:
        raise ValueError(f"field is for n={field.n}, sequence has n={seq.n}")
    spec = spectrum(gf2poly.exponents(seq.packed), field)
    return list(map(spec.values.__getitem__, spec.labels))


def lincomp_spectral(seq, field: BinaryField) -> int:
    """Root-counting form: n minus the count of v with S(alpha^v) = 0."""
    return seq.n - spectral_values(seq, field).count(0)
