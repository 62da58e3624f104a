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


def block_zero_counts(packed: int, n: int) -> dict[int, int]:
    """deg gcd(S mod Phi_d, Phi_d) for every d | n, n odd; x^n + 1 is then
    squarefree, so they sum to deg gcd(S, x^n + 1). One route per period:

    - Phi_n reducible and S a union of H-orbits (numtheory.orbit_bits
      accepts it): orbit_block_counts reads every block off the orbit bits;
    - else S_d = S mod (x^d + 1) is folded from S_dp, largest d first, and
      block 1 is the parity of S. An irreducible Phi_d (ord_d(2) = phi(d),
      so d = p^l) divides S_d exactly when its p chunks of w = p^(l-1) bits
      agree, as Phi_d(x) = Phi_p(x^w); any other block runs Euclid on
      (S_d mod Phi_d, Phi_d). Phi_n irreducible (n = p^e) makes every
      block so, and there the chunk tests cost less than a union read at n.

    Each irreducible factor of Phi_d has degree ord_d(2), so a count that is
    no multiple of it, or falls outside [0, phi(d)], raises MethodDisagreement.
    """
    factors = numtheory.factorize(n)
    blocks = numtheory.divisor_blocks(factors)
    phis = {d: math.prod(p ** (l - 1) * (p - 1) for p, l in f) for d, (f, _) in blocks.items()}
    if blocks[n][1] < phis[n] and (bits := numtheory.orbit_bits(packed, factors)) is not None:
        counts = orbit_block_counts(bits, factors)
    else:
        divisors = sorted(blocks)
        folded = {n: packed}
        for d in reversed(divisors[:-1]):
            p = next(p for p, _ in factors if n % (d * p) == 0)
            folded[d] = gf2poly.fold(folded[d * p], d)
        counts = {1: 1 - folded[1]}
        for d in divisors[1:]:
            dfactors, order = blocks[d]
            s = folded[d]
            if order == phis[d]:
                w = d // dfactors[0][0]
                counts[d] = phis[d] if s == numtheory.repeat_bits(s & ((1 << w) - 1), w, d) else 0
            else:
                dprimes = [p for p, _ in dfactors]
                r = gf2poly.cyclotomic_mod(s, d, dprimes)
                counts[d] = gf2poly.degree(gf2poly.gcd(r, gf2poly.cyclotomic(d, dprimes)))
    for d, count in counts.items():
        order, phi = blocks[d][1], phis[d]
        if count % order or not 0 <= count <= phi:
            raise MethodDisagreement(
                f"block Phi_{d} has {count} common roots, not a multiple of"
                f" ord_{d}(2) = {order} between 0 and phi({d}) = {phi}"
            )
    return counts


def orbit_block_counts(bits, factors) -> dict[int, int]:
    """deg gcd(S mod Phi_d, Phi_d) for every d | n, S the union of the
    H-orbits of Z_n whose entry in bits is 1 (numtheory.orbit_bits), n
    given by its (prime, exponent) pairs (p_j, e_j).

    S is H-invariant and 4 is in H, so S(z)^4 = S(z): every value lies in
    GF(4) = {0, 1, w, w^2}, held as the ints 0..3 with xor for addition.
    The primitive d-th roots z = prod of z_j, z_j a primitive p_j^l_j-th
    root, form 2^omega(d) H-orbits of phi(d) / 2^omega(d) roots, one per
    signature (c_j), c_j = chi_p_j of z's unit. By CRT S(z) is the sum, over
    the orbits (b_j) of S, of the products of T_j[b_j], the sum of z_j^x
    over label b_j of numtheory.prime_power_labels(p_j, e_j):

    - T_j[0] = 1 (x = 0);
    - a label 1 + 2 v + a with v >= l_j has z_j^x = 1 at all of its
      (p_j - 1)/2 * p_j^(e_j - v - 1) members, an odd multiple of
      (p_j - 1)/2, so it sums to h_j = ((p_j - 1)/2) mod 2;
    - at v = l_j - 1 it is a Gauss period of p_j: eta_j xor a xor c_j, where
      eta_j is taken as 0 for p_j = +-1 (mod 8) (2 is a square, so it lies
      in GF(2)) and w otherwise. Another choice fixes z_j up to a nonsquare
      power, which only permutes the signatures, so no count changes;
    - v < l_j - 1 sums to 0: its x = p^v u fall into the classes
      u = u_0 + p m of one residue u_0 mod p, and each class sums
      z_j^(p^v u_0) times all the p^(l_j - v - 1)-th roots of unity.

    One pass per prime, the last (the fastest index of bits) first, maps
    each group of 2 e_j + 1 entries, for each l_j in 0..e_j, to its value
    (l_j = 0) or its values at c_j = 0, then c_j = 1, so the next prime's
    labels stay contiguous. Partial results are keyed by (d so far,
    unit-orbit size so far): each choice of the earlier exponents shares
    the passes made, and a block's count is its zeros times that size.
    """
    mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    partial = {(1, 1): bits}
    for p, e in reversed(factors):
        eta, h, k = (0 if p % 8 in (1, 7) else 2), (p - 1) // 2 % 2, 2 * e + 1
        step = {}
        for (d, size), values in partial.items():
            cols = [values[i::k] for i in range(k)]
            high = [0] * len(cols[0])
            for l in range(e, 0, -1):
                low, top = cols[2 * l - 1], cols[2 * l]
                out = []
                for c in (0, 1):
                    t0, t1 = mul[eta ^ c], mul[eta ^ c ^ 1]
                    out += [x ^ t0[a] ^ t1[b] ^ y for x, a, b, y in zip(cols[0], low, top, high)]
                step[d * p**l, size * p ** (l - 1) * (p - 1) // 2] = out
                if h:
                    high = [y ^ a ^ b for y, a, b in zip(high, low, top)]
            step[d, size] = [x ^ y for x, y in zip(cols[0], high)]
        partial = step
    return {d: values.count(0) * size for (d, size), values in partial.items()}


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
                f"the exponent set is not a union of H-orbits, and a full spectral sweep"
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
