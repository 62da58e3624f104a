"""Slow, independent reference forms of what the package computes fast.

These are the per-index and per-bit routes the package used before a period
became one packed int, the classes built from powers of a primitive root
(the package decides every class from the chi_p tables instead), the per-v
spectral sweeps the checks used before they shared the orbit-reduced
engine, that engine's per-representative sums from before it read the
field's orbit sums, the one-shot Euclid the gcd route ran before it split x^n + 1
into cyclotomic blocks, a per-block Euclid for the blocks the rank route
counts, the rank route's d-bit matrix build from before the per-prime-power
parity tables and a count of those tables, the GF(2^m) the spectral route
used before it was re-based on the minimal polynomial of alpha, the
Miller-Rabin primality test the package used before it tested primes by
factorization, the odd-index-tuple enumeration lemma3 expanded before its
parity pass, the per-bit Berlekamp-Massey loop from before it jumped
between nonzero discrepancies, a Euclid and a Rabin irreducibility test
on long division (every oracle reduces by divmod_), the generic
powmod and minimal-polynomial route build_field took before its reduction
table and multiply window, and small helpers only tests need; tests
compare the fast routes against them.
"""

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from dhseq import gf2poly, lincomp, numtheory, sequence
from dhseq.cyclotomy import VectorAssignment
from dhseq.errors import DHSeqError, ZeroVector
from dhseq.theorems import CheckVerdict, crt_split


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


# --- primality ---------------------------------------------------------------

# Witness set proving primality for every integer below 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n < 2:
        return False
    if n in _MR_WITNESSES:
        return True
    if any(n % p == 0 for p in _MR_WITNESSES):
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- classes from powers of a primitive root ---------------------------------


class NotPrimitiveRoot(DHSeqError):
    def __init__(self, g: int, modulus: int):
        super().__init__(f"{g} is not a primitive root modulo {modulus}")
        self.g = g
        self.modulus = modulus


@dataclass(frozen=True)
class PrimePowerClasses:
    """Squares subgroup d0 of Z_{p^e}* and its nonsquare coset d1 = g*d0."""

    prime_power: int
    d0: tuple[int, ...]
    d1: tuple[int, ...]


def prime_power_classes(p: int, e: int, g: int) -> PrimePowerClasses:
    """Split Z_{p^e}* into the subgroup generated by g^2 and its coset."""
    q = p**e
    phi = q // p * (p - 1)
    g %= q
    if g % p == 0 or numtheory.multiplicative_order(g, q) != phi:
        raise NotPrimitiveRoot(g, q)
    g2 = g * g % q
    d0 = []
    x = 1
    for _ in range(phi // 2):
        d0.append(x)
        x = x * g2 % q
    d1 = tuple(sorted(g * y % q for y in d0))
    return PrimePowerClasses(q, tuple(sorted(d0)), d1)


@dataclass(frozen=True)
class ClassPair:
    """The two generalized classes of Z_d* selected by the vector a_d.

    coset_rep is the deterministic b with d1 = b*d0, chosen as
    (min d1) * (min d0)^-1 mod d.
    """

    d: int
    a_d: tuple[int, ...]
    d0: tuple[int, ...]
    d1: tuple[int, ...]
    coset_rep: int


def classes_by_root(factors, a_d, roots=None) -> ClassPair:
    """Both classes of Z_d*, from the per-factor classes of primitive roots.

    A unit lands in class j when the parity of (per-factor nonsquare
    indicators) dotted with a_d is j. roots may supply per-factor primitive
    roots; the classes do not depend on that choice, which the
    NotPrimitiveRoot check keeps honest.
    """
    factors = tuple(factors)
    a_d = tuple(a_d)
    if len(a_d) != len(factors):
        raise ValueError("one vector coordinate per distinct prime required")
    if not any(a_d):
        raise ZeroVector(a_d)
    if roots is None:
        roots = tuple(numtheory.primitive_root(p, e) for p, e in factors)
    per_factor = [prime_power_classes(p, e, g) for (p, e), g in zip(factors, roots)]
    nonsquares = [frozenset(c.d1) for c in per_factor]
    qs = [p**e for p, e in factors]
    d = math.prod(qs)
    d0, d1 = [], []
    for x in range(1, d):
        if math.gcd(x, d) != 1:
            continue
        parity = 0
        for q, a, ns in zip(qs, a_d, nonsquares):
            if a and x % q in ns:
                parity ^= 1
        (d1 if parity else d0).append(x)
    b = d1[0] * pow(d0[0], -1, d) % d
    return ClassPair(d, a_d, tuple(d0), tuple(d1), b)


def global_partition(modulus, assignment):
    """The partition (C0, C1) of Z_n; 0 always lands in C1."""
    n = modulus.n
    c0: set[int] = set()
    c1: set[int] = {0}
    for d in modulus.divisors_gt1():
        pair = classes_by_root(modulus.divisor_factorization(d), assignment.vector_for(d))
        k = n // d
        c0.update(k * x % n for x in pair.d0)
        c1.update(k * x % n for x in pair.d1)
    return frozenset(c0), frozenset(c1)


def crt_view(x: int, modulus) -> tuple[int, ...]:
    """Residues of x modulo each prime-power factor, ascending primes."""
    return tuple(x % q for q in modulus.prime_powers())


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a modulo an odd prime p, via Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2) polynomials a / b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    q = 0
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def gcd_by_divmod(a: int, b: int) -> int:
    """Euclid with every remainder taken by divmod_."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return a


def is_irreducible_by_division(f: int) -> bool:
    """gf2poly.is_irreducible by Rabin's criterion with every remainder
    taken by divmod_, every gcd by gcd_by_divmod and the primes of the
    degree by trial division."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    checkpoints = {m // q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))}
    x = divmod_(2, f)[1]
    h = x
    for k in range(1, m + 1):
        h = divmod_(gf2poly.mul(h, h), f)[1]
        if k in checkpoints and gcd_by_divmod(f, h ^ x) != 1:
            return False
    return h == x


def powmod(a: int, k: int, m: int) -> int:
    """a**k reduced modulo m, by square-and-multiply with a generic multiply
    and reduction at every step."""
    if k < 0:
        raise ValueError("negative exponent")
    a = divmod_(a, m)[1]
    acc = 1
    while k:
        if k & 1:
            acc = divmod_(gf2poly.mul(acc, a), m)[1]
        a = divmod_(gf2poly.square(a), m)[1]
        k >>= 1
    return acc


def minimal_polynomial(a: int, f: int, m: int) -> int:
    """The minimal polynomial over GF(2) of a in GF(2)[x]/(f), f irreducible
    of degree m: the first linear dependency among 1, a, a^2, ..., found by
    eliminating each power against the earlier ones while tracking which
    powers were combined."""
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
        power = divmod_(gf2poly.mul(power, a), f)[1]
    raise ArithmeticError(f"{f:#b} is not of degree {m}")


def order_n_element(n: int) -> tuple[int, int]:
    """(f, alpha): the smallest irreducible f of degree m = ord_n(2) and
    alpha = e^((2^m - 1)/n) for the first e >= x whose power has order
    exactly n, every power by powmod."""
    m = numtheory.order_of_two(n)
    f = gf2poly.smallest_irreducible(m)
    step = ((1 << m) - 1) // n
    for e in range(2, 1 << m):
        a = powmod(e, step, f)
        if a != 1 and all(powmod(a, n // q, f) != 1 for q, _ in numtheory.factorize(n)):
            return f, a
    raise ArithmeticError(f"no element of order {n} found in GF(2^{m})")


def field_modulus_generic(n: int) -> int:
    """The modulus build_field re-bases on, by the generic multiply-and-
    reduce path: the minimal polynomial of order_n_element's alpha."""
    f, alpha = order_n_element(n)
    return minimal_polynomial(alpha, f, gf2poly.degree(f))


class SmallestIrreducibleField(gf2poly.BinaryField):
    """GF(2^m) on the smallest irreducible of degree m, with alpha an element
    of that basis and each power one carry-less multiply and one long
    division."""

    def __init__(self, n: int, m: int, modulus_poly: int, alpha: int):
        super().__init__(n, m, modulus_poly)
        self.alpha = alpha

    def alpha_powers(self) -> tuple[int, ...]:
        if self._alpha_pow is None:
            out = [1]
            for _ in range(self.n - 1):
                out.append(divmod_(gf2poly.mul(out[-1], self.alpha), self.modulus_poly)[1])
            self._alpha_pow = tuple(out)
        return self._alpha_pow


def smallest_irreducible_field(n: int) -> SmallestIrreducibleField:
    """The field build_field made before the re-basing: alpha is
    e^((2^m - 1)/n) for the first e >= x whose power has order exactly n,
    in the smallest irreducible of degree m = ord_n(2)."""
    f, alpha = order_n_element(n)
    return SmallestIrreducibleField(n, gf2poly.degree(f), f, alpha)


def berlekamp_massey_per_bit(packed: int, length: int) -> int:
    """gf2poly.berlekamp_massey stepping through every position: one test
    of the discrepancy bit per position, nonzero or not."""
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


def alpha_power(field, k: int) -> int:
    return field.alpha_powers()[k % field.n]


def eval_poly(f: int, x: int, field) -> int:
    """Horner evaluation of the GF(2) polynomial f at the field element x."""
    d = gf2poly.degree(f)
    if d is None:
        return 0
    acc = 0
    for i in range(d, -1, -1):
        acc = divmod_(gf2poly.mul(acc, x), field.modulus_poly)[1] ^ ((f >> i) & 1)
    return acc


# --- the Euclid gcd routes ---------------------------------------------------


def lincomp_gcd_euclid(seq) -> int:
    """n minus deg gcd(S, x^n + 1), by one Euclid on the whole period."""
    return seq.n - gf2poly.degree(gf2poly.gcd(seq.packed, (1 << seq.n) | 1))


def block_counts_euclid(packed: int, n: int) -> dict[int, int]:
    """deg gcd(S mod Phi_d, Phi_d) for every d | n: S folded to length d by
    a plain chunk loop, reduced by long division, then one Euclid."""
    counts = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        s_d, rest = 0, packed
        while rest:
            s_d ^= rest & ((1 << d) - 1)
            rest >>= d
        phi_d = cyclotomic_by_division(d)
        counts[d] = gf2poly.degree(gf2poly.gcd(divmod_(s_d, phi_d)[1], phi_d))
    return counts


@functools.cache
def cyclotomic_by_division(d: int) -> int:
    """Phi_d as (x^d + 1) divided by every Phi_e, e a proper divisor of d."""
    den = 1
    for e in range(1, d):
        if d % e == 0:
            den = gf2poly.mul(den, cyclotomic_by_division(e))
    q, r = divmod_((1 << d) | 1, den)
    assert r == 0
    return q


# --- the rank route before the parity tables ---------------------------------


def orbit_kernel_rotations(s: int, d: int, factors) -> int | None:
    """lincomp.orbit_kernel by d-bit work: entry (c, A) of the matrix is
    the parity of |S_d & (c + A)|, one rotate and popcount of the orbit
    mask of A per representative c, each mask the AND of its labels' masks
    tiled from q to d bits."""
    # reversed, so that parsed in base 2 the label of x lands at bit x
    tables = [numtheory.prime_power_labels(p, l)[::-1] for p, l in factors]
    orbits = list(itertools.product(*(range(2 * l + 1) for _, l in factors)))
    # x * d/q summed over the least member x of each label: d/q is a unit
    # mod q, so by CRT this is one member of every orbit, in another order
    reps = [
        sum((len(t) - 1 - t.rfind(b)) * (d // len(t)) for b, t in zip(orbit, tables)) % d
        for orbit in orbits
    ]
    columns = []
    for orbit in orbits:
        mask = (1 << d) - 1
        for b, t in zip(orbit, tables):
            q = len(t)
            tile = int(t.translate(b"0" * b + b"1" + b"0" * (255 - b)), 2)
            while q < d:
                tile |= tile << q
                q *= 2
            mask &= tile
        hit = s & mask
        if hit and hit != mask:
            return None
        column = 0
        for i, c in enumerate(reps):
            # s & (mask rotated left by c), split at the wrap
            parity = (s & mask << c).bit_count() + (s & mask >> (d - c)).bit_count()
            column |= (parity & 1) << i
        columns.append(column)
    return len(orbits) - gf2poly.rank(columns)


def label_sum_parities_by_count(p: int, l: int) -> list[list[int]]:
    """numtheory.label_sum_parities by counting the label pairs
    (label of x, label of r + x) over all x in Z_{p^l}, for the least
    member r of each label c."""
    labels = numtheory.prime_power_labels(p, l)
    k = 2 * l + 1
    table = [[0] * k for _ in range(k)]
    for c in range(k):
        r = labels.index(c)
        shifted = labels[r:] + labels[:r]  # byte x: the label of r + x
        for (a, o), count in Counter(zip(labels, shifted)).items():
            table[o][c] ^= (count & 1) << a
    return table


# --- per-v spectral sweeps ---------------------------------------------------


def spectrum_by_subset_eval(exps, field) -> lincomp.Spectrum:
    """lincomp.spectrum with one field.subset_eval, a sum over the whole
    set, per representative: the orbit minima when the set is a union of
    H-orbits, every v otherwise."""
    orbits = field.orbits()
    if lincomp.is_orbit_union(exps, orbits):
        reduced, reps, labels = True, orbits.reps, orbits.labels
    else:
        reduced, reps, labels = False, range(field.n), range(field.n)
    values = tuple(field.subset_eval(exps, r) for r in reps)
    return lincomp.Spectrum(reduced, reps, values, labels)


def spectral_values_sweep(seq, field) -> list[int]:
    """S(alpha^v) for v = 0..n-1, every v evaluated on its own."""
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


def lemma2_sweep(modulus, assignment, d, field) -> CheckVerdict:
    name = f"lemma2(d={d})"
    a_d = assignment.vector_for(d)
    if sum(a_d) % 2 == 0:
        return CheckVerdict(name, False, None, "even coordinate sum")
    n = modulus.n
    k = n // d
    pair = classes_by_root(modulus.divisor_factorization(d), a_d)
    g = numtheory.combined_root(modulus)
    lifted0 = {k * x % n for x in pair.d0}
    lifted1 = {k * x % n for x in pair.d1}
    if {g * x % n for x in lifted1} != lifted0:
        return CheckVerdict(name, True, False, f"set form fails for d={d}")
    exps0 = sorted(lifted0)
    exps1 = sorted(lifted1)
    for v in range(1, n):
        if field.subset_eval(exps1, v * g % n) != field.subset_eval(exps0, v):
            return CheckVerdict(name, True, False, f"evaluation form fails at v={v}")
    return CheckVerdict(name, True, True)


def index_sets(a_d) -> tuple[frozenset, frozenset]:
    """Split {0,1}^m by the parity of the dot product with a_d."""
    a_d = tuple(a_d)
    if not any(a_d):
        raise ZeroVector(a_d)
    i0, i1 = [], []
    for tup in itertools.product((0, 1), repeat=len(a_d)):
        parity = sum(t * a for t, a in zip(tup, a_d)) % 2
        (i1 if parity else i0).append(tup)
    return frozenset(i0), frozenset(i1)


def odd_tuple_sum_by_enumeration(field, a_d, pairs) -> int:
    """The sum, over the odd index tuples of a_d, of the products of
    pairs[j][i_j]: every tuple expanded on its own, every product reduced."""
    acc = 0
    for tup in sorted(index_sets(a_d)[1]):
        term = 1
        for bit, pair in zip(tup, pairs):
            term = divmod_(gf2poly.mul(term, pair[bit]), field.modulus_poly)[1]
        acc ^= term
    return acc


def lemma3_sweep(modulus, assignment, d, field) -> CheckVerdict:
    name = f"lemma3(d={d})"
    n = modulus.n
    a_d = assignment.vector_for(d)
    facs = modulus.divisor_factorization(d)
    pair = classes_by_root(facs, a_d)
    k = n // d
    lhs_exps = [k * x % n for x in pair.d1]
    factor_classes = [
        prime_power_classes(p, l, numtheory.primitive_root(p, l)) for p, l in facs
    ]
    beta_exps = [b * (n // p**l) % n for b, (p, l) in zip(crt_split(modulus, d), facs)]
    table = field.alpha_powers()
    for v in range(1, n):
        lhs = 0
        for e in lhs_exps:
            lhs ^= table[e * v % n]
        sums = []
        for be, classes in zip(beta_exps, factor_classes):
            base = be * v % n
            s0 = 0
            for c in classes.d0:
                s0 ^= table[base * c % n]
            s1 = 0
            for c in classes.d1:
                s1 ^= table[base * c % n]
            sums.append((s0, s1))
        if lhs != odd_tuple_sum_by_enumeration(field, a_d, sums):
            return CheckVerdict(name, True, False, f"mismatch at v={v}")
    return CheckVerdict(name, True, True)


def lemma4_sweep(modulus, field) -> CheckVerdict:
    name = "lemma4"
    if modulus.t != 2 or any(e != 1 for _, e in modulus.factors):
        return CheckVerdict(name, False, None, "n is not a product of two distinct primes")
    (p1, _), (p2, _) = modulus.factors
    seq = sequence.generate(modulus, VectorAssignment.all_ones_top(modulus))
    expected = 0 if p1 % 4 == 3 and p2 % 4 == 3 else 1
    ones = gf2poly.exponents(seq.packed)
    n = modulus.n
    for v in range(1, n):
        if math.gcd(v, n) != 1:
            continue
        if field.subset_eval(ones, v) != expected:
            return CheckVerdict(name, True, False, f"S(alpha^{v}) != {expected}")
    return CheckVerdict(name, True, True)


def theorem1_sweep(modulus, assignment, field) -> CheckVerdict:
    name = "theorem1"
    if any(sum(assignment.vector_for(d)) % 2 == 0 for d in modulus.divisors_gt1()):
        return CheckVerdict(name, False, None, "a divisor vector has even coordinate sum")
    seq = sequence.generate(modulus, assignment)
    n = modulus.n
    bound = (n + 1) // 2 - sequence.delta(n)
    L = lincomp.lincomp_gcd(seq)
    if L < bound:
        return CheckVerdict(name, True, False, f"L={L} below bound {bound}")
    values = spectral_values_sweep(seq, field)
    g = numtheory.combined_root(modulus)
    for v in range(1, n):
        if values[v] ^ values[v * g % n] != 1:
            return CheckVerdict(name, True, False, f"pairing fails at v={v}")
    return CheckVerdict(name, True, True)
