"""Slow, independent reference forms of what the package computes fast.

These are the per-index and per-bit routes the package used before a period
became one packed int, the per-v spectral sweeps the checks used before
they shared the orbit-reduced engine, and small helpers only tests need;
tests compare the fast routes against them.
"""

import math

from dhseq import cyclotomy, gf2poly, lincomp, numtheory, sequence
from dhseq.cyclotomy import VectorAssignment
from dhseq.numtheory import CrtView
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


def crt_view(x: int, modulus) -> CrtView:
    """Residues of x modulo each prime-power factor, ascending primes."""
    return CrtView(tuple(x % q for q in modulus.prime_powers()))


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


def alpha_power(field, k: int) -> int:
    return field.alpha_powers()[k % field.n]


def eval_poly(f: int, x: int, field) -> int:
    """Horner evaluation of the GF(2) polynomial f at the field element x."""
    d = gf2poly.degree(f)
    if d is None:
        return 0
    acc = 0
    for i in range(d, -1, -1):
        acc = field.mul(acc, x) ^ ((f >> i) & 1)
    return acc


# --- per-v spectral sweeps ---------------------------------------------------


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
    pair = cyclotomy.generalized_classes(modulus.divisor_factorization(d), a_d)
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


def lemma3_sweep(modulus, assignment, d, field) -> CheckVerdict:
    name = f"lemma3(d={d})"
    n = modulus.n
    a_d = assignment.vector_for(d)
    facs = modulus.divisor_factorization(d)
    pair = cyclotomy.generalized_classes(facs, a_d)
    k = n // d
    lhs_exps = [k * x % n for x in pair.d1]
    split = crt_split(modulus, d)
    _, i1 = cyclotomy.index_sets(a_d)
    factor_classes = [
        cyclotomy.prime_power_classes(p, l, numtheory.primitive_root(p, l))
        for p, l in facs
    ]
    beta_exps = [
        b * (n // q) % n for b, q in zip(split.coefficients, split.prime_powers)
    ]
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
        rhs = 0
        for tup in sorted(i1):
            term = 1
            for bit, pairsum in zip(tup, sums):
                term = field.mul(term, pairsum[bit])
            rhs ^= term
        if lhs != rhs:
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
    L = lincomp.lincomp_gcd(seq).L
    if L < bound:
        return CheckVerdict(name, True, False, f"L={L} below bound {bound}")
    values = spectral_values_sweep(seq, field)
    g = numtheory.combined_root(modulus)
    for v in range(1, n):
        if values[v] ^ values[v * g % n] != 1:
            return CheckVerdict(name, True, False, f"pairing fails at v={v}")
    return CheckVerdict(name, True, True)
