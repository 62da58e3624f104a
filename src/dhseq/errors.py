"""Exception types shared across the package."""


class DHSeqError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(DHSeqError):
    def __init__(self, value: int):
        super().__init__(f"{value} is not prime")
        self.value = value


class EvenOrRepeatedPrime(DHSeqError):
    def __init__(self, value: int):
        super().__init__(f"factor base {value} is even, too small, or listed twice")
        self.value = value


class GcdConditionViolated(DHSeqError):
    """Two factor totients share a common divisor beyond the universal 2."""

    def __init__(self, p_i: int, p_j: int, gcd_value: int):
        super().__init__(
            f"gcd condition violated for prime pair ({p_i}, {p_j}): "
            f"totient gcd is {gcd_value}, not 2"
        )
        self.pair = (p_i, p_j)
        self.gcd_value = gcd_value


class NotPrimitiveRoot(DHSeqError):
    def __init__(self, g: int, modulus: int):
        super().__init__(f"{g} is not a primitive root modulo {modulus}")
        self.g = g
        self.modulus = modulus


class ZeroVector(DHSeqError):
    def __init__(self, vector):
        super().__init__(f"divisor vector must be nonzero, got {tuple(vector)}")


class MissingDivisorVector(DHSeqError):
    def __init__(self, d: int):
        super().__init__(f"no vector assigned for divisor {d}")
        self.d = d


class AssignmentFormatError(DHSeqError):
    def __init__(self, line: str, reason: str):
        super().__init__(f"bad assignment line {line!r}: {reason}")
        self.line = line


class BothZero(DHSeqError):
    def __init__(self):
        super().__init__("gcd of two zero polynomials is undefined")


class DegreeCapExceeded(DHSeqError):
    def __init__(self, n: int, m: int, cap: int):
        super().__init__(
            f"extension degree for n={n} is {m}, above the cap {cap}; "
            "the spectral method is unavailable (gcd and bm still apply)"
        )
        self.n = n
        self.m = m
        self.cap = cap


class OutsideCaseTable(DHSeqError):
    def __init__(self, p1: int, p2: int):
        super().__init__(
            f"no closed-form complexity for ({p1}, {p2}): both primes must be 3 mod 4"
        )
        self.pair = (p1, p2)


class MethodDisagreement(Exception):
    """Two independent computations of the same quantity disagree.

    A defect of this package rather than bad input, so deliberately not a
    DHSeqError: the CLI reports it with its own exit code.
    """
