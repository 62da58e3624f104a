"""Generalized cyclotomic binary sequences and their linear complexity."""

from .cyclotomy import (
    ClassPair,
    PrimePowerClasses,
    VectorAssignment,
    generalized_classes,
    global_partition,
    index_sets,
    prime_power_classes,
)
from .errors import DHSeqError
from .gf2poly import BinaryField, berlekamp_massey, build_field
from .lincomp import (
    LinComplexityResult,
    lincomp_bm,
    lincomp_gcd,
    lincomp_spectral,
)
from .numtheory import (
    CrtView,
    Modulus,
    combined_root,
    crt_combine,
    crt_view,
    enumerate_valid_moduli,
    legendre,
    order_of_two,
    primitive_root,
    proper_divisors_gt1,
    validate_modulus,
)
from .sequence import DHSequence, RawPeriod, delta, generate
from .theorems import (
    CheckVerdict,
    CrtSplitCoefficients,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_theorem1,
    crt_split,
    predicted_L_two_primes,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryField",
    "CheckVerdict",
    "ClassPair",
    "CrtSplitCoefficients",
    "CrtView",
    "DHSeqError",
    "DHSequence",
    "LinComplexityResult",
    "Modulus",
    "PrimePowerClasses",
    "RawPeriod",
    "VectorAssignment",
    "berlekamp_massey",
    "build_field",
    "check_corollary",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_theorem1",
    "combined_root",
    "crt_combine",
    "crt_split",
    "crt_view",
    "delta",
    "enumerate_valid_moduli",
    "generalized_classes",
    "generate",
    "global_partition",
    "index_sets",
    "legendre",
    "lincomp_bm",
    "lincomp_gcd",
    "lincomp_spectral",
    "order_of_two",
    "predicted_L_two_primes",
    "prime_power_classes",
    "primitive_root",
    "proper_divisors_gt1",
    "validate_modulus",
]
