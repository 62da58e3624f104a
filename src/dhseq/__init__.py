"""Generalized cyclotomic binary sequences and their linear complexity."""

from .cyclotomy import VectorAssignment, generalized_classes
from .errors import DHSeqError
from .gf2poly import BinaryField, berlekamp_massey, build_field
from .lincomp import lincomp_bm, lincomp_gcd, lincomp_spectral
from .numtheory import (
    Modulus,
    combined_root,
    crt_combine,
    enumerate_valid_moduli,
    order_of_two,
    primitive_root,
    validate_modulus,
)
from .sequence import Period, delta, generate
from .theorems import (
    CheckRun,
    CheckVerdict,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_theorem1,
    predicted_L_two_primes,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryField",
    "CheckRun",
    "CheckVerdict",
    "DHSeqError",
    "Modulus",
    "Period",
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
    "delta",
    "enumerate_valid_moduli",
    "generalized_classes",
    "generate",
    "lincomp_bm",
    "lincomp_gcd",
    "lincomp_spectral",
    "order_of_two",
    "predicted_L_two_primes",
    "primitive_root",
    "validate_modulus",
]
