"""Gaussian Mersenne norms, x^2 + d*y^2 representations, and the class-group
audits behind their mod-8 congruences."""

__version__ = "0.1.0"

from .arith import (
    NotPrimeError,
    is_probable_prime,
    jacobi,
    lucas_lehmer,
    proth_test,
    sqrt_mod_prime,
)
from .classgroup import (
    ClassGroupSummary,
    QuadForm,
    compose,
    enumerate_reduced,
    group_structure,
    reduce,
    represented_by_class,
)
from .gm import (
    GmNorm,
    epsilon,
    gm_norm,
    gm_norm_oracle,
    predict_congruences,
    scan_exponents,
)
from .represent import Representation, cornacchia, represent_bruteforce, solve
from .verify import (
    MersenneRecord,
    VerificationRecord,
    artin_class_d7,
    audit_d_2d,
    audit_generalized,
    audit_theorem_d7,
    mersenne_crosscheck,
    run_suite,
)
