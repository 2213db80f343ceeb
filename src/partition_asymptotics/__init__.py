"""Exact partition numbers, their asymptotic expansion, and certified error bounds."""

from .bounds import BoundsReport, banerjee_bounds, nu, thm1_bounds, thm2_bounds, thm3_bounds
from .coefficients import (
    certified_abs_less,
    coeff_asymptotic,
    coeff_bound,
    coeff_c,
    darboux_approximant,
)
from .errors import DomainError, PrecisionError, ResourceError
from .expansion import (
    RemainderResult,
    exp_error_term,
    full_sum,
    r_hat,
    recommended_digits,
    remainder_exact,
)
from .partitions import (
    PartitionTable,
    load_table,
    partition_dp_row,
    partition_pentagonal,
    save_table,
)
from .precision import (
    MIN_DIGITS,
    PrecisionContext,
    lambert_w_minus1,
)
from .series import gf_coefficients, gf_reference
from .verify import SUITE_NAMES, VerifyResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "DomainError",
    "MIN_DIGITS",
    "PartitionTable",
    "PrecisionContext",
    "PrecisionError",
    "RemainderResult",
    "ResourceError",
    "SUITE_NAMES",
    "VerifyResult",
    "banerjee_bounds",
    "certified_abs_less",
    "coeff_asymptotic",
    "coeff_bound",
    "coeff_c",
    "darboux_approximant",
    "exp_error_term",
    "full_sum",
    "gf_coefficients",
    "gf_reference",
    "lambert_w_minus1",
    "load_table",
    "nu",
    "partition_dp_row",
    "partition_pentagonal",
    "r_hat",
    "recommended_digits",
    "remainder_exact",
    "run_suite",
    "save_table",
    "thm1_bounds",
    "thm2_bounds",
    "thm3_bounds",
]
