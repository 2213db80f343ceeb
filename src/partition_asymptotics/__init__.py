"""Exact partition numbers, their asymptotic expansion, and certified error bounds.

Each public name is imported from its home module on first use (PEP 562), so
``import partition_asymptotics`` loads no submodule, and a process loads only
the modules behind the names it reads: exact ``p(n)`` needs no mpmath.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module of the package that defines it
_HOMES = {
    "BoundsReport": "bounds",
    "banerjee_bounds": "bounds",
    "nu": "bounds",
    "thm1_bounds": "bounds",
    "thm2_bounds": "bounds",
    "thm3_bounds": "bounds",
    "certified_abs_less": "coefficients",
    "coeff_asymptotic": "coefficients",
    "coeff_bound": "coefficients",
    "coeff_c": "coefficients",
    "DomainError": "errors",
    "MIN_DIGITS": "errors",
    "PrecisionError": "errors",
    "ResourceError": "errors",
    "RemainderResult": "expansion",
    "exp_error_term": "expansion",
    "full_sum": "expansion",
    "r_hat": "expansion",
    "recommended_digits": "expansion",
    "remainder_exact": "expansion",
    "PartitionTable": "partitions",
    "load_table": "partitions",
    "partition_dp_row": "partitions",
    "partition_pentagonal": "partitions",
    "save_table": "partitions",
    "PrecisionContext": "precision",
    "lambert_w_minus1": "precision",
    "SUITE_NAMES": "verify",
    "VerifyResult": "verify",
    "run_suite": "verify",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """A public name, imported from its home module and bound here on first use."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
