"""Structure of the unit group of Z/p^k and sums of p-th power residues."""

from .corefst import (
    CoreTable,
    CriticalPrecisionResult,
    build_core_table,
    critical_precision,
    integer_increments,
)
from .errors import (
    CheckFailure,
    FactorizationFailure,
    NotPrime,
    Oversize,
    PkcoreError,
)
from .generators import (
    audit_divisors,
    exception_scan,
    survey_pm1_generators,
    wieferich_scan,
)
from .modring import (
    PrimePowerModulus,
    base_p_encode,
    make_modulus,
)
from .pairsums import core_pairsum_count, fermat_pairsum_count
from .primes import factorize, is_prime, primes_in_range
from .waring import decompose_residue, sumset_levels, verify_multiples_of_p

__version__ = "0.1.0"

__all__ = [
    "CheckFailure",
    "CoreTable",
    "CriticalPrecisionResult",
    "FactorizationFailure",
    "NotPrime",
    "Oversize",
    "PkcoreError",
    "PrimePowerModulus",
    "audit_divisors",
    "base_p_encode",
    "build_core_table",
    "core_pairsum_count",
    "critical_precision",
    "decompose_residue",
    "exception_scan",
    "factorize",
    "fermat_pairsum_count",
    "integer_increments",
    "is_prime",
    "make_modulus",
    "primes_in_range",
    "sumset_levels",
    "survey_pm1_generators",
    "verify_multiples_of_p",
    "wieferich_scan",
]
