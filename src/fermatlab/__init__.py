"""Exact primality experiments on the numbers 2**(2**n) + 1.

The library pairs a divisibility scan of the squaring recurrence
6, 34, 1154, ... against the classical base-3 criterion, keeps every
integer exact, and counts the squarings both tests spend so they can be
compared honestly.  An exact layer for the ring of integers with sqrt(2)
verifies the identities that justify the scan.
"""

from .arith import (
    FermatModulus,
    chain_item,
    fermat_value,
    reduce_mod_fermat,
)
from .budget import DEFAULT_MAX_BITS, ENV_MAX_BITS, BudgetExceededError, max_bits
from .primality import (
    FactorWitness,
    NotApplicableError,
    ScanResult,
    TestReport,
    Verdict,
    VerdictKind,
    cross_check,
    h_min,
    paper_scan,
    pepin_squarings,
    pepin_test,
    trial_factor_search,
    verify_two_order,
)
from .sequences import OverlapReport, a_exact, a_mod_fermat, overlap_check, residues, s_value
from .zsqrt2 import (
    U,
    V,
    ZSqrt2,
    congruent_mod,
    frobenius_check,
    pow_mod_p,
    reduce_mod,
    trace_pow2,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_MAX_BITS",
    "ENV_MAX_BITS",
    "FactorWitness",
    "FermatModulus",
    "NotApplicableError",
    "OverlapReport",
    "ScanResult",
    "TestReport",
    "U",
    "V",
    "Verdict",
    "VerdictKind",
    "ZSqrt2",
    "a_exact",
    "a_mod_fermat",
    "chain_item",
    "congruent_mod",
    "cross_check",
    "fermat_value",
    "frobenius_check",
    "h_min",
    "max_bits",
    "overlap_check",
    "paper_scan",
    "pepin_squarings",
    "pepin_test",
    "pow_mod_p",
    "reduce_mod",
    "reduce_mod_fermat",
    "residues",
    "s_value",
    "trace_pow2",
    "trial_factor_search",
    "verify_two_order",
]
