"""Splittable-item bin packing with at most k parts per bin.

Exact-rational domain model, online next-fit, a two-stage k=2 algorithm,
an exhaustive oracle, structural packing rewrites and adversarial instance
generators.
"""

from .core import (
    BoundsReport,
    Instance,
    InternalError,
    InvalidPackingError,
    Packing,
    lower_bounds,
    parse_rational,
    validate_packing,
)
from .nextfit import CloseReason, NfTrace, check_block_inequality, next_fit
from .exact import (
    BudgetExceeded,
    SearchBudget,
    exact_opt,
    feasible_in,
)
from .algo75 import A75Report, StepLabel, pack_75
from .normalize import (
    bound_degrees,
    normalization_violations,
    normalize,
    remove_cycles,
    smalls_to_leaves,
)
from .generators import (
    gen_a75_worst,
    gen_from_3partition,
    gen_nf_worst,
    gen_random,
    three_partition_brute,
)

__all__ = [
    "A75Report",
    "BoundsReport",
    "BudgetExceeded",
    "CloseReason",
    "Instance",
    "InternalError",
    "InvalidPackingError",
    "NfTrace",
    "Packing",
    "SearchBudget",
    "StepLabel",
    "check_block_inequality",
    "exact_opt",
    "feasible_in",
    "gen_a75_worst",
    "gen_from_3partition",
    "gen_nf_worst",
    "gen_random",
    "lower_bounds",
    "next_fit",
    "normalization_violations",
    "normalize",
    "pack_75",
    "parse_rational",
    "remove_cycles",
    "smalls_to_leaves",
    "three_partition_brute",
    "validate_packing",
    "bound_degrees",
]
