"""The size fields of each `verify` suite, declared once: the CLI reads them
without loading `verifications` or `fock`, and each suite names its sizes by them."""

from collections import namedtuple

from .expansions import _ORACLE_MAX_WEIGHT

_BRANCHING_MAX_WEIGHT = 6  # the weight cap of `_branching_sides`, and so the branching suite's

Field = namedtuple("Field", "name keyword default cap")

# Theorem -> its fields: request name, suite keyword, default (the acceptance
# size) and cap.  A cap bounds the sizes a request may ask for, not its time:
# the README's budget table times each suite with its fields at their caps.
SIZES = {
    "orthonormality": (Field("maxWeight", "max_weight", 5, 8),),
    "dual-engine": (Field("maxWeight", "max_weight", 4, 7),),
    "hall-duality": (Field("maxWeight", "max_weight", 5, 9), Field("truncation", "truncation", 5, 9)),
    "cauchy": (),
    "branching": (
        Field("maxWeight", "max_weight", 5, _BRANCHING_MAX_WEIGHT),
        Field("generalMaxWeight", "general_max_weight", 3, _BRANCHING_MAX_WEIGHT),
    ),
    "truncation-stability": (
        Field("maxWeight", "max_weight", 3, 5),
        Field("maxRows", "max_rows", 3, 5),
        Field("maxTruncation", "max_truncation", 5, 7),
    ),
    "beta-chain": (Field("maxWeight", "max_weight", 4, 7), Field("maxDualWeight", "max_dual_weight", 5, 8)),
    "classical": (
        Field("maxWeight", "max_weight", 6, _ORACLE_MAX_WEIGHT),
        Field("window", "window", 3, 4),
        Field("pairingRows", "pairing_rows", 3, 4),
    ),
}

# Theorem -> the fields (low, high) that it needs with low <= high, since it
# expands every shape of weight up to `low` at degree `high`.
ORDER = {"hall-duality": ("maxWeight", "truncation"), "beta-chain": ("maxWeight", "maxDualWeight")}
