"""Resource budgets for exhaustive scans.

Every full scan of the 2^m graph universe is gated: the defaults keep a run
on a laptop under a few minutes, and anything heavier requires an explicit
override from the caller.  The two errors the CLI maps to exit codes live
here too, so it can catch them without importing a compute module.
"""

# Hard cap on the vertex count any graph value may carry.
TYPE_MAX_N = 10

# Full-universe scans (2^m graphs) allowed by default / with override.
SCAN_DEFAULT_MAX_N = 6
SCAN_OVERRIDE_MAX_N = 7
# The level census lists no members, so with override it goes one vertex further.
CENSUS_OVERRIDE_MAX_N = 8

# Element budget of the explorers' width verdicts (cprime_sperner and
# property_poset_report), which list every member of a host's or a built-in
# property's family; it admits the 26,704 connected graphs on [6] and every
# built-in property on [6], the largest being contains_triangle's 26,979.
WIDTH_DEFAULT_MAX_ELEMENTS = 30_000

# Exact canonical labeling enumerates all n! relabelings.
CANONICAL_MAX_N = 8

# Spanning-connected-subgraph posets enumerate 2^edges subsets.
CPRIME_MAX_EDGES = 21

# The chorded-cycle sweep relabels each isomorphism class of multiplicity
# patterns by all q! permutations: q = 7 (5,040 a class) takes about 8 s and
# 47 MB; q = 8 (40,320 a class) has not been tried.
CHORDED_MAX_Q = 7


class BudgetExceededError(Exception):
    """A requested computation exceeds the configured budget."""


class ChainPartitionError(Exception):
    """A level pair lacks the complete matching the chain gluing needs."""

    def __init__(self, k_from: int, k_to: int, message: str):
        super().__init__(message)
        self.k_from = k_from
        self.k_to = k_to


def check_scan_budget(n: int, override: bool = False) -> None:
    _check_budget(n, override, SCAN_OVERRIDE_MAX_N)


def check_census_budget(n: int, override: bool = False) -> None:
    _check_budget(n, override, CENSUS_OVERRIDE_MAX_N)


def _check_budget(n: int, override: bool, override_max: int) -> None:
    limit = override_max if override else SCAN_DEFAULT_MAX_N
    if n > limit:
        hint = "" if override else (
            f" (pass budget_override/--budget-override to allow n<={override_max})"
        )
        raise BudgetExceededError(
            f"full scan at n={n} exceeds the budget of n<={limit}{hint}"
        )


def check_chorded_budget(q_max: int) -> None:
    if q_max > CHORDED_MAX_Q:
        raise BudgetExceededError(
            f"chorded-cycle sweep at q={q_max} exceeds the budget of q<={CHORDED_MAX_Q}"
            " (no override: it relabels every class by all q! permutations)"
        )


def check_width_budget(element_count: int, override: bool = False) -> None:
    if not override and element_count > WIDTH_DEFAULT_MAX_ELEMENTS:
        raise BudgetExceededError(
            f"width computation over {element_count} elements exceeds the default "
            f"budget of {WIDTH_DEFAULT_MAX_ELEMENTS}; pass budget_override to allow"
        )
