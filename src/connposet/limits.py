"""Resource budgets for exhaustive scans.

Every full scan of the 2^m graph universe is gated: the defaults keep a run
on a laptop under a few minutes, and anything heavier requires an explicit
override from the caller.
"""

# Hard cap on the vertex count any graph value may carry.
TYPE_MAX_N = 10

# Full-universe scans (2^m graphs) allowed by default / with override.
SCAN_DEFAULT_MAX_N = 6
SCAN_OVERRIDE_MAX_N = 7

# Element budget for exact width computations (covers n=6 connected: 26704).
WIDTH_DEFAULT_MAX_ELEMENTS = 30_000

# Exact canonical labeling enumerates all n! relabelings.
CANONICAL_MAX_N = 8

# Spanning-connected-subgraph posets enumerate 2^edges subsets.
CPRIME_MAX_EDGES = 21


class BudgetExceededError(Exception):
    """A requested computation exceeds the configured budget."""


def check_scan_budget(n: int, override: bool = False) -> None:
    limit = SCAN_OVERRIDE_MAX_N if override else SCAN_DEFAULT_MAX_N
    if n > limit:
        hint = "" if override else " (pass budget_override/--budget-override to allow n=7)"
        raise BudgetExceededError(
            f"full scan at n={n} exceeds the budget of n<={limit}{hint}"
        )


def check_width_budget(element_count: int, override: bool = False) -> None:
    if not override and element_count > WIDTH_DEFAULT_MAX_ELEMENTS:
        raise BudgetExceededError(
            f"width computation over {element_count} elements exceeds the default "
            f"budget of {WIDTH_DEFAULT_MAX_ELEMENTS}; pass budget_override to allow"
        )
