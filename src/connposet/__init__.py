"""Verification and exploration toolkit for the poset of connected graphs
on a labeled vertex set, ordered by edge inclusion.

The public names are resolved on first access (PEP 562), so importing the
package, or running one CLI subcommand, compiles only the modules used.
"""

from importlib import import_module as _import_module

# Every public name, by the submodule that defines it.  The submodules
# themselves are public too; __getattr__, __dir__ and __all__ read this table.
_EXPORTS = {
    "graphs": ("EdgeSet", "LevelCensus", "edge_slot", "enumerate_level", "is_connected",
               "level_census", "slot_count", "slot_edge"),
    "connectivity": ("MultiGraph", "is_cactus", "is_chorded_cycle_free"),
    "poset": ("ChainPartition", "MatchingResult", "SpernerReport", "chain_partition",
              "sperner_verdict"),
    "bounds": ("BoundReport", "LogValue", "appendix_property_check", "binom_inverse",
               "disconnected_report", "ext_binom", "i_r_census", "lovasz_check",
               "shadow_ratio_report", "squares_check", "tech_inequality_eval",
               "technical_lemma_check"),
    "quotient": ("IsoClass", "canonical_form", "connected_classes", "cprime_search",
                 "cprime_sperner", "is_hamiltonian", "property_poset_report", "quotient_poset",
                 "quotient_sperner"),
    "limits": ("BudgetExceededError", "ChainPartitionError"),
}
_ORIGIN = {module: module for module in _EXPORTS}
_ORIGIN.update((name, module) for module, names in _EXPORTS.items() for name in names)

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORIGIN.keys())
