"""The package namespace resolves lazily, and each CLI subcommand loads only
the modules it calls."""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import connposet

# The public names, by the module that defines them.
REEXPORTS = {
    "graphs": ["EdgeSet", "LevelCensus", "edge_slot", "enumerate_level", "is_connected",
               "level_census", "slot_count", "slot_edge"],
    "connectivity": ["MultiGraph", "is_cactus", "is_chorded_cycle_free"],
    "poset": ["ChainPartition", "ChainPartitionError", "MatchingResult", "SpernerReport",
              "chain_partition", "sperner_verdict"],
    "bounds": ["BoundReport", "LogValue", "appendix_property_check", "binom_inverse",
               "disconnected_report", "ext_binom", "i_r_census", "lovasz_check",
               "shadow_ratio_report", "squares_check", "tech_inequality_eval",
               "technical_lemma_check"],
    "quotient": ["IsoClass", "canonical_form", "connected_classes", "cprime_search",
                 "cprime_sperner", "is_hamiltonian", "property_poset_report",
                 "quotient_poset", "quotient_sperner"],
    "limits": ["BudgetExceededError"],
}
PUBLIC = sorted([*REEXPORTS, *(name for names in REEXPORTS.values() for name in names)])


def _fresh(code: str):
    """The JSON value a fresh interpreter prints after running code."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_reexports_are_their_modules_attributes():
    assert len(PUBLIC) == 45
    for module, names in REEXPORTS.items():
        defining = import_module(f"connposet.{module}")
        assert getattr(connposet, module) is defining
        for name in names:
            assert getattr(connposet, name) is getattr(defining, name), name


def test_namespace_in_a_fresh_interpreter():
    got = _fresh(
        "import json, sys\n"
        "import connposet\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('connposet'))\n"
        "public = lambda: [n for n in dir(connposet) if not n.startswith('_')]\n"
        "before = public()\n"
        "star = {}\n"
        "exec('from connposet import *', star)\n"
        "star.pop('__builtins__')\n"
        "print(json.dumps([loaded, before, sorted(star), public()]))\n"
    )
    loaded, before, star, after = got
    # a bare import loads no compute module
    assert loaded == ["connposet"]
    assert before == PUBLIC
    assert star == PUBLIC
    # resolving every name binds nothing beyond them
    assert after == PUBLIC


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        connposet.no_such_name
    assert not hasattr(connposet, "no_such_name")


def test_chain_partition_error_lives_in_limits():
    from connposet import limits, poset

    assert poset.ChainPartitionError is limits.ChainPartitionError
    assert connposet.ChainPartitionError is limits.ChainPartitionError


BASE = ["connposet", "connposet.cli", "connposet.limits"]


@pytest.mark.parametrize("argv, compute", [
    (["binom", "--x", "6.5", "--k", "3"], ["bounds"]),
    (["census", "--n", "4"], ["graphs"]),
    (["sperner", "--n", "4"], ["graphs", "poset"]),
    (["chains", "--n", "4"], ["graphs", "poset"]),
    (["matchings", "--n", "4"], ["graphs", "poset"]),
    (["lemma", "removable", "--n", "4"], ["connectivity", "graphs"]),
    (["lemma", "skeleton", "--n", "4"], ["connectivity", "graphs"]),
    (["lemma", "chorded", "--q-max", "3"], ["connectivity", "graphs"]),
    (["lemma", "irk", "--n", "4"], ["bounds", "graphs"]),
    (["lemma", "squares", "--n-max", "6"], ["bounds"]),
    (["lemma", "technical", "--trials", "10"], ["bounds"]),
    (["lemma", "appendix"], ["bounds"]),
    (["lemma", "disc", "--n", "4"], ["bounds", "graphs"]),
    (["lemma", "lovasz", "--n", "3", "--trials", "5"], ["bounds", "graphs"]),
    (["lemma", "shadow-ratio", "--n", "4"], ["bounds", "graphs"]),
    (["lemma", "tech", "--n", "4"], ["bounds", "connectivity", "graphs"]),
    (["lemma", "selftest"], []),
    (["explore", "quotient", "--n", "4"], ["graphs", "poset", "quotient"]),
    (["explore", "cprime", "--n", "4"], ["graphs", "poset", "quotient"]),
    (["explore", "hamiltonian", "--n", "4"], ["graphs", "poset", "quotient"]),
])
def test_subcommand_loads_only_what_it_calls(argv, compute):
    code, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from connposet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('connposet')\n"
        "                                or m in ('dataclasses', 'inspect'))]))\n"
    )
    assert code == (1 if "selftest" in argv else 0)  # selftest always fails
    # the records are NamedTuples: no process pays for dataclasses or inspect
    assert loaded == sorted(BASE + [f"connposet.{m}" for m in compute])
