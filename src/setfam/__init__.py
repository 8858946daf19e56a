"""Exact combinatorics workbench for finite set families.

Boolean atoms and membership signatures, the dual shatter function,
(p,q)-property decisions, minimum partitions into consistent subfamilies
(piercing), and quadratic lower-bound witness chains with an independent
verifier, plus reproducible instance generators and a batch CLI.

Importing the package loads none of its modules: each exported name and
each submodule (``setfam.pq``, ``setfam.generators``, ...) is imported on
first use, so a ``setfam`` subcommand loads only the modules it runs.
"""

import importlib

# Module -> the public names it defines.
_EXPORTS = {
    "errors": (
        "BudgetExceededError",
        "EmptySetError",
        "FamilyFormatError",
        "GenerationError",
        "ReportFormatError",
        "SetFamError",
    ),
    "family": (
        "AtomDecomposition",
        "SetFamily",
        "Signature",
        "boolean_atoms",
        "family_from_dict",
        "family_to_dict",
        "mask_from_points",
        "parse_family",
        "point_signature",
        "points_from_mask",
        "serialize_family",
    ),
    "generators": ("gen_halfplane_grid", "gen_intervals", "gen_random", "gen_witness_rich"),
    "piercing": ("PiercingSolution", "transversal_exact", "transversal_greedy", "verify_partition"),
    "pq": ("PropertyReport", "disjoint_sequence_greedy", "has_pq", "max_disjoint"),
    "rng": ("SplitMix64",),
    "shatter": ("GrowthProfile", "ShatterResult", "dual_shatter", "dual_vc_dimension", "growth_profile"),
    "witness": (
        "ChainStep",
        "StuckCertificate",
        "VerificationReport",
        "WitnessChain",
        "build_quadratic_witness",
        "candidate_sets",
        "chain_from_dict",
        "chain_to_dict",
        "verify_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "report"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind an exported name or a submodule name on first use."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
