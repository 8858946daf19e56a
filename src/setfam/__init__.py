"""Exact combinatorics workbench for finite set families.

Boolean atoms and membership signatures, the dual shatter function,
(p,q)-property decisions, minimum partitions into consistent subfamilies
(piercing), and quadratic lower-bound witness chains with an independent
verifier, plus reproducible instance generators and a batch CLI.
"""

from .errors import (
    BudgetExceededError,
    EmptySetError,
    FamilyFormatError,
    GenerationError,
    ReportFormatError,
    SetFamError,
)
from .family import (
    AtomDecomposition,
    SetFamily,
    Signature,
    atoms_meeting,
    boolean_atoms,
    family_from_dict,
    family_to_dict,
    mask_from_points,
    parse_family,
    point_signature,
    points_from_mask,
    serialize_family,
)
from .generators import (
    GeneratorSpec,
    gen_halfplane_grid,
    gen_intervals,
    gen_random,
    gen_witness_rich,
)
from .piercing import PiercingSolution, transversal_exact, transversal_greedy, verify_partition
from .pq import PropertyReport, disjoint_sequence_greedy, has_pq, max_disjoint
from .rng import SplitMix64
from .shatter import GrowthProfile, ShatterResult, dual_shatter, growth_profile
from .witness import (
    ChainStep,
    StuckCertificate,
    VerificationReport,
    WitnessChain,
    build_quadratic_witness,
    candidate_sets,
    chain_from_dict,
    chain_to_dict,
    verify_witness,
)

__all__ = [
    "AtomDecomposition",
    "BudgetExceededError",
    "ChainStep",
    "EmptySetError",
    "FamilyFormatError",
    "GenerationError",
    "GeneratorSpec",
    "GrowthProfile",
    "PiercingSolution",
    "PropertyReport",
    "ReportFormatError",
    "SetFamError",
    "SetFamily",
    "ShatterResult",
    "Signature",
    "SplitMix64",
    "StuckCertificate",
    "VerificationReport",
    "WitnessChain",
    "atoms_meeting",
    "boolean_atoms",
    "build_quadratic_witness",
    "candidate_sets",
    "chain_from_dict",
    "chain_to_dict",
    "disjoint_sequence_greedy",
    "dual_shatter",
    "family_from_dict",
    "family_to_dict",
    "gen_halfplane_grid",
    "gen_intervals",
    "gen_random",
    "gen_witness_rich",
    "growth_profile",
    "has_pq",
    "mask_from_points",
    "max_disjoint",
    "parse_family",
    "point_signature",
    "points_from_mask",
    "serialize_family",
    "transversal_exact",
    "transversal_greedy",
    "verify_partition",
    "verify_witness",
]

__version__ = "0.1.0"
