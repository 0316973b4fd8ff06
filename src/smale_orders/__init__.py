"""Realizability of finite partial orders as Smale orders of surface
diffeomorphisms with trivial attractors and repellers."""

from .order import (
    ConnectivityReport,
    FiniteOrder,
    Role,
    RoleMap,
    check_connectivity,
    classify,
    load_order,
)
from .cycles import (
    CycleAssignment,
    Transition,
    admissible_transitions,
    balance_cycles,
    build_initial_cycles,
)
from .bands import (
    boundary_profile,
    glue_bands,
    verify_boundary_cycles,
)
from .domains import (
    DomainSpec,
    LengthProfile,
    Recipe,
    RecipeKind,
    RepairLog,
    Verdict,
    check_constructible,
    repair_profile,
)
from .assemble import (
    PlugPlan,
    RealizationCertificate,
    assemble,
    plan_plugs,
)
from .gradient import (
    GradientVerdict,
    LevelGraph,
    ViolationReport,
    check_gradient_like,
    check_necessary,
    level_graphs,
)
from .pipeline import realize, verify_certificate, verify_document

from .assemble import TOOL_VERSION as __version__

__all__ = [
    "ConnectivityReport",
    "CycleAssignment",
    "DomainSpec",
    "FiniteOrder",
    "GradientVerdict",
    "LengthProfile",
    "LevelGraph",
    "PlugPlan",
    "RealizationCertificate",
    "Recipe",
    "RecipeKind",
    "RepairLog",
    "Role",
    "RoleMap",
    "Transition",
    "Verdict",
    "ViolationReport",
    "admissible_transitions",
    "assemble",
    "balance_cycles",
    "boundary_profile",
    "build_initial_cycles",
    "check_connectivity",
    "check_constructible",
    "check_gradient_like",
    "check_necessary",
    "classify",
    "glue_bands",
    "level_graphs",
    "load_order",
    "plan_plugs",
    "realize",
    "repair_profile",
    "verify_boundary_cycles",
    "verify_certificate",
    "verify_document",
]
