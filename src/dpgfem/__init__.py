"""Discontinuous Petrov-Galerkin finite element toolkit on simplicial meshes."""

from .adaptivity import AdaptiveHistory, adaptive_solve, mark
from .formulations import (
    Formulation,
    ManufacturedCase,
    Slot,
    make_formulation,
    manufactured_case,
)
from .fortin import (
    FortinInterpolant,
    FortinSystem,
    fortin_bound_sweep,
    fortin_build,
    fortin_commuting,
    fortin_moments,
)
from .meshes import (
    SimplicialMesh,
    build_structured,
    check_conforming,
    read_mesh,
    refine_marked,
    refine_uniform,
    shape_regularity,
    write_mesh,
)
from .quadrature import QuadratureRule, simplex_rule
from .reports import fitted_rate, write_report
from .system import (
    Discretization,
    EstimateResult,
    SingularSystemError,
    condense,
)
from .verification import (
    annihilation_check,
    broken_stability_bound,
    duality_gap,
    duality_suite,
    infsup_survey,
    verify_records,
)

__all__ = [
    "AdaptiveHistory",
    "adaptive_solve",
    "mark",
    "Formulation",
    "ManufacturedCase",
    "Slot",
    "make_formulation",
    "manufactured_case",
    "FortinInterpolant",
    "FortinSystem",
    "fortin_bound_sweep",
    "fortin_build",
    "fortin_commuting",
    "fortin_moments",
    "SimplicialMesh",
    "build_structured",
    "check_conforming",
    "read_mesh",
    "refine_marked",
    "refine_uniform",
    "shape_regularity",
    "write_mesh",
    "QuadratureRule",
    "simplex_rule",
    "fitted_rate",
    "write_report",
    "Discretization",
    "EstimateResult",
    "SingularSystemError",
    "condense",
    "annihilation_check",
    "broken_stability_bound",
    "duality_gap",
    "duality_suite",
    "infsup_survey",
    "verify_records",
]

__version__ = "0.1.0"
