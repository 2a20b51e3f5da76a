"""Numerical laboratory for coarse-graining heterogeneous divergence-form
coefficients on triadic lattices: variational coarse matrices, scale-weighted
ellipticity constants, ergodic averaging, and oscillating-to-homogenized
Dirichlet experiments."""

from .triadic import TriadicCube, domain_cube
from .fields import (CoefficientField, CascadeSpec, gen_named_field,
                     gen_cascade_field, save_field, load_field)
from .solver import (assemble, solve_dirichlet, solve_neumann,
                     SolverError, DegenerateCellError)
from .coarsegrain import (CoarseGrainedMatrices, HierarchyCache,
                          coarse_grain_cube, coarse_grain_adjoint,
                          hierarchy_sweep, pointwise_A, blocks_from_A,
                          J_from_A, Jstar_from_A, center_skew)
from .norms import (bnorm, ring_dual_norm, ellipticity_constants,
                    embedding_check, EllipticityReport)
from .ergodic import (FieldSpec, ErgodicEstimate, estimate_Abar,
                      check_monotone, gap_diagnostic, homogenized_matrix,
                      HomogenizedMatrix)
from .homexp import (TargetFunction, HomExperiment, ErrorRecord,
                     run_dirichlet_experiment, compute_E_s, compute_GH,
                     energy_estimate_diagnostic, summarize_records)

__version__ = "0.1.0"

__all__ = [
    "TriadicCube", "domain_cube",
    "CoefficientField", "CascadeSpec", "gen_named_field", "gen_cascade_field",
    "save_field", "load_field",
    "assemble", "solve_dirichlet", "solve_neumann",
    "SolverError", "DegenerateCellError",
    "CoarseGrainedMatrices", "HierarchyCache", "coarse_grain_cube",
    "coarse_grain_adjoint", "hierarchy_sweep", "pointwise_A", "blocks_from_A",
    "J_from_A", "Jstar_from_A", "center_skew",
    "bnorm", "ring_dual_norm", "ellipticity_constants", "embedding_check",
    "EllipticityReport",
    "FieldSpec", "ErgodicEstimate", "estimate_Abar",
    "check_monotone", "gap_diagnostic", "homogenized_matrix",
    "HomogenizedMatrix",
    "TargetFunction", "HomExperiment", "ErrorRecord",
    "run_dirichlet_experiment", "compute_E_s", "compute_GH",
    "energy_estimate_diagnostic", "summarize_records",
    "__version__",
]
