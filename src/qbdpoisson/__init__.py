"""General solution of the Poisson equation (I - P) u = g for discrete-time
quasi-birth-and-death processes.

Covers positive recurrent, transient and null recurrent chains, exposes the
underlying matrix-analytic machinery (quadratic matrix equations, spectral
splitting, resolvent triples, the right-shift transformation), and ships
independent oracles (probabilistic solution, forward recurrence, residual
reports) for cross-validation.
"""

from .exceptions import (ClassificationError, InfeasibleConstraintError,
                         ModelValidationError, NumericalError, QbdError)
from .model import (QbdModel, RhsSpec, ValidationReport, load_problem,
                    serialize_problem, validate)
from .poisson import (GroupInverseData, PoissonSolution, SolveOptions,
                      compute_sigma, compute_y_star, evaluate_u_sequence,
                      group_inverse, pi_dot_g, solve_nonsingular_a1,
                      solve_poisson)
from .probabilistic import ProbSolution, compare_constant_shift, omega_solution
from .qme import (Classification, Normalization, QmeSolutions, StationaryData,
                  char_roots, compute_r_u, drift, solve_model, solve_qme,
                  stationary)
from .shift import ShiftData, right_shift, solve_null_recurrent
from .spectral import SpectralSplit, split
from .triple import (ResolventData, ResolventTriple, build_triple,
                     check_identities, compute_w, eta, w_series)
from .verify import ResidualReport, forward_oracle, random_model, residuals

__version__ = "0.1.0"

__all__ = [
    "QbdError", "ModelValidationError", "ClassificationError",
    "NumericalError", "InfeasibleConstraintError",
    "QbdModel", "RhsSpec", "ValidationReport", "load_problem",
    "serialize_problem", "validate",
    "Classification", "Normalization", "QmeSolutions", "StationaryData",
    "solve_qme", "solve_model", "compute_r_u", "char_roots",
    "stationary", "drift",
    "SpectralSplit", "split",
    "ResolventData", "ResolventTriple", "compute_w", "w_series",
    "build_triple", "check_identities", "eta",
    "GroupInverseData", "PoissonSolution", "SolveOptions", "group_inverse",
    "compute_sigma", "compute_y_star", "evaluate_u_sequence",
    "pi_dot_g", "solve_poisson", "solve_nonsingular_a1",
    "ShiftData", "right_shift", "solve_null_recurrent",
    "ProbSolution", "omega_solution", "compare_constant_shift",
    "ResidualReport", "residuals", "forward_oracle", "random_model",
    "__version__",
]
