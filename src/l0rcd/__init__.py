"""Random block coordinate descent with hard thresholding for
l0-regularized convex minimization, and a brute-force enumeration oracle
that classifies candidate local minimizers into nested restriction classes.
"""

from .core import (
    BlockPartition,
    IterateState,
    L0Problem,
    l0_norm,
    objective_F,
    support_of,
)
from .objectives import (
    LeastSquaresObjective,
    LogisticL2Objective,
    SmoothOracle,
    finite_difference_error,
    load_labels_csv,
    load_matrix_csv,
    load_vector_csv,
)
from .approx import (
    ApproxSpec,
    resolve,
    separable_from_factor,
    threshold_e,
    threshold_q,
)
from .solvers import (
    InvariantViolation,
    RNG_ALGORITHM,
    SolverConfig,
    SolverTrace,
    delta_lower_bound,
    estimate_linear_rate,
    run_ihta,
    run_rcd_iht,
)
from .analysis import (
    CatalogEntry,
    MinimaCatalog,
    build_example_instance,
    example_class_requests,
    enumerate_catalog,
    is_basic_local_min,
    is_strong_local_min,
    restricted_minimize,
    verify_inclusions,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "IterateState",
    "L0Problem",
    "l0_norm",
    "objective_F",
    "support_of",
    "LeastSquaresObjective",
    "LogisticL2Objective",
    "SmoothOracle",
    "finite_difference_error",
    "load_labels_csv",
    "load_matrix_csv",
    "load_vector_csv",
    "ApproxSpec",
    "resolve",
    "separable_from_factor",
    "threshold_e",
    "threshold_q",
    "InvariantViolation",
    "RNG_ALGORITHM",
    "SolverConfig",
    "SolverTrace",
    "delta_lower_bound",
    "estimate_linear_rate",
    "run_ihta",
    "run_rcd_iht",
    "CatalogEntry",
    "MinimaCatalog",
    "build_example_instance",
    "example_class_requests",
    "enumerate_catalog",
    "is_basic_local_min",
    "is_strong_local_min",
    "restricted_minimize",
    "verify_inclusions",
]
