"""Multilevel Gibbs samplers for Bayesian regression of linear mixed models."""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EstimatorError,
    HierarchyError,
    InvalidAssignment,
    MlgibbsError,
    NumericalError,
    ParseError,
    SetupError,
)
from .gibbs import (
    ChainResult,
    GibbsState,
    MixedModelSpec,
    assemble_lambda,
    draw_coefficient,
    predict_mean,
    run_chain,
    sample_hyperparams,
)
from .hierarchy import (
    LevelHierarchy,
    Prolongator,
    build_hierarchy,
    build_prolongator,
    coarsen,
    leader_follower,
    prolong,
    restrict,
)
from .multilevel import (
    EstimatorAccumulator,
    allocate_cost,
    allocate_variance,
    finalize_estimate,
    make_schedule,
    run_ml_cs,
    run_ml_gibbs,
)
from .rng import RandomStream
from .solvers import (
    SolveReport,
    SolverConfig,
    build_two_level,
    cg_solve,
    precond_apply,
)
from .sparse import (
    SparseMatrix,
    from_dense,
    from_triplets,
    gram_apply,
    row_subset,
    spmv,
    spmv_t,
)

__version__ = "0.1.0"
