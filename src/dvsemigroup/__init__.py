"""Schrodinger semigroups on finite state spaces.

Principal eigenvalues, ground states and measures, occupation-measure
rate functions with their dual variational problems, Doob transforms,
multi-particle product systems, marginal-to-potential inversion, and a
Monte Carlo cross-check, all for validated rate matrices on finite
state spaces.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    DVSemigroupError,
    GraphDisconnected,
    NegativeOffDiagonal,
    NonFinite,
    NotConverged,
    RowSumNonzero,
    StateSpaceTooLarge,
    UnsupportedSupport,
)
from .generator import (
    Generator,
    Potential,
    as_potential,
    carre_du_champ,
    check_condition_A,
    check_condition_D,
    gamma_sandwich_check,
    validate_generator,
)
from .semigroup import (
    check_condition_B,
    evolve,
    expm,
    growth_bound,
    make_operator,
)
from .spectral import (
    GroundData,
    ProbMeasure,
    as_measure,
    doob_transform,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    principal_eigen,
    total_variation,
)
from .rate_function import (
    RateResult,
    dv_sup,
    rate_I,
    rate_IV,
    relative_entropy,
)
from .multiparticle import (
    TensorSystem,
    is_symmetric,
    kronecker_sum,
    pairwise_potential,
    separable_potential,
    symmetrize_measure,
)
from .hohenberg_kohn import (
    HKConclusion,
    HKReport,
    InversionResult,
    ReducedResult,
    equilibrium_marginal,
    gamma_overlap_check,
    hk_verify,
    i_hk,
    invert_potential,
    reduced_functional,
    reduced_variational,
)
from .feynman_kac import (
    estimate_lambda,
    log_mean_exp,
    path_stream,
)
