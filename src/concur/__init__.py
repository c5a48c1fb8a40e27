"""Extremal concurrence probabilities for max-stable processes.

Closed forms and Monte-Carlo evaluation of the probability that a single
extreme event attains the componentwise maximum at several sites, exact
max-stable simulators with hitting-scenario tracking, block /
bootstrap / Kendall estimators with block-size planning, concurrence-cell
analysis, and a station-data pipeline for seasonal temperature extremes.
"""

__version__ = "0.1.0"

from .concurrence import (
    ConcurrenceEstimate,
    concurrence_probability,
    ecp_mc,
    ecp_simulation,
    integrated_cp,
    kendall_target_p,
    rectangle_weights,
)
from .errors import CapabilityError, ConcurError, DomainError, NumericError, ParseError
from .estimators import (
    BiasLawRow,
    BlockPlan,
    KendallEstimate,
    Sample,
    UnbiasedEstimate,
    bias_law_check,
    block_mse,
    dominance_counts,
    ecp_kendall,
    ecp_multivariate_log,
    jitter_ties,
    optimal_block_size,
    sample_cp_block,
    sample_cp_bootstrap,
    sample_cp_unbiased,
)
from .models import (
    BallIndicator,
    BrownResnick,
    ExponentialCorrelation,
    ExtremalProcess,
    ExtremalT,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    ModelSpec,
    PoweredExponentialCorrelation,
    QuadraticVariogram,
    SiteSet,
    Smith,
    ecp_ball_overlap,
    ecp_extremal_process,
    ecp_logistic,
    ecp_max_linear,
    exponent_V,
    extremal_coefficient,
    model_from_dict,
    model_to_dict,
    schlather,
    spectral_sample,
)
from .simulate import (
    FieldRealization,
    Partition,
    hitting_scenario,
    simulate_cell_labels,
    simulate_doa,
    simulate_logistic_exact,
    simulate_max_stable,
    simulate_max_stable_batch,
)
from .specfun import (
    CovarianceMatrix,
    SeededRng,
    gaussian_vector,
    log_binom_ratio,
    normal_cdf,
    reg_inc_beta,
    sample_positive_stable,
    student_cdf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
