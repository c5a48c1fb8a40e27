"""The public surface changes only on purpose: ``concur.__all__``, the
result records of the estimators and the two ``schema_version`` strings.
A change to any of them is recorded in CHANGES.md and made here too."""

import dataclasses

import concur
import concur.cli
import concur.study

PUBLIC_NAMES = [
    "BallIndicator", "BlockPlan", "BrownResnick", "CapabilityError", "ConcurError",
    "ConcurrenceEstimate", "CovarianceMatrix", "DomainError", "ExponentialCorrelation",
    "ExtremalProcess", "ExtremalT", "FractionalVariogram", "KendallEstimate", "Logistic",
    "MaxLinear", "ModelSpec", "NumericError", "ParseError", "PoweredExponentialCorrelation",
    "QuadraticVariogram", "Sample", "SeededRng", "SiteSet", "Smith", "UnbiasedEstimate",
    "block_mse", "concurrence", "concurrence_probability", "dominance_counts",
    "ecp_ball_overlap", "ecp_extremal_process", "ecp_kendall", "ecp_logistic",
    "ecp_max_linear", "ecp_mc", "ecp_multivariate_log", "ecp_simulation", "errors",
    "estimators", "exponent_V", "extremal_coefficient", "integrated_cp", "log_binom_ratio",
    "model_from_dict", "model_to_dict", "models", "normal_cdf", "optimal_block_size",
    "rectangle_weights", "reg_inc_beta", "sample_cp_block", "sample_cp_bootstrap",
    "sample_cp_unbiased", "sample_positive_stable", "schlather", "simulate",
    "simulate_cell_labels", "simulate_doa", "simulate_logistic_exact",
    "simulate_max_stable_batch", "specfun", "spectral_sample", "student_cdf",
]


def test_public_names_result_records_and_schema_versions():
    assert sorted(concur.__all__) == PUBLIC_NAMES
    assert all(hasattr(concur, name) for name in PUBLIC_NAMES)
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (concur.KendallEstimate, concur.UnbiasedEstimate)}
    assert fields == {"KendallEstimate": ["estimate", "stderr", "n"],
                      "UnbiasedEstimate": ["value", "clipped"]}
    assert concur.cli.SCHEMA_VERSION == "2"
    assert concur.study.SCHEMA_VERSION == "1"
