"""One whole-number rule for every count argument of the package, one
real-number rule for every real parameter, and one real-array rule for
every array of real numbers.

A count (sites, replicates, draws, a block or sample size, a dimension, a
seed) is a Python or NumPy integer, never a bool, of at least a least value;
anything else raises DomainError "<name> must be a whole number >= <least>,
got <value>".  Before the rule was shared, some of these arguments truncated
2.5 to 2, some accepted True as 1, and some ended in a bare TypeError.

A real parameter (a shape, a scale, a probability, a lag) is a Python or
NumPy real number, never a bool, that is finite and lies in its interval;
anything else raises DomainError "<name> must be a finite number in
(<lo>, <hi>], got <value>", each bracket open or closed as the interval is.
Before that rule was shared, some of these parameters accepted True as 1,
some let inf through or returned NaN for NaN, and some ended in a bare
TypeError or OverflowError.

An array of real numbers (coordinates, sample values, weights, a matrix,
the lags and distances a variogram or correlation takes and the values it
returns) holds integers or floats,
never bools or text, each finite and in its interval; anything else raises
DomainError "<name> must be finite numbers in (<lo>, <hi>], got <first bad
entry>", or a short repr of the input when it is not an array of numbers.
Before that rule was shared, some of these arrays took bools as 0/1 and
numeric text as numbers, some let NaN, negative weights or latitude 95
through, and text or a ragged list ended in NumPy's bare ValueError.
"""

import ast
import math
import os
import re
import reprlib
from pathlib import Path

import numpy as np
import pytest

import concur
from concur import (
    BallIndicator,
    BrownResnick,
    CovarianceMatrix,
    DomainError,
    ExponentialCorrelation,
    ExtremalT,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    PoweredExponentialCorrelation,
    Sample,
    SeededRng,
    block_mse,
    concurrence_probability,
    ecp_ball_overlap,
    ecp_logistic,
    ecp_mc,
    ecp_simulation,
    exponent_V,
    gaussian_vector,
    jitter_ties,
    log_binom_ratio,
    optimal_block_size,
    reg_inc_beta,
    sample_positive_stable,
    simulate_cell_labels,
    simulate_doa,
    simulate_logistic_exact,
    simulate_max_stable,
    simulate_max_stable_batch,
    spectral_sample,
    student_cdf,
)
from concur.concurrence import integrated_cp, kendall_target_p, rectangle_weights
from concur.estimators import (
    ESTIMATORS,
    _as_stack,
    bias_law_check,
    dominance_counts,
    estimator,
    sample_cp_block,
    sample_cp_bootstrap,
    simulate_pair_batch,
)
from concur.models import (
    CORRELATIONS,
    MODELS,
    VARIOGRAMS,
    QuadraticVariogram,
    SiteSet,
    ball_overlap_fraction,
    model_from_dict,
)
from concur.pipeline import (
    IngestResult,
    SeasonalExtremes,
    cos_lat_weights,
    expected_cell_area_model,
    grid_map,
    haversine_km,
    pairwise_matrix,
    seasonal_blocks,
    write_realizations_csv,
)
from concur.specfun import unit_ball_volume
from concur.study import EXPERIMENTS, StudyConfig

PAIR = [[0.0], [1.0]]
STACK = np.arange(30.0).reshape(1, 10, 3) % 7.0
RNG = SeededRng(5)
EXTREMES = [SeasonalExtremes(s, "JJA", 2000 + y, float((3 * y + k) % 5), 1.0, "max")
            for k, s in enumerate("AB") for y in range(6)]
NO_RECORDS = IngestResult(np.rec.array(np.empty(0, dtype=[
    ("station_id", "U8"), ("lat", float), ("lon", float), ("date", "datetime64[D]"),
    ("tmin", float), ("tmax", float)])), {}, ())
STATIONS = [[40.0, -100.0], [41.0, -100.0], [40.0, -101.0]]

# (argument, least, name in the message, call with the value)
COUNTS = [
    ("SeededRng.seed", 0, "seed", lambda v: SeededRng(v)),
    ("SeededRng.stream_id", 0, "stream_id", lambda v: SeededRng(1, v)),
    ("substream.counter", 0, "substream counter", lambda v: RNG.substream(v)),
    ("log_binom_ratio.m", 1, "m", lambda v: log_binom_ratio(3, v, 5)),
    ("log_binom_ratio.n", 1, "n", lambda v: log_binom_ratio(0, 1, v)),
    ("unit_ball_volume.d", 1, "d", lambda v: unit_ball_volume(v)),
    ("gaussian_vector.size", 0, "size",
     lambda v: gaussian_vector(CovarianceMatrix(np.eye(2)), RNG, size=v)),
    ("sample_positive_stable.size", 0, "size",
     lambda v: sample_positive_stable(0.5, RNG, size=v)),
    ("BallIndicator.dim", 1, "dim", lambda v: BallIndicator(1.0, dim=v)),
    ("ecp_logistic.k", 2, "k", lambda v: ecp_logistic(0.5, v)),
    ("ecp_ball_overlap.dim", 1, "dim", lambda v: ecp_ball_overlap(0.5, 1.0, v)),
    ("spectral_sample.size", 0, "size",
     lambda v: spectral_sample(Logistic(0.5), PAIR, RNG, size=v)),
    ("simulate_max_stable_batch.reps", 1, "reps",
     lambda v: simulate_max_stable_batch(Logistic(0.5), PAIR, v, RNG)),
    ("ecp_simulation.reps", 1, "reps", lambda v: ecp_simulation(Logistic(0.5), PAIR, v, RNG)),
    ("simulate_logistic_exact.k", 1, "k", lambda v: simulate_logistic_exact(0.5, v, RNG)),
    ("simulate_logistic_exact.size", 0, "size",
     lambda v: simulate_logistic_exact(0.5, 2, RNG, size=v)),
    ("simulate_doa.n0", 1, "n0", lambda v: simulate_doa(Logistic(0.5), PAIR, v, RNG)),
    ("simulate_doa.size", 0, "size", lambda v: simulate_doa(Logistic(0.5), PAIR, 3, RNG, size=v)),
    ("ecp_mc.n_draws", 2, "n_draws", lambda v: ecp_mc(Logistic(0.5), PAIR, v, rng=RNG)),
    ("sample_cp_block.m", 1, "block size", lambda v: sample_cp_block(STACK, v)),
    ("sample_cp_bootstrap.m", 2, "block size", lambda v: sample_cp_bootstrap(STACK, v)),
    ("estimator.block_size", 2, "block size", lambda v: estimator("bootstrap", v)),
    ("block_mse.m", 1, "m", lambda v: block_mse(10, v, 0.5)),
    ("block_mse.n", 1, "n", lambda v: block_mse(v, 1, 0.5)),
    ("optimal_block_size.n", 2, "n", lambda v: optimal_block_size(v, 0.5)),
    ("optimal_block_size.r", 1, "r", lambda v: optimal_block_size(100, 0.5, r=v)),
    ("StudyConfig.reps", 2, "reps", lambda v: StudyConfig("table1", "out", reps=v)),
    ("StudyConfig.sample_sizes", 10, "sample size",
     lambda v: StudyConfig("table1", "out", sample_sizes=(100, v))),
    ("simulate_pair_batch.reps", 1, "reps",
     lambda v: simulate_pair_batch(Logistic(0.5), PAIR, v, 4, RNG)),
    ("simulate_pair_batch.n", 1, "n",
     lambda v: simulate_pair_batch(Logistic(0.5), PAIR, 4, v, RNG)),
    ("bias_law_check.reps", 1, "reps",
     lambda v: bias_law_check(Logistic(0.5), PAIR, [2], v, 10, RNG)),
    ("expected_cell_area_model.reps", 2, "reps",
     lambda v: expected_cell_area_model(BallIndicator(1.0), PAIR, np.ones(2), v, RNG)),
    ("pairwise_matrix.min_overlap", 0, "min_overlap",
     lambda v: pairwise_matrix(EXTREMES, min_overlap=v)),
    ("block_mse.r", 1, "r", lambda v: block_mse(10, 2, 0.5, r=v)),
]


@pytest.mark.parametrize("least, name, call", [c[1:] for c in COUNTS],
                         ids=[c[0] for c in COUNTS])
def test_a_count_is_a_whole_number_of_at_least_its_least(least, name, call):
    for bad in (True, np.True_, 2.5, least - 1):
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be a whole number >= {least}, got {bad!r}")):
            call(bad)
    call(np.int64(least))


@pytest.mark.parametrize("call", [
    lambda: simulate_max_stable_batch(Logistic(0.5), PAIR, 2, None),
    lambda: simulate_max_stable(Logistic(0.5), PAIR, None),
    lambda: simulate_cell_labels(Logistic(0.5), PAIR, 2, None),
    lambda: ecp_simulation(Logistic(0.5), PAIR, 2, None),
    lambda: expected_cell_area_model(BallIndicator(1.0), PAIR, np.ones(2), 2, None),
    lambda: ecp_mc(Logistic(0.5), PAIR, 10, rng=None),
], ids=["simulate_max_stable_batch", "simulate_max_stable", "simulate_cell_labels",
        "ecp_simulation", "expected_cell_area_model", "ecp_mc"])
def test_an_rng_is_required(call):
    with pytest.raises(DomainError, match="got NoneType"):
        call()


INF = math.inf
# (parameter, lo, hi, ends, name in the message, a value inside, call with the value)
REALS = [
    ("FractionalVariogram.scale", 0, INF, "()", "variogram scale", 2.0,
     lambda v: FractionalVariogram(v, 1.0)),
    ("FractionalVariogram.exponent", 0, 2, "(]", "variogram exponent", 1.5,
     lambda v: FractionalVariogram(1.0, v)),
    ("ExponentialCorrelation.scale", 0, INF, "()", "correlation scale", 2.0,
     lambda v: ExponentialCorrelation(v)),
    ("PoweredExponentialCorrelation.scale", 0, INF, "()", "correlation scale", 2.0,
     lambda v: PoweredExponentialCorrelation(v, 1.0)),
    ("PoweredExponentialCorrelation.power", 0, 2, "(]", "correlation power", 1.5,
     lambda v: PoweredExponentialCorrelation(1.0, v)),
    ("Logistic.alpha", 0, 1, "(]", "logistic alpha", 0.5, lambda v: Logistic(v)),
    ("ExtremalT.nu", 1, INF, "[)", "extremal-t nu", 2.5,
     lambda v: ExtremalT(ExponentialCorrelation(1.0), nu=v)),
    ("BallIndicator.radius", 0, INF, "()", "ball radius", 2.0, lambda v: BallIndicator(v)),
    ("ecp_logistic.alpha", 0, 1, "(]", "alpha", 0.5, lambda v: ecp_logistic(v, 2)),
    ("ball_overlap_fraction.h", 0, INF, "[)", "lag", 0.5,
     lambda v: ball_overlap_fraction(v, 1.0, 1)),
    ("ecp_ball_overlap.h", 0, INF, "[)", "lag", 0.5, lambda v: ecp_ball_overlap(v, 1.0)),
    ("ecp_ball_overlap.radius", 0, INF, "()", "ball radius", 2.0,
     lambda v: ecp_ball_overlap(0.5, v)),
    ("student_cdf.dof", 0, INF, "()", "degrees of freedom", 2.5, lambda v: student_cdf(0.0, v)),
    ("reg_inc_beta.a", 0, INF, "()", "beta parameter a", 2.5,
     lambda v: reg_inc_beta(v, 1.0, 0.5)),
    ("reg_inc_beta.b", 0, INF, "()", "beta parameter b", 2.5,
     lambda v: reg_inc_beta(1.0, v, 0.5)),
    ("sample_positive_stable.alpha", 0, 1, "()", "stable exponent", 0.5,
     lambda v: sample_positive_stable(v, RNG)),
    ("simulate_logistic_exact.alpha", 0, 1, "()", "alpha", 0.5,
     lambda v: simulate_logistic_exact(v, 2, RNG)),
    ("jitter_ties.resolution", 0, INF, "()", "resolution", 0.1,
     lambda v: jitter_ties(Sample(np.ones((3, 2))), v, RNG)),
    ("block_mse.p", 0, 1, "[]", "p", 0.5, lambda v: block_mse(10, 2, v)),
    ("block_mse.c_r", 0, INF, "()", "c_r", 2.0, lambda v: block_mse(10, 2, 0.5, c_r=v)),
    ("optimal_block_size.p", 0, 1, "()", "p", 0.5, lambda v: optimal_block_size(100, v)),
    ("optimal_block_size.c_r", 0, INF, "()", "c_r", 2.0,
     lambda v: optimal_block_size(100, 0.5, c_r=v)),
    ("seasonal_blocks.min_coverage", 0, 1, "[]", "min_coverage", 0.5,
     lambda v: seasonal_blocks(NO_RECORDS, "JJA", min_coverage=v)),
    ("grid_map.idw_power", 0, INF, "()", "idw_power", 2.0,
     lambda v: grid_map(STATIONS, np.full(3, 0.5), [40.5], [-100.5], idw_power=v)),
]


@pytest.mark.parametrize("lo, hi, ends, name, inside, call", [c[1:] for c in REALS],
                         ids=[c[0] for c in REALS])
def test_a_real_parameter_is_a_finite_number_in_its_interval(lo, hi, ends, name, inside, call):
    outside = []
    if math.isfinite(lo):
        outside += [lo - 1] + ([lo] if ends[0] == "(" else [])
    if math.isfinite(hi):
        outside += [hi + 1] + ([hi] if ends[1] == ")" else [])
    for bad in (True, np.True_, "0.5", math.nan, math.inf, -math.inf, 10 ** 400, *outside):
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be a finite number in {ends[0]}{lo}, {hi}{ends[1]}, "
                f"got {bad!r}")):
            call(bad)
    call(np.float64(inside))


def _fractional(h):
    return FractionalVariogram(1.0, 1.0)(h)


# (argument, lo, hi, ends, name in the message, a float64 array inside, call
# with the array, where a bad entry goes); the station coordinates are checked
# as numbers first, so their latitude and longitude rows test the ends only
ARRAYS = [
    ("SiteSet.coords", -INF, INF, "()", "site coordinates", [[0.0], [1.0]], SiteSet, ...),
    ("QuadraticVariogram.matrix", -INF, INF, "()", "quadratic variogram matrix", np.eye(2),
     QuadraticVariogram, ...),
    ("MaxLinear.phi", 0, INF, "[)", "phi entries", np.full((2, 2), 0.5), MaxLinear, ...),
    ("exponent_V.z", 0, INF, "()", "z", [1.0, 2.0],
     lambda v: exponent_V(Logistic(0.5), PAIR, v), ...),
    ("BrownResnick.variogram_values", 0, INF, "[)", "variogram values",
     [[0.0, 1.0], [1.0, 0.0]], lambda v: spectral_sample(BrownResnick(lambda h: v), PAIR, RNG),
     ...),
    ("BrownResnick.pair_variogram_value", 0, INF, "[)", "variogram values", 1.0,
     lambda v: concurrence_probability(BrownResnick(lambda h: v), PAIR), ...),
    ("ExtremalT.correlation_values", -1 - 1e-12, 1 + 1e-12, "[]", "correlation values",
     [[1.0, 0.5], [0.5, 1.0]], lambda v: spectral_sample(ExtremalT(lambda d: v), PAIR, RNG),
     ...),
    ("ExtremalT.pair_correlation_value", -1, 1, "[]", "correlation values", 0.5,
     lambda v: concurrence_probability(ExtremalT(lambda d: v), PAIR), ...),
    ("BrownResnick.tilted_variogram_values", 0, INF, "[)", "variogram values",
     [[0.0, 1.0], [1.0, 0.0]],
     lambda v: simulate_max_stable_batch(
         BrownResnick(lambda h: v if np.shape(h) == (2, 2, 1) else _fractional(h)), PAIR, 1, RNG),
     ...),
    ("FractionalVariogram.lags", -INF, INF, "()", "lags", [[0.5], [-1.0]],
     FractionalVariogram(1.0, 1.0), ...),
    ("QuadraticVariogram.lags", -INF, INF, "()", "lags", [[0.5, -1.0]],
     QuadraticVariogram(np.eye(2)), ...),
    ("ExponentialCorrelation.distances", -INF, INF, "()", "distances", [0.5, 1.0],
     ExponentialCorrelation(1.0), ...),
    ("PoweredExponentialCorrelation.distances", -INF, INF, "()", "distances", [0.5, 1.0],
     PoweredExponentialCorrelation(1.0, 1.5), ...),
    ("haversine_km.lat1", -90, 90, "[]", "lat1", [40.0, 41.0],
     lambda v: haversine_km(v, -100.0, 40.0, -100.0), ...),
    ("haversine_km.lon1", -180, 180, "[]", "lon1", [-100.0, -99.0],
     lambda v: haversine_km(40.0, v, 40.0, -100.0), ...),
    ("haversine_km.lat2", -90, 90, "[]", "lat2", [40.0, 41.0],
     lambda v: haversine_km(40.0, -100.0, v, -100.0), ...),
    ("haversine_km.lon2", -180, 180, "[]", "lon2", [-100.0, -99.0],
     lambda v: haversine_km(40.0, -100.0, 40.0, v), ...),
    ("CovarianceMatrix.entries", -INF, INF, "()", "covariance entries", np.eye(2),
     CovarianceMatrix, ...),
    ("reg_inc_beta.x", 0, 1, "[]", "beta argument", [0.25, 0.5],
     lambda v: reg_inc_beta(1.0, 1.0, v), ...),
    ("integrated_cp.weights", 0, INF, "()", "weights", [1.0, 2.0],
     lambda v: integrated_cp([0.5, 0.5], v), ...),
    ("integrated_cp.pairwise_p", -1e-9, 1 + 1e-9, "[]", "probabilities", [0.5, 0.5],
     lambda v: integrated_cp(v, [1.0, 1.0]), ...),
    ("Sample.data", -INF, INF, "()", "sample values", [[0.0, 1.0], [2.0, 3.0]], Sample, ...),
    ("_as_stack.data", -INF, INF, "()", "sample values", STACK, dominance_counts, ...),
    ("as_sites.sites", -INF, INF, "()", "site coordinates", PAIR,
     lambda v: concurrence_probability(Logistic(0.5), v), ...),
    ("MaxLinear.sites_of", -INF, INF, "()", "max-linear sites", [0.0, 1.0],
     lambda v: concurrence_probability(MaxLinear(np.full((2, 2), 0.5)), v), ...),
    ("kendall_target_p.pair", -INF, INF, "()", "site coordinates", PAIR,
     lambda v: kendall_target_p(Logistic(0.5), v), ...),
    ("rectangle_weights.grid_points", -INF, INF, "()", "grid points", [0.0, 1.0, 2.0],
     rectangle_weights, ...),
    ("grid_map.station_latlon", -INF, INF, "()", "station coordinates", STATIONS,
     lambda v: grid_map(v, np.full(3, 0.5), [40.5], [-100.5]), ...),
    ("grid_map.station_latitudes", -90, 90, "[]", "station latitudes", STATIONS,
     lambda v: grid_map(v, np.full(3, 0.5), [40.5], [-100.5]), (..., 0)),
    ("grid_map.station_longitudes", -180, 180, "[]", "station longitudes", STATIONS,
     lambda v: grid_map(v, np.full(3, 0.5), [40.5], [-100.5]), (..., 1)),
    ("grid_map.grid_lats", -90, 90, "[]", "grid latitudes", [40.5, 41.5],
     lambda v: grid_map(STATIONS, np.full(3, 0.5), v, [-100.5]), ...),
    ("grid_map.grid_lons", -180, 180, "[]", "grid longitudes", [-100.5, -99.5],
     lambda v: grid_map(STATIONS, np.full(3, 0.5), [40.5], v), ...),
    ("cos_lat_weights.grid_lats", -90, 90, "[]", "grid latitudes", [40.0, 41.0],
     lambda v: cos_lat_weights(v, [-100.0, -99.0]), ...),
    ("cos_lat_weights.grid_lons", -180, 180, "[]", "grid longitudes", [-100.0, -99.0],
     lambda v: cos_lat_weights([40.0, 41.0], v), ...),
    ("expected_cell_area_model.weights", 0, INF, "()", "weights", [1.0, 2.0],
     lambda v: expected_cell_area_model(BallIndicator(1.0), PAIR, v, 2, RNG), ...),
    ("log_binom_ratio.d", 0, 4, "[]", "d", [1.0, 2.0], lambda v: log_binom_ratio(v, 2, 5), ...),
    ("write_realizations_csv.values", -INF, INF, "()", "realization values", [[1.0, 2.0]],
     lambda v: write_realizations_csv(os.devnull, v), ...),
]


@pytest.mark.parametrize("lo, hi, ends, name, inside, call, spot", [c[1:] for c in ARRAYS],
                         ids=[c[0] for c in ARRAYS])
def test_an_array_of_reals_holds_finite_numbers_in_its_interval(lo, hi, ends, name, inside,
                                                                call, spot):
    def refused(value, got):
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be finite numbers in {ends[0]}{lo}, {hi}{ends[1]}, got {got}")):
            call(value)

    inside = np.array(inside, dtype=float)
    outside = []
    if math.isfinite(lo):
        outside += [lo - 1] + ([lo] if ends[0] == "(" else [])
    if math.isfinite(hi):
        outside += [hi + 1] + ([hi] if ends[1] == ")" else [])
    if spot is ...:
        # numeric text, a ragged list, a bool array and a list holding a bool
        # (which NumPy reads as 0 or 1) are not arrays of numbers
        with_bools = []
        for at, flag in ((0, True), (-1, np.False_)):
            value = inside.astype(object)
            value.flat[at] = flag
            with_bools.append(value.tolist())
        for value in (inside.astype(str).tolist(), [inside.tolist(), [0.0]],
                      inside.astype(bool), *with_bools):
            refused(value, reprlib.repr(value))
        outside += [math.nan, math.inf, -math.inf]
    for bad in outside:
        value = inside.copy()
        value[spot] = bad
        refused(value, repr(float(bad)))
    call(inside)


def test_a_float64_stack_is_checked_in_place():
    # every estimator reads its stack through _as_stack: a float64 one is not copied
    assert _as_stack(STACK)[0] is STACK


# (table, what its names are, call with a name)
LOOKUPS = [
    ("models", MODELS, "model name", lambda v: model_from_dict({"model": v})),
    ("variograms", VARIOGRAMS, "variogram family",
     lambda v: model_from_dict({"model": "brown_resnick", "variogram": {"family": v}})),
    ("correlations", CORRELATIONS, "correlation family",
     lambda v: model_from_dict({"model": "extremal_t", "correlation": {"family": v}})),
    ("estimators", ESTIMATORS, "estimator method", estimator),
    ("experiments", EXPERIMENTS, "experiment", lambda v: StudyConfig(v, "out")),
]


def test_station_values_are_numbers_or_absent():
    # NaN is an absent estimate; text ended in a bare ValueError, and a bool read as 0 or 1
    grid = grid_map(STATIONS + [[41.0, -101.0]], [0.5, 0.4, 0.6, math.nan], [40.5], [-100.5])
    assert np.isfinite(grid).all()
    for bad in (["a", "b", "c"], [0.5, True, 0.5], [0.5, np.True_, 0.5], np.ones(3, bool)):
        with pytest.raises(DomainError, match=re.escape(
                f"station values must be numbers, got {reprlib.repr(bad)}")):
            grid_map(STATIONS, bad, [40.5], [-100.5])


@pytest.mark.parametrize("table, what, call", [c[1:] for c in LOOKUPS],
                         ids=[c[0] for c in LOOKUPS])
def test_a_name_from_a_table_is_one_of_its_keys(table, what, call):
    # a list or other unhashable value ended in a bare TypeError
    for bad in ("nonesuch", [next(iter(table))], None, 1):
        with pytest.raises(DomainError, match=re.escape(
                f"unknown {what} {bad!r}; choose one of {tuple(table)}")):
            call(bad)


class _FiniteChecks(ast.NodeVisitor):
    """Where in a module an ``if`` whose test calls ``np.isfinite`` raises
    DomainError, as dotted class and function names."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_If(self, node):
        if any(isinstance(c, ast.Attribute) and c.attr == "isfinite"
               and isinstance(c.value, ast.Name) and c.value.id == "np"
               for c in ast.walk(node.test)) and any(
                isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
                and isinstance(r.exc.func, ast.Name) and r.exc.func.id == "DomainError"
                for stmt in node.body for r in ast.walk(stmt)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_function_tests_an_array_for_finite_numbers():
    # a hand-written "if not np.all(np.isfinite(a)): raise" took bools and
    # numeric text, and text or a ragged list ended in a bare ValueError first
    found = []
    for path in sorted(Path(concur.__file__).parent.glob("*.py")):
        finder = _FiniteChecks()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [f"{path.stem}.{name}" for name in finder.found]
    assert [f for f in found if f != "specfun._reals"] == []


class _IntegerChecks(ast.NodeVisitor):
    """Names of the functions of a module with an ``isinstance`` call that
    mentions ``np.integer``."""

    def __init__(self):
        self.scope, self.found = ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            if any(isinstance(a, ast.Attribute) and a.attr == "integer"
                   and isinstance(a.value, ast.Name) and a.value.id == "np"
                   for arg in node.args for a in ast.walk(arg)):
                self.found.add(self.scope[-1])
        self.generic_visit(node)


def test_one_function_tests_for_an_integer():
    checks = set()
    for path in sorted(Path(concur.__file__).parent.glob("*.py")):
        finder = _IntegerChecks()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        checks |= {f"{path.stem}.{name}" for name in finder.found}
    assert checks == {"specfun._whole"}


def _is_math_inf(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def test_no_range_check_compares_against_math_inf():
    # a hand-written "0 < x < math.inf" check lets True through and may end in
    # a bare TypeError; every such check is a call of specfun._real
    found = []
    for path in sorted(Path(concur.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                    _is_math_inf(side) for side in [node.left, *node.comparators]):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []
