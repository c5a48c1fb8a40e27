"""One whole-number rule for every count argument of the package.

A count (sites, replicates, draws, a block or sample size, a dimension, a
seed) is a Python or NumPy integer, never a bool, of at least a least value;
anything else raises DomainError "<name> must be a whole number >= <least>,
got <value>".  Before the rule was shared, some of these arguments truncated
2.5 to 2, some accepted True as 1, and some ended in a bare TypeError.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import concur
from concur import (
    BallIndicator,
    CovarianceMatrix,
    DomainError,
    Logistic,
    SeededRng,
    block_mse,
    ecp_ball_overlap,
    ecp_logistic,
    ecp_mc,
    ecp_simulation,
    gaussian_vector,
    log_binom_ratio,
    optimal_block_size,
    sample_positive_stable,
    simulate_cell_labels,
    simulate_doa,
    simulate_logistic_exact,
    simulate_max_stable,
    simulate_max_stable_batch,
    spectral_sample,
)
from concur.estimators import (
    bias_law_check,
    block_cp_batch,
    bootstrap_cp_batch,
    estimator,
    mvlog_batch,
    simulate_pair_batch,
)
from concur.pipeline import SeasonalExtremes, expected_cell_area_model, pairwise_matrix
from concur.specfun import unit_ball_volume
from concur.study import StudyConfig

PAIR = [[0.0], [1.0]]
STACK = np.arange(30.0).reshape(1, 10, 3) % 7.0
RNG = SeededRng(5)
EXTREMES = [SeasonalExtremes(s, "JJA", 2000 + y, float((3 * y + k) % 5), 1.0, "max")
            for k, s in enumerate("AB") for y in range(6)]

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
    ("block_cp_batch.m", 1, "block size", lambda v: block_cp_batch(STACK, v)),
    ("bootstrap_cp_batch.m", 2, "block size", lambda v: bootstrap_cp_batch(STACK, v)),
    ("mvlog_batch.subset", 0, "subset index", lambda v: mvlog_batch(STACK, subset=[v, 1])),
    ("estimator.block_size", 2, "block size", lambda v: estimator("bootstrap", v)),
    ("block_mse.m", 1, "m", lambda v: block_mse(10, v, 0.5)),
    ("block_mse.n", 1, "n", lambda v: block_mse(v, 1, 0.5)),
    ("optimal_block_size.n", 2, "n", lambda v: optimal_block_size(v, 0.5)),
    ("optimal_block_size.r", 1, "r", lambda v: optimal_block_size(100, 0.5, r=v)),
    ("StudyConfig.reps", 2, "reps", lambda v: StudyConfig("table1", "out", reps=v)),
    ("StudyConfig.sample_sizes", 2, "sample size",
     lambda v: StudyConfig("table1", "out", sample_sizes=(100, v))),
    ("StudyConfig.n0_levels", 1, "n0 level",
     lambda v: StudyConfig("table1", "out", n0_levels=(None, v))),
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
