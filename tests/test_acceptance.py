"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Every criterion is evaluated at its stated scale and tolerance; tolerances
are binomial or replicate standard errors where the criterion says "SE".
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from concur import (
    BallIndicator,
    BrownResnick,
    ExtremalProcess,
    ExtremalT,
    CovarianceMatrix,
    ExponentialCorrelation,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    SeededRng,
    Smith,
    ecp_ball_overlap,
    ecp_extremal_process,
    ecp_kendall,
    ecp_logistic,
    ecp_max_linear,
    ecp_mc,
    ecp_multivariate_log,
    ecp_simulation,
    extremal_coefficient,
    integrated_cp,
    optimal_block_size,
    simulate_cell_labels,
    simulate_logistic_exact,
)
from concur.estimators import (
    block_mse,
    dominance_counts,
    sample_cp_block,
    sample_cp_bootstrap,
)
from concur.pipeline import ingest_csv, pairwise_matrix, seasonal_blocks, write_matrix_csv
from concur.study import StudyConfig, study_harness
from concur.synthetic import synthesize_station_csv

ROOT = SeededRng(0xACCE97)


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _within(value, target, tol):
    return abs(value - target) <= tol


# ---------------------------------------------------------------------------

def test_a1_closed_forms_vs_simulation_oracle():
    """A1: single-block hitting frequency over 1e5 fields vs closed forms."""
    t0 = time.time()
    reps = 100_000
    g = ROOT.substream(1).generator()
    cases = []
    for alpha in (0.25, 0.5, 0.75):
        for k in (2, 3):
            sites = np.arange(k, dtype=float)[:, None]
            cases.append((f"logistic(a={alpha}, k={k})", Logistic(alpha), sites,
                          ecp_logistic(alpha, k)))
    cases.append(("extremal process (0.2, 0.5)", ExtremalProcess(), [0.2, 0.5], 0.4))
    cases.append(("extremal process (0.1, 0.2, 0.5)", ExtremalProcess(),
                  [0.1, 0.2, 0.5], 0.2))
    for i in range(3):
        shape = [(3, 2), (4, 2), (5, 3)][i]
        raw = g.uniform(0.05, 1.0, size=shape)
        phi = raw / raw.sum(axis=0, keepdims=True)
        p, _ = ecp_max_linear(phi)
        cases.append((f"max-linear #{i + 1}", MaxLinear(phi),
                      list(range(shape[1])), p))
    for h in (0.4, 1.0, 1.6):
        cases.append((f"ball d=1 lag {h}", BallIndicator(radius=1.0, dim=1),
                      [[0.0], [h]], ecp_ball_overlap(h, 1.0, 1)))

    failures = []
    for idx, (name, model, sites, target) in enumerate(cases):
        est = ecp_simulation(model, sites, reps, ROOT.substream(100 + idx))
        tol = 3.0 * math.sqrt(max(target * (1 - target), 1e-12) / reps)
        if not _within(est.value, target, tol):
            failures.append(f"{name}: {est.value:.4f} vs {target:.4f} (tol {tol:.4f})")
    elapsed = time.time() - t0
    _report("A1", not failures and elapsed <= 120.0,
            f"{len(cases)} cases, worst OK, {elapsed:.0f}s"
            if not failures else "; ".join(failures))


def test_a2_kendall_tau_theorem():
    """A2: Kendall tau on 1e4 exact logistic samples equals 1 - alpha."""
    results = []
    for i, (alpha, target) in enumerate([(0.5, 0.5), (0.25, 0.75)]):
        data = simulate_logistic_exact(alpha, 2, ROOT.substream(200 + i), size=10_000)
        est = ecp_kendall(data)
        results.append((alpha, est.estimate, target))
    ok = all(_within(est, target, 0.02) for _, est, target in results)
    _report("A2", ok, ", ".join(
        f"alpha={a}: tau={e:.4f} (target {t})" for a, e, t in results))


def test_a3_benchmark_table_reproduction():
    """A3: extremal-t benchmark table (m=10, n=100, n0 in {1, 10, inf})."""
    t0 = time.time()
    paper = {
        (0.25, "1"): (0.41, 0.35, 0.46), (0.25, "10"): (0.34, 0.26, 0.31),
        (0.25, "inf"): (0.33, 0.25, 0.25),
        (0.50, "1"): (0.65, 0.61, 0.71), (0.50, "10"): (0.57, 0.52, 0.57),
        (0.50, "inf"): (0.55, 0.50, 0.50),
        (0.75, "1"): (0.83, 0.82, 0.87), (0.75, "10"): (0.78, 0.76, 0.80),
        (0.75, "inf"): (0.78, 0.75, 0.75),
    }
    order = {"bootstrap": 0, "unbiased": 1, "kendall": 2}
    cfg = StudyConfig(experiment="table1", out_dir="/tmp/concur_acceptance_table1",
                      seed=0xA3, reps=500, sample_sizes=(100,))
    rows = study_harness(cfg)["rows"]
    failures = []
    worst = 0.0
    for row in rows:
        target = paper[(row["p_target"], str(row["n0"]))][order[row["estimator"]]]
        diff = abs(row["mean"] - target)
        worst = max(worst, diff)
        if diff > 0.03:
            failures.append(f"p={row['p_target']} n0={row['n0']} "
                            f"{row['estimator']}: {row['mean']:.3f} vs {target}")
    elapsed = time.time() - t0
    _report("A3", not failures and elapsed <= 900.0,
            f"27 cells within 0.03 (worst {worst:.3f}), {elapsed:.0f}s"
            if not failures else "; ".join(failures))


def test_a4_bias_law():
    """A4: mean block estimate matches p + (1-p)/m for m in {5, 10, 20}."""
    reps, n = 2000, 200
    data = simulate_logistic_exact(0.5, 2, ROOT.substream(400),
                                   size=reps * n).reshape(reps, n, 2)
    details = []
    ok = True
    for m in (5, 10, 20):
        est = sample_cp_block(data, m)
        theory = 0.5 + 0.5 / m
        se = est.std(ddof=1) / math.sqrt(reps)
        ok &= _within(est.mean(), theory, 3 * se)
        details.append(f"m={m}: {est.mean():.4f} vs {theory:.4f} (3se {3 * se:.4f})")
    _report("A4", ok, ", ".join(details))


def test_a5_anchor_value_and_planner():
    """A5: BR gamma(1)=1/1.627 gives p=0.5; planner matches brute force."""
    model = BrownResnick(FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
    est = ecp_mc(model, [[0.0], [1.0]], 10**6, antithetic=True, rng=ROOT.substream(500))
    plan = optimal_block_size(1000, 0.5, r=1, c_r=0.5)
    brute = min(range(2, 1001), key=lambda m: block_mse(1000, m, 0.5, 1, 0.5))
    ok = _within(est.value, 0.5, 0.005) and plan.m == 13 and abs(plan.m - brute) <= 2
    _report("A5", ok,
            f"p={est.value:.4f} (+-{est.stderr:.4f}), planner m={plan.m}, brute m={brute}")


def test_a6_rao_blackwell():
    """A6: Var(bootstrap) <= Var(block); exact permutation-average identity."""
    reps, n, m = 2000, 100, 10
    data = simulate_logistic_exact(0.5, 2, ROOT.substream(600),
                                   size=reps * n).reshape(reps, n, 2)
    v_block = sample_cp_block(data, m).var(ddof=1)
    v_boot = sample_cp_bootstrap(data, m).var(ddof=1)

    g = ROOT.substream(601).generator()
    exact_ok = True
    for n_small, m_small in ((5, 2), (6, 2), (7, 3), (7, 2)):
        x = g.standard_normal((n_small, 2))
        d = dominance_counts(x)
        formula = sum(Fraction(math.comb(int(di), m_small - 1),
                               math.comb(n_small, m_small)) for di in d)
        enum = _permutation_average(x, m_small)
        exact_ok &= formula == enum
        exact_ok &= abs(sample_cp_bootstrap(x, m_small) - float(formula)) < 1e-12
    ok = v_boot <= v_block and exact_ok
    _report("A6", ok,
            f"var block {v_block:.5f} >= var bootstrap {v_boot:.5f}; "
            f"permutation identity exact for n<=7: {exact_ok}")


def _permutation_average(x, m):
    n = x.shape[0]
    nb = n // m
    total = Fraction(0)
    count = 0
    for perm in itertools.permutations(range(n)):
        arr = x[list(perm)]
        hits = 0
        for b in range(nb):
            blk = arr[b * m:(b + 1) * m]
            for l in range(m):
                if all((blk[i] < blk[l]).all() for i in range(m) if i != l):
                    hits += 1
                    break
        total += Fraction(hits, nb)
        count += 1
    return total / count


def test_a7_integrated_cp_equals_cell_volume():
    """A7: quadrature of pairwise p equals the mean simulated cell length."""
    model = BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0))
    grid = np.arange(0.0, 20.0001, 0.5)
    anchor = 20  # site at 10.0
    weights = np.full(grid.size, 0.5)

    p_vals = np.empty(grid.size)
    p_errs = np.zeros(grid.size)
    for g_idx, s in enumerate(grid):
        h = abs(s - grid[anchor])
        if h == 0.0:
            p_vals[g_idx] = 1.0
            continue
        est = ecp_mc(model, [[0.0], [h]], 200_000, antithetic=True,
                     rng=ROOT.substream(700 + g_idx))
        p_vals[g_idx] = est.value
        p_errs[g_idx] = est.stderr
    icp = integrated_cp(p_vals, weights)
    icp_se = math.sqrt(float(((weights * p_errs) ** 2).sum()))

    labels = simulate_cell_labels(model, grid[:, None], 2000, ROOT.substream(790))
    member = labels == labels[:, anchor][:, None]
    lengths = member @ weights
    cell_mean = lengths.mean()
    cell_se = lengths.std(ddof=1) / math.sqrt(len(lengths))

    tol = 3.0 * math.hypot(icp_se, cell_se)
    ok = _within(cell_mean, icp, tol)
    _report("A7", ok,
            f"integrated {icp:.3f} (+-{icp_se:.4f}) vs cell mean {cell_mean:.3f} "
            f"(+-{cell_se:.4f}), tol {tol:.3f}")


def test_a8_bounds_suite():
    """A8: theta bounds and the spectral-minimum upper bound, 50 random cases."""
    g = ROOT.substream(800).generator()
    violations = []
    pair = [[0.0], [1.0]]
    for case in range(50):
        family = case % 6
        if family == 0:
            model = Logistic(g.uniform(0.05, 1.0))
            p, theta, tol = 1 - model.alpha, 2.0 ** model.alpha, 1e-12
        elif family == 1:
            raw = g.uniform(0.02, 1.0, size=(int(g.integers(2, 6)), 2))
            phi = raw / raw.sum(axis=0, keepdims=True)
            model = MaxLinear(phi)
            p, _ = ecp_max_linear(phi)
            theta, tol = extremal_coefficient(model, [0, 1]), 1e-12
            bound = phi.min(axis=1).sum()
            if p > bound + 1e-12:
                violations.append(f"max-linear spectral-min bound case {case}")
        elif family == 2:
            s1 = g.uniform(0.05, 0.9)
            s2 = g.uniform(s1 + 0.01, 1.0)
            model = ExtremalProcess()
            p = ecp_extremal_process([s1, s2])
            theta, tol = extremal_coefficient(model, [s1, s2]), 1e-12
        elif family == 3:
            model = BallIndicator(radius=g.uniform(0.3, 2.0), dim=int(g.integers(1, 4)))
            h = g.uniform(0.0, 2.2 * model.radius)
            sites = np.zeros((2, model.dim))
            sites[1, 0] = h if h > 0 else 0.37
            p = ecp_ball_overlap(float(sites[1, 0]), model.radius, model.dim)
            theta, tol = extremal_coefficient(model, sites), 1e-12
        elif family == 4:
            model = BrownResnick(FractionalVariogram(scale=g.uniform(0.05, 3.0),
                                                     exponent=g.uniform(0.3, 2.0)))
            est = ecp_mc(model, pair, 200_000, antithetic=True,
                         rng=ROOT.substream(900 + case))
            p, theta, tol = est.value, extremal_coefficient(model, pair), 5 * est.stderr
        else:
            model = ExtremalT(ExponentialCorrelation(g.uniform(0.5, 20.0)),
                              nu=g.uniform(1.0, 8.0))
            est = ecp_mc(model, pair, 200_000, antithetic=True,
                         rng=ROOT.substream(900 + case))
            p, theta, tol = est.value, extremal_coefficient(model, pair), 5 * est.stderr
        lo, hi = 0.5 * (2.0 - theta), 2.0 * (2.0 - theta)
        if not (lo - tol <= p <= hi + tol):
            violations.append(f"case {case} ({type(model).__name__}): "
                              f"p={p:.4f} outside [{lo:.4f}, {hi:.4f}] tol {tol:.1e}")
    smith = Smith(CovarianceMatrix(np.array([[0.8]])))
    est = ecp_mc(smith, pair, 200_000, antithetic=True, rng=ROOT.substream(999))
    theta = extremal_coefficient(smith, pair)
    if not (0.5 * (2 - theta) - 5 * est.stderr <= est.value <= 2 * (2 - theta) + 5 * est.stderr):
        violations.append("smith bounds")
    _report("A8", not violations,
            "50 parameterizations + smith, zero violations"
            if not violations else "; ".join(violations))


def test_a9_multivariate_log_estimator():
    """A9: trivariate log estimator near 0.375; jackknife does not add bias."""
    data = simulate_logistic_exact(0.5, 3, ROOT.substream(910), size=10_000)
    plain_big = ecp_multivariate_log(data)
    jack_big = ecp_multivariate_log(data, jackknife=True)
    ok_point = _within(plain_big, 0.375, 0.03)

    reps, n = 30, 2000
    plains = np.empty(reps)
    jacks = np.empty(reps)
    for r in range(reps):
        d = simulate_logistic_exact(0.5, 3, ROOT.substream(920 + r), size=n)
        plains[r] = ecp_multivariate_log(d)
        jacks[r] = ecp_multivariate_log(d, jackknife=True)
    bias_plain = abs(plains.mean() - 0.375)
    bias_jack = abs(jacks.mean() - 0.375)
    se_diff = (jacks - plains).std(ddof=1) / math.sqrt(reps)
    se_mean = plains.std(ddof=1) / math.sqrt(reps)
    ok_jack = bias_jack <= bias_plain + 2 * se_diff + 0.5 * se_mean
    _report("A9", ok_point and ok_jack,
            f"n=1e4: {plain_big:.4f} (jack {jack_big:.4f}) vs 0.375; replicate "
            f"bias plain {bias_plain:.4f} vs jack {bias_jack:.4f}")


def test_a10_pipeline_metamorphic_and_synthetic(tmp_path):
    """A10: metamorphic pipeline checks + synthetic end-to-end recovery."""
    stations = ["A", "B", "C", "D"]
    coords = np.array([[40.0, -100.0], [41.0, -101.0], [42.0, -99.0], [39.5, -98.5]])
    raw = tmp_path / "raw.csv"
    synthesize_station_csv(raw, Logistic(0.5), stations, coords,
                           years=range(1920, 2020), rng=ROOT.substream(1000),
                           season="JJA")
    result = ingest_csv(raw)
    ex_max = seasonal_blocks(result, "JJA", "max")
    ex_min = seasonal_blocks(result, "JJA", "negated_min")
    m_max = pairwise_matrix(ex_max)
    m_min = pairwise_matrix(ex_min)

    polarity_ok = np.array_equal(m_max.estimates, m_min.estimates, equal_nan=True)
    symmetric_ok = (np.array_equal(m_max.estimates, m_max.estimates.T)
                    and np.all(np.diag(m_max.estimates) == 1.0))

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    write_matrix_csv(pairwise_matrix(seasonal_blocks(ingest_csv(raw), "JJA", "max")), out_a)
    write_matrix_csv(pairwise_matrix(seasonal_blocks(ingest_csv(raw), "JJA", "max")), out_b)
    determinism_ok = out_a.read_bytes() == out_b.read_bytes()

    recover_ok = True
    detail_pairs = []
    for i in range(4):
        for j in range(i + 1, 4):
            est, se = m_max.estimates[i, j], m_max.stderr[i, j]
            detail_pairs.append(f"{est:.2f}")
            if abs(est - 0.5) > 3.0 * se:
                recover_ok = False
    ok = polarity_ok and symmetric_ok and determinism_ok and recover_ok
    _report("A10", ok,
            f"polarity {polarity_ok}, symmetry {symmetric_ok}, determinism "
            f"{determinism_ok}, recovery of p=0.5 within 3 SE: {recover_ok} "
            f"(pairs: {', '.join(detail_pairs)})")
