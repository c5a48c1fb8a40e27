"""Max-stable simulation: margins, hitting scenarios, exact samplers, doa."""

import math

import numpy as np
import pytest
import scipy.stats

from concur import (
    BallIndicator,
    BrownResnick,
    CapabilityError,
    CovarianceMatrix,
    DomainError,
    ExponentialCorrelation,
    ExtremalProcess,
    ExtremalT,
    FieldRealization,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    Partition,
    PoweredExponentialCorrelation,
    QuadraticVariogram,
    SeededRng,
    Smith,
    concurrence_probability,
    ecp_logistic,
    ecp_mc,
    ecp_simulation,
    hitting_scenario,
    simulate_cell_labels,
    simulate_doa,
    simulate_logistic_exact,
    simulate_max_stable,
    simulate_max_stable_batch,
)
from concur.estimators import kendall_batch
from concur.simulate import _extremal_functions, write_realizations_csv
from conftest import binomial_3se

PAIR = [[0.0], [1.0]]


class TestPartition:
    def test_grouping_examples(self):
        assert Partition.from_labels([7, 7, 7]).blocks == ((0, 1, 2),)
        assert Partition.from_labels([3, 5, 9]).blocks == ((0,), (1,), (2,))
        assert Partition.from_labels([7, 7, 9]).blocks == ((0, 1), (2,))

    def test_properties(self):
        p = Partition.from_labels([2, 4, 2, 4])
        assert p.n_blocks == 2 and p.k == 4 and not p.is_concurrent
        assert Partition.from_labels([1, 1]).is_concurrent

    def test_validation(self):
        with pytest.raises(DomainError):
            Partition(blocks=((0, 1), (1, 2)))
        with pytest.raises(DomainError):
            Partition(blocks=((0,), (2,)))

    def test_hitting_scenario_requires_indices(self):
        real = FieldRealization(values=np.array([1.0, 2.0]), hit_index=None)
        with pytest.raises(CapabilityError):
            hitting_scenario(real)

    def test_hitting_scenario_of_realization(self, rng):
        real = simulate_max_stable(BallIndicator(radius=5.0, dim=1), PAIR, rng)
        part = hitting_scenario(real)
        assert part.k == 2


class TestReproducibility:
    @pytest.mark.parametrize("model,sites", [
        (Logistic(0.5), PAIR),
        (BrownResnick(FractionalVariogram(1.0, 1.0)), PAIR),
        (MaxLinear(np.array([[0.3, 0.6], [0.7, 0.4]])), [0, 1]),
        (ExtremalProcess(), [0.2, 0.5]),
    ])
    def test_bit_identical(self, model, sites):
        a = simulate_max_stable_batch(model, sites, 200, SeededRng(5, 9))
        b = simulate_max_stable_batch(model, sites, 200, SeededRng(5, 9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = simulate_max_stable_batch(model, sites, 200, SeededRng(5, 10))
        assert not np.array_equal(a[0], c[0])


MARGIN_MODELS = [
    (Logistic(0.5), PAIR),
    (Logistic(0.75), [[0.0], [1.0], [2.0]]),
    (MaxLinear(np.array([[0.75, 0.25], [0.25, 0.75]])), [0, 1]),
    (ExtremalProcess(), [0.2, 0.5]),
    (BallIndicator(radius=1.0, dim=1), [[0.0], [0.5]]),
    (Smith(CovarianceMatrix(np.array([[1.0]]))), PAIR),
    (BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0)), PAIR),
    (ExtremalT(ExponentialCorrelation(10.0), nu=5.0), PAIR),
]


class TestMargins:
    @pytest.mark.parametrize("case", range(len(MARGIN_MODELS)))
    def test_unit_frechet_margins(self, case):
        # ~60 simultaneous comparisons across the battery: the per-comparison
        # bound is Bonferroni-widened from 3 to 3.9 SE (family-wise ~0.6%)
        model, sites = MARGIN_MODELS[case]
        reps = 20_000
        values, _ = simulate_max_stable_batch(model, sites, reps, SeededRng(909, case))
        assert np.all(values > 0)
        for z in (0.5, 1.0, 2.0):
            target = math.exp(-1.0 / z)
            se = binomial_3se(target, reps) / 3.0
            for j in range(values.shape[1]):
                emp = (values[:, j] <= z).mean()
                assert abs(emp - target) < 3.9 * se, (
                    f"margin at z={z}, site {j}: {emp} vs {target}")


class TestHittingFrequencies:
    """Empirical concurrence frequency against closed forms (central oracle)."""

    def test_logistic(self, rng):
        for i, (alpha, k) in enumerate([(0.5, 2), (0.75, 3)]):
            sites = np.arange(k, dtype=float)[:, None]
            est = ecp_simulation(Logistic(alpha), sites, 30_000, rng.substream(i))
            target = ecp_logistic(alpha, k)
            assert abs(est.value - target) < 3 * est.stderr + 1e-9

    def test_extremal_process(self, rng):
        est = ecp_simulation(ExtremalProcess(), [0.2, 0.5], 30_000, rng.substream(10))
        assert abs(est.value - 0.4) < binomial_3se(0.4, 30_000)

    def test_max_linear(self, rng):
        model = MaxLinear(np.array([[0.75, 0.25], [0.25, 0.75]]))
        est = ecp_simulation(model, [0, 1], 30_000, rng.substream(11))
        assert abs(est.value - 0.5) < binomial_3se(0.5, 30_000)

    def test_ball_indicator(self, rng):
        est = ecp_simulation(BallIndicator(radius=1.0, dim=1), [[0.0], [0.5]],
                             30_000, rng.substream(12))
        assert abs(est.value - 0.6) < binomial_3se(0.6, 30_000)

    def test_ball_huge_radius_near_full_dependence(self, rng):
        est = ecp_simulation(BallIndicator(radius=500.0, dim=1), [[0.0], [1.0]],
                             5_000, rng.substream(13))
        assert est.value > 0.99

    def test_extremal_t_vs_mc_formula(self, rng):
        model = ExtremalT(ExponentialCorrelation(10.0), nu=5.0)
        sim = ecp_simulation(model, [[0.0], [5.0]], 30_000, rng.substream(14))
        mc = ecp_mc(model, [[0.0], [5.0]], 300_000, antithetic=True, rng=rng.substream(15))
        assert abs(sim.value - mc.value) < 3 * math.hypot(sim.stderr, mc.stderr) + 0.01

    def test_smith_vs_mc_formula(self, rng):
        model = Smith(CovarianceMatrix(np.array([[1.0]])))
        sim = ecp_simulation(model, PAIR, 30_000, rng.substream(16))
        mc = ecp_mc(model, PAIR, 300_000, antithetic=True, rng=rng.substream(17))
        assert abs(sim.value - mc.value) < 3 * math.hypot(sim.stderr, mc.stderr)

    def test_brown_resnick_quadratic_planar(self, rng):
        model = BrownResnick(QuadraticVariogram(np.array([[1.2, 0.4], [0.4, 2.0]])))
        sites = np.array([[0.0, 0.0], [0.8, 0.5]])
        sim = ecp_simulation(model, sites, 20_000, rng.substream(20))
        mc = ecp_mc(model, sites, 200_000, antithetic=True, rng=rng.substream(21))
        assert abs(sim.value - mc.value) < 3 * math.hypot(sim.stderr, mc.stderr) + 0.01

    def test_extremal_t_powered_exponential(self, rng):
        model = ExtremalT(PoweredExponentialCorrelation(scale=5.0, power=1.5), nu=3.0)
        sim = ecp_simulation(model, [[0.0], [2.0]], 20_000, rng.substream(22))
        mc = ecp_mc(model, [[0.0], [2.0]], 200_000, antithetic=True, rng=rng.substream(23))
        assert abs(sim.value - mc.value) < 3 * math.hypot(sim.stderr, mc.stderr) + 0.01

    @pytest.mark.parametrize("case,model,sites", [
        (0, BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0)), [[0.0], [1.5]]),
        (1, BrownResnick(QuadraticVariogram(np.array([[1.2, 0.4], [0.4, 2.0]]))),
         [[0.0, 0.0], [0.8, 0.5]]),
        (2, ExtremalT(ExponentialCorrelation(10.0), nu=5.0), [[0.0], [5.0]]),
        (3, ExtremalT(PoweredExponentialCorrelation(scale=2.0, power=1.5), nu=1.0),
         [[0.0, 0.0], [0.9, 0.4]]),
    ])
    def test_extremal_functions_vs_quadrature(self, rng, case, model, sites):
        # exact simulation: no slack beyond the simulation's own 3 SE
        sim = ecp_simulation(model, sites, 30_000, rng.substream(60 + case))
        target = concurrence_probability(model, sites).value
        assert abs(sim.value - target) < binomial_3se(target, 30_000)

    def test_smith_planar(self, rng):
        sig = np.array([[1.0, 0.3], [0.3, 0.8]])
        model = Smith(CovarianceMatrix(sig))
        sites = np.array([[0.0, 0.0], [1.0, 0.6]])
        sim = ecp_simulation(model, sites, 20_000, rng.substream(18))
        mc = ecp_mc(model, sites, 200_000, antithetic=True, rng=rng.substream(19))
        assert abs(sim.value - mc.value) < 3.5 * math.hypot(sim.stderr, mc.stderr)


class TestMaxStability:
    @pytest.mark.parametrize("make", [
        lambda rng, n: simulate_logistic_exact(0.5, 2, rng, size=n),
        lambda rng, n: simulate_max_stable_batch(
            BallIndicator(radius=1.0, dim=1), PAIR, n, rng)[0],
    ])
    def test_rescaled_maxima_same_law(self, rng, make):
        n = 20_000
        m = 5
        single = make(rng.substream(30), n)
        stack = make(rng.substream(31), n * m).reshape(n, m, 2)
        combined = stack.max(axis=1) / m
        for probe in (lambda v: v[:, 0], lambda v: v[:, 1],
                      lambda v: v.min(axis=1), lambda v: v.max(axis=1)):
            p = scipy.stats.ks_2samp(probe(single), probe(combined)).pvalue
            assert p > 0.01


class TestLogisticExact:
    def test_joint_cdf_probe(self, rng):
        n = 50_000
        x = simulate_logistic_exact(0.25, 3, rng.substream(40), size=n)
        target = math.exp(-(3.0 ** 0.25))
        emp = (x <= 1.0).all(axis=1).mean()
        assert abs(emp - target) < binomial_3se(target, n)

    def test_kendall_tau_matches_one_minus_alpha(self, rng):
        x = simulate_logistic_exact(0.5, 2, rng.substream(41), size=10_000)
        tau = kendall_batch(x[None, :, :])[0]
        assert abs(tau - 0.5) < 0.02

    def test_independence_limit(self, rng):
        x = simulate_logistic_exact(0.999, 2, rng.substream(42), size=10**5)
        tau = scipy.stats.kendalltau(x[:, 0], x[:, 1]).statistic
        assert abs(tau) < 0.01

    def test_domain(self, rng):
        with pytest.raises(DomainError):
            simulate_logistic_exact(1.0, 2, rng)
        with pytest.raises(DomainError):
            simulate_logistic_exact(0.5, 0, rng)


class TestDomainOfAttraction:
    def test_bias_trend_toward_max_stable(self, rng):
        # benchmark pair with p = 0.5; Kendall means shrink toward 0.5
        model = ExtremalT(ExponentialCorrelation(10.0), nu=5.0)
        sites = [[0.0], [1.1082]]
        reps, n = 300, 100
        means = {}
        for i, n0 in enumerate((1, 10, 15)):
            data = simulate_doa(model, sites, n0, rng.substream(50 + i),
                                size=reps * n).reshape(reps, n, 2)
            means[n0] = kendall_batch(data, tie_adjusted=True).mean()
        assert abs(means[1] - 0.71) < 0.02
        assert abs(means[10] - 0.57) < 0.02
        assert abs(means[15] - 0.55) < 0.02
        assert means[1] > means[10] > means[15]
        values, _ = simulate_max_stable_batch(model, sites, reps * n, rng.substream(59))
        tau_inf = kendall_batch(values.reshape(reps, n, 2), tie_adjusted=True).mean()
        assert abs(tau_inf - 0.50) < 0.02
        assert means[15] > tau_inf

    def test_margins_positive_and_shapes(self, rng):
        y = simulate_doa(Logistic(0.5), PAIR, 5, rng, size=100)
        assert y.shape == (100, 2) and np.all(y > 0)
        single = simulate_doa(Logistic(0.5), PAIR, 5, rng)
        assert single.shape == (2,)

    def test_domain(self, rng):
        with pytest.raises(DomainError):
            simulate_doa(Logistic(0.5), PAIR, 0, rng)


class TestCellLabels:
    def test_full_grid_cell_for_huge_ball(self, rng):
        grid = np.linspace(0.0, 3.0, 7)[:, None]
        labels = simulate_cell_labels(BallIndicator(radius=200.0, dim=1), grid,
                                      300, rng)
        frac_full = (labels == labels[:, :1]).all(axis=1).mean()
        assert frac_full > 0.97

    def test_brown_resnick_cell_fraction(self, rng):
        grid = np.arange(20, dtype=float)[:, None]
        model = BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0))
        labels = simulate_cell_labels(model, grid, 300, rng.substream(1))
        frac = (labels == labels[:, 10][:, None]).mean()
        assert 0.0 < frac < 1.0

    def test_independent_sites_singleton_cells(self, rng):
        # effectively independent: enormous variogram.  Every other column of
        # a tilted profile underflows to 0, and the loop at each site still
        # ends because the tilted column itself is exactly 1
        model = BrownResnick(FractionalVariogram(scale=1e8, exponent=1.0))
        labels = simulate_cell_labels(model, PAIR, 400, rng.substream(2))
        assert (labels[:, 0] == labels[:, 1]).mean() < 0.02
        labels = simulate_cell_labels(model, np.arange(6.0)[:, None], 50, rng.substream(3))
        assert np.array_equal(labels, np.tile(np.arange(6), (50, 1)))

    def test_extremal_functions_per_realization(self, rng):
        # Dombry, Engelke & Oesting (2016): a realization draws k profiles
        # on average (the A7 grid, k = 41)
        model = BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0))
        sites = model.sites_of(np.arange(41)[:, None] * 0.5)
        values, hits, drawn = _extremal_functions(model.tilted_sampler(sites), 41,
                                                  rng.substream(4).generator(), 2000)
        se = drawn.std(ddof=1) / math.sqrt(drawn.size)
        assert abs(drawn.mean() - 41) < 3 * se
        # labels are the ordinals 0..m-1 of the extremal functions, each
        # attaining at least one site
        for row in hits:
            assert np.array_equal(np.unique(row), np.arange(row.max() + 1))
        assert np.all(values > 0)


class TestControlsAndExport:
    @pytest.mark.parametrize("reps", [2.5, 0, -3])
    def test_reps_must_be_a_positive_integer(self, rng, reps):
        with pytest.raises(DomainError):
            simulate_max_stable_batch(Logistic(0.5), PAIR, reps, rng=rng)
        with pytest.raises(DomainError):
            ecp_simulation(Logistic(0.5), PAIR, reps, rng=rng)

    def test_smith_site_dimension_must_match_sigma(self, rng):
        model = Smith(CovarianceMatrix(np.array([[1.0, 0.2], [0.2, 2.0]])))
        with pytest.raises(DomainError):
            simulate_max_stable_batch(model, PAIR, 10, rng=rng)
        with pytest.raises(DomainError):
            ecp_simulation(model, PAIR, 10, rng=rng)

    def test_csv_export(self, rng, tmp_path):
        values, hits = simulate_max_stable_batch(Logistic(0.5), PAIR, 10, rng)
        path = tmp_path / "fields.csv"
        write_realizations_csv(path, values, hits)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "site_0,site_1,hit_0,hit_1"
        assert len(rows) == 11
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(back[:, :2], values, rtol=0, atol=0)
