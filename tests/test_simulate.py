"""Max-stable simulation: margins, hitting scenarios, exact samplers, doa."""

import math

import numpy as np
import pytest
import scipy.stats

from concur import (
    BallIndicator,
    BrownResnick,
    CovarianceMatrix,
    DomainError,
    ExponentialCorrelation,
    ExtremalProcess,
    ExtremalT,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    PoweredExponentialCorrelation,
    QuadraticVariogram,
    SeededRng,
    Smith,
    concurrence_probability,
    ecp_kendall,
    ecp_logistic,
    ecp_mc,
    ecp_simulation,
    model_from_dict,
    simulate_cell_labels,
    simulate_doa,
    simulate_logistic_exact,
    simulate_max_stable_batch,
)
from concur.models import spectral_sampler
from concur.pipeline import write_realizations_csv
from concur.simulate import _extremal_functions
from concur.specfun import as_generator
from conftest import binomial_3se

PAIR = [[0.0], [1.0]]


def test_hitting_scenario_of_realization(rng):
    values, hits = simulate_max_stable_batch(BallIndicator(radius=5.0, dim=1), PAIR, 1, rng)
    assert values.shape == hits.shape == (1, 2)
    assert hits.dtype == np.int64 and hits.min() == 0


@pytest.mark.parametrize("model, sites", [
    (BrownResnick(FractionalVariogram(scale=0.5, exponent=1.0)), np.arange(8.0)[:, None]),
    (ExtremalT(ExponentialCorrelation(2.0), nu=3.0), np.arange(6.0)[:, None]),
    (BallIndicator(radius=1.2, dim=1), np.arange(6.0)[:, None] * 0.5),
], ids=["brown_resnick", "extremal_t", "ball_indicator"])
def test_hitting_scenario_blocks_in_order_of_least_site(model, sites, rng):
    # the extremal functions are found site by site, so label l first
    # appears after every smaller label: each row is its partition's
    # canonical labelling, with the block of site 0 labelled 0
    _, hits = simulate_max_stable_batch(model, sites, 300, rng.substream(5))
    for row in hits:
        first = [np.flatnonzero(row == label)[0] for label in range(row.max() + 1)]
        assert first[0] == 0 and np.all(np.diff(first) > 0)


def test_hitting_scenario_of_independent_sites(rng):
    # logistic alpha = 1: no two sites ever share an extremal function
    _, hits = simulate_max_stable_batch(Logistic(1.0), np.arange(4.0)[:, None], 200, rng)
    assert np.array_equal(hits, np.tile(np.arange(4), (200, 1)))


def test_hitting_scenario_of_one_component(rng):
    # a max-linear field of one component: every site is hit by it
    _, hits = simulate_max_stable_batch(MaxLinear(np.ones((1, 3))), [0, 1, 2], 50, rng)
    assert np.array_equal(hits, np.zeros((50, 3), dtype=np.int64))


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
        # irregular planar sites: the earlier site nearest by gamma is s_1,
        # s_1, s_2, s_1, s_4, s_4, not the previous one
        (4, BrownResnick(QuadraticVariogram(np.array([[1.2, 0.4], [0.4, 2.0]]))),
         [[0.0, 0.0], [1.6, 1.1], [0.3, -0.2], [1.2, 0.6], [-0.7, 0.5], [0.5, 0.4],
          [1.9, 0.2]]),
    ])
    def test_extremal_functions_vs_quadrature(self, rng, case, model, sites):
        # exact simulation: every pair's frequency within the simulation's own
        # 3 SE, no slack
        sites = np.array(sites)
        reps = 30_000
        _, hits = simulate_max_stable_batch(model, sites, reps, rng.substream(60 + case))
        for b in range(1, len(sites)):
            for a in range(b):
                target = concurrence_probability(model, sites[[a, b]]).value
                freq = (hits[:, a] == hits[:, b]).mean()
                assert abs(freq - target) < binomial_3se(target, reps), (a, b)

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
        tau = ecp_kendall(x).estimate
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
            means[n0] = ecp_kendall(data, tie_adjusted=True).estimate.mean()
        assert abs(means[1] - 0.71) < 0.02
        assert abs(means[10] - 0.57) < 0.02
        assert abs(means[15] - 0.55) < 0.02
        assert means[1] > means[10] > means[15]
        values, _ = simulate_max_stable_batch(model, sites, reps * n, rng.substream(59))
        tau_inf = ecp_kendall(values.reshape(reps, n, 2), tie_adjusted=True).estimate.mean()
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

    @pytest.mark.parametrize("n0", [1, 2, 3, 7, 10, 33])
    def test_halving_maximum_equals_the_maximum_over_n0(self, n0):
        # the in-place halving reduction gives the bits of max over the n0 axis
        for model, sites in ((ExtremalT(ExponentialCorrelation(4.0), nu=3.0), PAIR),
                             (Logistic(0.4), [[0.0], [1.0], [2.0]])):
            g = as_generator(SeededRng(n0))
            y = spectral_sampler(model, sites).draw(g, 300 * n0).reshape(300, n0, -1)
            u = g.uniform(size=(300, n0))
            want = (y / u[:, :, None]).max(axis=1) / n0
            assert np.array_equal(simulate_doa(model, sites, n0, SeededRng(n0), size=300), want)


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


def _whole_profile_tilted(model: BrownResnick, sites):
    """Slow reference of the Brown--Resnick tilted draw: ``draw(g, j, n)``
    gives n whole profiles, k - 1 normals each, before any test."""
    _, _, draw_w = model._anchored(sites)
    coords = sites.coords
    gam = np.asarray(model.variogram(coords[None, :, :] - coords[:, None, :]), dtype=float)
    np.fill_diagonal(gam, 0.0)

    def draw(g, j, n):
        w = draw_w(g, n)
        w -= w[:, j:j + 1]
        w -= gam[j]
        return np.exp(w, out=w)

    return draw


def _leading_normals_tilted(model: BrownResnick, sites):
    """The Brown--Resnick tilted draw that tests a proposal at the earlier
    sites after its leading j normals, with no test on one normal first."""
    gam, fac, _ = model._anchored(sites)
    k = sites.k

    def draw(g, j, zeta, field):
        n = zeta.size
        z = g.standard_normal((n, j))
        w = np.zeros((n, k))
        w[:, 1:j + 1] = z @ fac[:j, :j].T
        lead = np.exp(w[:, :j] - w[:, j:j + 1] - gam[j, :j]) * zeta[:, None]
        keep = (lead < field).all(axis=1)
        w, z = w[keep], z[keep]
        w[:, j + 1:] = z @ fac[j:, :j].T + g.standard_normal((len(w), k - 1 - j)) @ fac[j:, j:].T
        return keep, np.exp(w - w[:, j:j + 1] - gam[j]) * zeta[keep, None]

    return draw


def _reference_extremal_functions(draw, k: int, g, reps: int):
    """Slow reference of ``_extremal_functions``: every proposal is a whole
    profile from ``draw(g, j, n)``, tested at the earlier sites afterwards."""
    values = np.zeros((reps, k))
    hits = np.full((reps, k), -1, dtype=np.int64)
    found = np.zeros(reps, dtype=np.int64)
    drawn = np.zeros(reps, dtype=np.int64)
    for j in range(k):
        gam = g.standard_exponential(reps)
        active = np.flatnonzero(1.0 / gam > values[:, j])
        while active.size:
            y = draw(g, j, active.size)
            y *= 1.0 / gam[active, None]
            cur = values[active]
            keep = (y[:, :j] < cur[:, :j]).all(axis=1)
            rows, y, cur = active[keep], y[keep], cur[keep]
            upd = y > cur
            values[rows] = np.where(upd, y, cur)
            hits[rows] = np.where(upd, found[rows, None], hits[rows])
            found[rows] += 1
            drawn[active] += 1
            gam[active] += g.standard_exponential(active.size)
            active = active[1.0 / gam[active] > values[active, j]]
    return values, hits, drawn


class _CountingGenerator:
    """A Generator that counts the standard normals drawn through it."""

    def __init__(self, g):
        self._g = g
        self.normals = 0

    def standard_normal(self, size=None):
        self.normals += 1 if size is None else int(np.prod(size))
        return self._g.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._g, name)


A7 = np.arange(41)[:, None] * 0.5
A7_MODEL = BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0))


class TestEarlyRejection:
    """A Brown--Resnick proposal at j > 0 draws one normal and is tested at
    its nearest earlier site; a survivor draws its other leading normals and
    is tested at every earlier site, and only a survivor of that draws the
    rest."""

    @pytest.mark.parametrize("case,model,sites", [
        (0, A7_MODEL, [[0.0], [1.5]]),
        (1, BrownResnick(QuadraticVariogram(np.array([[1.2, 0.4], [0.4, 2.0]]))),
         [[0.0, 0.0], [0.8, 0.5]]),
        (2, BrownResnick(FractionalVariogram(scale=1e8, exponent=1.0)), PAIR),
    ])
    def test_pairs_draw_as_whole_profiles(self, case, model, sites):
        # k = 2 has no site to split at: values, hits and counts bit-identical
        s = model.sites_of(sites)
        got = _extremal_functions(model.tilted_sampler(s), 2,
                                  SeededRng(31, case).generator(), 500)
        want = _reference_extremal_functions(_whole_profile_tilted(model, s), 2,
                                             SeededRng(31, case).generator(), 500)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_many_sites_same_law(self):
        # on the A7 grid the stream changes, the pair frequencies do not: both
        # match each other and the quadrature within their binomial SE.  Twelve
        # comparisons: the bound is Bonferroni-widened from 3 to 3.5 SE
        s = A7_MODEL.sites_of(A7)
        reps = 4000
        _, got, _ = _extremal_functions(A7_MODEL.tilted_sampler(s), 41,
                                        SeededRng(32, 0).generator(), reps)
        _, want, _ = _reference_extremal_functions(_whole_profile_tilted(A7_MODEL, s), 41,
                                                   SeededRng(32, 1).generator(), reps)
        anchor = 20
        for lag in (1, 3, 6, 12):
            p = concurrence_probability(A7_MODEL, A7[[anchor, anchor + lag]]).value
            f_got, f_want = ((h[:, anchor] == h[:, anchor + lag]).mean() for h in (got, want))
            se = binomial_3se(p, reps) / 3.0
            assert abs(f_got - p) < 3.5 * se and abs(f_want - p) < 3.5 * se
            assert abs(f_got - f_want) < 3.5 * math.sqrt(2.0) * se

    def test_fewer_normals_per_realization(self):
        # the A7 run: about 450 normals per realization, against about 1000
        # when every proposal draws its leading j normals before any test
        s = A7_MODEL.sites_of(A7)
        counts = []
        for draw in (A7_MODEL.tilted_sampler(s), _leading_normals_tilted(A7_MODEL, s)):
            g = _CountingGenerator(SeededRng(33).generator())
            _extremal_functions(draw, 41, g, 2000)
            counts.append(g.normals)
        assert counts[0] <= 0.5 * counts[1]

    @pytest.mark.parametrize("j", [1, 2, 20, 40])
    def test_rejected_at_the_nearest_site_after_one_normal(self, j):
        # on the A7 grid the nearest earlier site is s_{j-1}: bound the field
        # there alone, and a proposal rejected there has drawn one normal,
        # a survivor all k - 1
        draw = A7_MODEL.tilted_sampler(A7_MODEL.sites_of(A7))
        n = 400
        field = np.full((n, j), np.inf)
        for bound in (np.zeros(n), np.random.default_rng(j).exponential(1.0, n)):
            field[:, j - 1] = bound
            g = _CountingGenerator(SeededRng(36, j).generator())
            keep, _ = draw(g, j, np.ones(n), field)
            assert g.normals == n + keep.sum() * 39
        assert 0 < keep.sum() < n

    def test_rank_deficient_quadratic_variogram(self, rng):
        # 5 sites in the plane: the 4 increments W(s_i) - W(s_1) span 2
        # dimensions, Cholesky fails, and the factor is triangular all the same
        model = BrownResnick(QuadraticVariogram(np.array([[1.2, 0.4], [0.4, 2.0]])))
        sites = np.array([[0.0, 0.0], [0.8, 0.5], [-0.3, 1.0], [0.5, -0.6], [1.2, 0.9]])
        _, fac, _ = model._anchored(model.sites_of(sites))
        assert np.linalg.matrix_rank(fac) == 2   # the null directions carry no noise
        assert np.array_equal(fac, np.tril(fac))
        reps = 20_000
        values, hits = simulate_max_stable_batch(model, sites, reps, rng.substream(34))
        target = math.exp(-1.0)
        for j in range(5):
            assert abs((values[:, j] <= 1.0).mean() - target) < binomial_3se(target, reps)
        for a, b in ((0, 1), (1, 2), (2, 4), (0, 3)):
            p = concurrence_probability(model, sites[[a, b]]).value
            freq = (hits[:, a] == hits[:, b]).mean()
            assert abs(freq - p) < binomial_3se(p, reps)

    def test_variogram_zero_between_distinct_sites(self, rng):
        # gamma(h) = 0 along the second axis: s_1 and s_2 (and s_3 and s_4)
        # carry the same W, the increment to the nearest earlier site is 0,
        # and the margins are unit Frechet all the same.  Eighteen
        # comparisons at 4 SE
        model = BrownResnick(QuadraticVariogram(np.array([[1.5, 0.0], [0.0, 0.0]])))
        sites = np.array([[0.0, 0.0], [0.0, 1.0], [0.7, 0.3], [0.7, -0.5], [-0.4, 0.2],
                          [0.3, 2.0]])
        reps = 20_000
        values, _ = simulate_max_stable_batch(model, sites, reps, rng.substream(35))
        assert np.all(values > 0)
        for z in (0.5, 1.0, 3.0):
            target = math.exp(-1.0 / z)
            se = binomial_3se(target, reps) / 3.0
            for j in range(len(sites)):
                assert abs((values[:, j] <= z).mean() - target) < 4.0 * se, (z, j)


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

    @pytest.mark.parametrize("sigma", [[[1.0, 1.0], [1.0, 1.0]], [[0.0]]])
    def test_smith_sigma_must_be_nonsingular(self, sigma):
        with pytest.raises(DomainError, match="positive definite"):
            Smith(CovarianceMatrix(np.array(sigma)))
        with pytest.raises(DomainError, match="positive definite"):
            model_from_dict({"model": "smith", "sigma": sigma})

    def test_csv_export(self, rng, tmp_path):
        values, hits = simulate_max_stable_batch(Logistic(0.5), PAIR, 10, rng)
        path = tmp_path / "fields.csv"
        write_realizations_csv(path, values, hits)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "site_0,site_1,hit_0,hit_1"
        assert len(rows) == 11
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(back[:, :2], values, rtol=0, atol=0)
