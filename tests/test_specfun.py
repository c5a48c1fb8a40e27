"""Special functions and seeded sampling primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concur import (
    CovarianceMatrix,
    DomainError,
    NumericError,
    SeededRng,
    log_binom_ratio,
    normal_cdf,
    reg_inc_beta,
    sample_positive_stable,
    student_cdf,
)

from concur.specfun import _LEAST_BLOCK_ROWS, _SERIAL_MADDS, _matmul_t

# Frozen with mpmath (40 digits): erfc(-x/sqrt(2))/2 at x = 1.959964
PHI_1959964 = 0.9750000009035575956975049


class TestNormalCdf:
    def test_center_and_limits(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(np.inf) == 1.0
        assert normal_cdf(-np.inf) == 0.0

    def test_reference_value(self):
        assert abs(normal_cdf(1.959964) - PHI_1959964) < 1e-12
        assert abs(normal_cdf(1.959964) - 0.975) < 1e-8

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_symmetry(self, x):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-14


class TestStudentCdf:
    def test_symmetry_at_zero(self):
        for dof in (0.5, 1.0, 3.0, 60.0, 250.0):
            assert student_cdf(0.0, dof) == pytest.approx(0.5, abs=1e-14)

    def test_cauchy_closed_form(self):
        # dof=1 is Cauchy: F(x) = 1/2 + atan(x)/pi
        for x in (-2.0, -0.5, 1.0, 3.0):
            assert student_cdf(x, 1.0) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-12)

    def test_large_dof_normal_limit(self):
        # frozen via mpmath quadrature of the t density; the exact gap to the
        # normal at dof=60 is 2.27e-3 (the O(1/nu) correction), so the limit
        # is checked at its true size and again closer in at dof=600
        assert student_cdf(2.0, 60.0) == pytest.approx(0.9749834781742713, abs=1e-12)
        assert abs(student_cdf(2.0, 60.0) - normal_cdf(2.0)) < 2.5e-3
        assert abs(student_cdf(2.0, 600.0) - normal_cdf(2.0)) < 2.5e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            student_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            student_cdf(1.0, -3.0)


class TestRegIncBeta:
    def test_analytic_half_power(self):
        # integral of (1-u)^(-1/2) over [0, x], normalized: 1 - sqrt(1-x)
        for x in np.linspace(0.0, 1.0, 23):
            expected = 1.0 - math.sqrt(1.0 - x)
            got = reg_inc_beta(1.0, 0.5, x)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_endpoints_and_symmetry(self):
        assert reg_inc_beta(2.3, 0.7, 0.0) == 0.0
        assert reg_inc_beta(2.3, 0.7, 1.0) == 1.0
        assert reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, 1.5)


def test_cdfs_monotone_and_in_range_on_random_grids():
    g = np.random.default_rng(314)
    for _ in range(1000):
        x = np.sort(g.uniform(-30, 30, size=8))
        for vals in (
            normal_cdf(x),
            student_cdf(x, g.uniform(0.2, 50)),
            reg_inc_beta(g.uniform(0.1, 5), g.uniform(0.1, 5), np.sort(g.uniform(0, 1, 8))),
        ):
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= 0) & (vals <= 1))


class TestPositiveStable:
    def test_laplace_transform_oracle(self, rng):
        s = sample_positive_stable(0.5, rng, size=10**6)
        assert abs(np.mean(np.exp(-s)) - math.exp(-1.0)) < 0.005

        s = sample_positive_stable(0.3, rng.substream(1), size=10**6)
        assert abs(np.mean(np.exp(-2.0 * s)) - math.exp(-(2.0 ** 0.3))) < 0.005

    def test_alpha_near_one_concentrates(self, rng):
        s = sample_positive_stable(0.999, rng.substream(2), size=10**5)
        assert abs(np.median(s) - 1.0) < 0.05
        assert np.mean(np.abs(s - 1.0) > 0.25) < 0.02

    def test_domain(self, rng):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                sample_positive_stable(bad, rng)


class TestSeededRng:
    def test_bit_identical_streams(self):
        a = SeededRng(7, 3).generator().standard_normal(1000)
        b = SeededRng(7, 3).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(7, 0).generator().standard_normal(100)
        b = SeededRng(7, 1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substreams_deterministic_and_distinct(self):
        root = SeededRng(11)
        assert root.substream(5) == root.substream(5)
        seen = {root.substream(i).stream_id for i in range(200)}
        assert len(seen) == 200

    def test_validation(self):
        with pytest.raises(DomainError):
            SeededRng(-1)
        with pytest.raises(DomainError):
            SeededRng(0, 2**64)


def gaussian(cov, rng, n):
    """n zero-mean Gaussian draws with covariance ``cov``, one per row."""
    return rng.generator().standard_normal((n, cov.dim)) @ cov.factor().T


class TestGaussianVector:
    def test_zero_variance(self, rng):
        x = gaussian(CovarianceMatrix(np.array([[0.0]])), rng, 50)
        assert np.all(x == 0.0)

    def test_identity_uncorrelated(self, rng):
        x = gaussian(CovarianceMatrix(np.eye(2)), rng, 10**5)
        corr = np.corrcoef(x.T)[0, 1]
        assert abs(corr) < 0.01

    def test_rank_one_degeneracy(self, rng):
        cov = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        x = gaussian(cov, rng, 2000)
        assert np.max(np.abs(x[:, 0] - x[:, 1])) <= 1e-9

    def test_covariance_recovery(self, rng):
        target = np.array([[2.0, 1.0], [1.0, 2.0]])
        n = 10**5
        x = gaussian(CovarianceMatrix(target), rng.substream(3), n)
        emp = x.T @ x / n
        # SE of a covariance entry ~ sqrt((s_ii s_jj + s_ij^2) / n)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
                assert abs(emp[i, j] - target[i, j]) < 3 * se

    def test_not_psd_raises(self):
        cov = CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericError):
            cov.factor()

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestLogBinomRatio:
    def test_examples(self):
        assert log_binom_ratio(1, 2, 3) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert log_binom_ratio(0, 2, 3) == 0.0
        exact = Fraction(math.comb(60, 9), math.comb(100, 10))
        assert log_binom_ratio(60, 10, 100) == pytest.approx(float(exact), rel=1e-10)

    def test_exact_rational_sweep(self):
        for n in range(1, 31):
            for m in range(1, n + 1):
                d = np.arange(n)
                got = np.atleast_1d(log_binom_ratio(d, m, n))
                for di, gi in zip(d, got):
                    exact = Fraction(math.comb(int(di), m - 1), math.comb(n, m))
                    if exact == 0:
                        assert gi == 0.0
                    else:
                        assert gi == pytest.approx(float(exact), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_binom_ratio(1, 5, 3)
        with pytest.raises(DomainError):
            log_binom_ratio(3, 2, 3)
        with pytest.raises(DomainError):
            log_binom_ratio(-1, 2, 3)
        # a fraction was refused by hand, text ended in a bare TypeError and True read as 1
        for d in (1.5, [1.0, 1.5]):
            with pytest.raises(DomainError, match=r"d must be whole numbers, got 1\.5"):
                log_binom_ratio(d, 2, 3)
        for d in ("a", True, [1, True]):
            with pytest.raises(DomainError, match=r"d must be finite numbers in \[0, 2\]"):
                log_binom_ratio(d, 2, 3)
        assert log_binom_ratio(2.0, 2, 3) == log_binom_ratio(np.int64(2), 2, 3)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 64])
def test_blocked_product_equals_one_call(k, monkeypatch):
    # the spectral samplers form z @ fac.T in row blocks small enough that
    # OpenBLAS runs each on the calling thread; the bits must not change.
    # A product too wide for blocks of _LEAST_BLOCK_ROWS rows stays one call
    g = np.random.default_rng(k)
    a = g.standard_normal((k, k))
    fac = np.linalg.cholesky(a @ a.T + k * np.eye(k))
    limit = _SERIAL_MADDS // (k * k)
    rows = []
    matmul = np.matmul

    def spy(z, f, out):
        rows.append(len(z))
        return matmul(z, f, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    for n in (limit, limit + 1, 3 * limit + 7):
        rows.clear()
        z = g.standard_normal((n, k))
        assert np.array_equal(_matmul_t(z, fac), z @ fac.T)
        if n <= limit or limit < _LEAST_BLOCK_ROWS:
            assert rows == []
        else:  # ceil(n / limit) blocks of one size, to a row
            assert len(rows) == -(-n // limit) and sum(rows) == n
            assert max(rows) <= limit and max(rows) - min(rows) <= 1
