import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from vphm import metrics
from vphm.metrics import GaussianBatch, GaussianDist, PiecewiseCdf, QuantileBatch


def crps_quadrature_gaussian(mu, sigma, y):
    """Direct numerical integration of the defining CRPS integral."""
    d = GaussianDist(mu, sigma)
    lo, hi = mu - 12 * sigma, mu + 12 * sigma
    lo, hi = min(lo, y - 1.0), max(hi, y + 1.0)
    left, _ = quad(lambda x: d.cdf(x) ** 2, lo, y, limit=200)
    right, _ = quad(lambda x: (d.cdf(x) - 1.0) ** 2, y, hi, limit=200)
    return left + right


def proper_cdf(pw: PiecewiseCdf, x):
    """The piecewise CDF as a proper distribution: tail mass becomes point
    mass on the extreme values."""
    if x < pw.values[0]:
        return 0.0
    if x >= pw.values[-1]:
        return 1.0
    return pw.cdf(x)


def crps_quadrature_piecewise(pw: PiecewiseCdf, y):
    lo = min(pw.values[0], y)
    hi = max(pw.values[-1], y)
    if hi == lo:
        return 0.0
    pts = sorted(set(list(pw.values) + [y]))
    left, _ = quad(lambda x: proper_cdf(pw, x) ** 2, lo, y,
                   points=[p for p in pts if lo < p < y], limit=400)
    right, _ = quad(lambda x: (proper_cdf(pw, x) - 1.0) ** 2, y, hi,
                    points=[p for p in pts if y < p < hi], limit=400)
    return left + right


def quantile_integral_moment(pw: PiecewiseCdf, power):
    """E[X^power] through the quantile representation, independent of the
    closed-form density bookkeeping."""
    taus = np.linspace(0.0, 1.0, 200_001)
    qs = np.interp(taus, pw.levels, pw.values)
    return float(np.trapezoid(qs ** power, taus))


class TestGaussianCrps:
    def test_standard_normal_at_zero(self):
        assert GaussianDist(0, 1).crps(0.0) == pytest.approx(0.233695, abs=1e-5)

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_form_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(0, 2)
        sigma = rng.uniform(0.1, 3.0)
        y = rng.normal(mu, 3 * sigma)
        got = GaussianDist(mu, sigma).crps(y)
        want = crps_quadrature_gaussian(mu, sigma, y)
        assert got == pytest.approx(want, abs=1e-6)

    def test_degenerate_limit_is_absolute_error(self):
        assert GaussianDist(1.0, 1e-9).crps(3.0) == pytest.approx(2.0, abs=1e-6)

    @given(st.floats(-5, 5), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, y, c):
        base = GaussianDist(0.5, 1.3).crps(y)
        shifted = GaussianDist(0.5 + c, 1.3).crps(y + c)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = GaussianDist(rng.normal(), rng.uniform(0.05, 2))
            assert d.crps(rng.normal(0, 4)) >= 0.0


class TestPiecewiseCdf:
    def test_midpoint_interpolation(self):
        pw = PiecewiseCdf([0.0, 1.0], [0.25, 0.75])
        assert pw.cdf(0.5) == pytest.approx(0.5)

    def test_flat_extension_below_min(self):
        pw = PiecewiseCdf([0.0, 1.0], [0.25, 0.75])
        assert pw.cdf(-5.0) == pytest.approx(0.25)
        assert pw.cdf(9.0) == pytest.approx(0.75)

    def test_crossing_quantiles_sorted(self):
        pw = PiecewiseCdf([1.0, 0.0, 0.5], [0.1, 0.5, 0.9])
        assert np.all(np.diff(pw.values) >= 0)
        grid = np.linspace(-1, 2, 50)
        cdfs = [pw.cdf(x) for x in grid]
        assert np.all(np.diff(cdfs) >= 0)

    def test_quantile_inverts_cdf(self):
        pw = PiecewiseCdf([0.0, 1.0, 3.0], [0.1, 0.5, 0.9])
        assert pw.quantile(0.5) == pytest.approx(1.0)
        assert pw.quantile(0.05) == pytest.approx(0.0)  # flat extension

    @pytest.mark.parametrize("seed", range(6))
    def test_crps_matches_quadrature(self, seed):
        rng = np.random.default_rng(100 + seed)
        levels = np.sort(rng.uniform(0.02, 0.98, size=rng.integers(2, 9)))
        levels = np.unique(levels)
        if levels.size < 2:
            levels = np.array([0.25, 0.75])
        values = np.sort(rng.normal(0, 1, size=levels.size))
        pw = PiecewiseCdf(values, levels)
        y = rng.normal(0, 1.5)
        assert pw.crps(y) == pytest.approx(
            crps_quadrature_piecewise(pw, y), abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_variance_matches_quantile_integral(self, seed):
        rng = np.random.default_rng(200 + seed)
        levels = np.linspace(0.05, 0.95, 7)
        values = np.sort(rng.normal(0, 2, size=7))
        pw = PiecewiseCdf(values, levels)
        ex = quantile_integral_moment(pw, 1)
        ex2 = quantile_integral_moment(pw, 2)
        assert pw.mean() == pytest.approx(ex, abs=1e-6)
        assert pw.variance() == pytest.approx(ex2 - ex * ex, abs=1e-6)

    def test_single_point_mass_variance_zero(self):
        pw = PiecewiseCdf([2.0, 2.0], [0.3, 0.7])
        assert pw.variance() == pytest.approx(0.0, abs=1e-12)


def random_batch(seed, rows=40):
    """Sorted quantile rows with tied knots (zero-width pieces) and
    observations on knots and far outside the value range."""
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.choice(np.linspace(0.02, 0.98, 49),
                                size=rng.integers(2, 12), replace=False))
    values = np.sort(rng.normal(3.7, 0.05, (rows, levels.size)), axis=1)
    values[::6] = values[::6, :1]              # all mass on one point
    if levels.size > 2:
        values[1::4, 1] = values[1::4, 2]      # one zero-width piece
    ys = rng.normal(3.7, 0.08, rows)
    ys[::5] = values[::5, rng.integers(0, levels.size)]
    ys[1::7], ys[2::7] = 2.0, 5.0
    return values, levels, ys


def scalar_crps(v, p, y):
    """The piecewise closed form evaluated one segment at a time."""
    total = 0.0
    if y < v[0]:
        total += v[0] - y
    if y > v[-1]:
        total += y - v[-1]

    def piece(a, b, fa, fb, h):
        da, db = fa - h, fb - h
        return (b - a) * (da * da + da * db + db * db) / 3.0

    for a, b, fa, fb in zip(v[:-1], v[1:], p[:-1], p[1:]):
        if b == a:
            continue
        if y <= a:
            total += piece(a, b, fa, fb, 1.0)
        elif y >= b:
            total += piece(a, b, fa, fb, 0.0)
        else:
            fy = fa + (fb - fa) * (y - a) / (b - a)
            total += piece(a, y, fa, fy, 0.0)
            total += piece(y, b, fy, fb, 1.0)
    return total


def scalar_variance(v, p):
    """The piecewise variance of one row with per-row numpy sums."""
    masses = np.diff(p)
    mean = p[0] * v[0] + (1.0 - p[-1]) * v[-1]
    mean += float(np.sum(masses * 0.5 * (v[:-1] + v[1:])))
    ex2 = p[0] * v[0] ** 2 + (1.0 - p[-1]) * v[-1] ** 2
    ex2 += float(np.sum(masses * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2)
                        / 3.0))
    return ex2 - mean ** 2


class TestQuantileBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_quantile_bit_equal_to_interp(self, seed):
        values, levels, _ = random_batch(seed)
        batch = QuantileBatch(values, levels)
        probes = np.concatenate((np.linspace(0.0, 1.0, 101), levels,
                                 [levels[0] / 2, (1 + levels[-1]) / 2,
                                  np.nan]))
        for p in probes:
            want = np.array([np.interp(float(p), levels, row)
                             for row in values])
            assert batch.quantile(float(p)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_crps_matches_quadrature(self, seed):
        values, levels, ys = random_batch(seed, rows=14)
        got = QuantileBatch(values, levels).crps(ys)
        for row, y, score in zip(values, ys, got):
            want = crps_quadrature_piecewise(PiecewiseCdf(row, levels), y)
            assert score == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_crps_sums_pieces_in_segment_order(self, seed):
        values, levels, ys = random_batch(seed)
        got = QuantileBatch(values, levels).crps(ys)
        want = [scalar_crps(row, levels, float(y))
                for row, y in zip(values, ys)]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_variance_bit_equal_to_row_formula(self, seed):
        # scalar x ** 2 (libm pow) and array x ** 2 (x * x) differ in the
        # last ulp on about 1 input in 1000, hence the many rows
        values, levels, _ = random_batch(seed, rows=4000)
        want = [scalar_variance(row, levels) for row in values]
        got = QuantileBatch(values, levels).variance()
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_variance_matches_quantile_integral(self, seed):
        values, levels, _ = random_batch(seed, rows=12)
        batch = QuantileBatch(values, levels)
        for row, mean, var in zip(values, batch.mean(), batch.variance()):
            pw = PiecewiseCdf(row, levels)
            ex = quantile_integral_moment(pw, 1)
            ex2 = quantile_integral_moment(pw, 2)
            assert mean == pytest.approx(ex, abs=1e-6)
            assert var == pytest.approx(ex2 - ex * ex, abs=1e-6)

    def test_rows_are_sorted(self):
        batch = QuantileBatch([[1.0, 0.0, 0.5]], [0.9, 0.1, 0.5])
        assert batch.levels.tolist() == [0.1, 0.5, 0.9]
        assert batch.values.tolist() == [[0.0, 0.5, 1.0]]

    def test_len_and_length_mismatch(self):
        batch = QuantileBatch(np.zeros((5, 3)), [0.1, 0.5, 0.9])
        assert len(batch) == 5
        with pytest.raises(metrics.LengthMismatch):
            QuantileBatch(np.zeros((5, 3)), [0.25, 0.75])
        with pytest.raises(metrics.LengthMismatch):
            batch.crps(np.zeros(4))
        with pytest.raises(metrics.LengthMismatch):
            metrics.crps_summary(batch, np.zeros(6))
        with pytest.raises(metrics.LengthMismatch):
            metrics.calibration_curve(batch, np.zeros(4))

    def test_bad_levels_rejected(self):
        with pytest.raises(ValueError):
            QuantileBatch(np.zeros((2, 1)), [0.5])
        with pytest.raises(ValueError):
            QuantileBatch(np.zeros((2, 2)), [0.0, 0.5])

    @pytest.mark.parametrize("seed", range(3))
    def test_scores_equal_per_row_distributions(self, seed):
        values, levels, ys = random_batch(seed)
        batch = QuantileBatch(values, levels)
        rows = [PiecewiseCdf(row, levels) for row in values]
        assert metrics.crps_summary(batch, ys) == metrics.crps_summary(rows, ys)
        assert metrics.sharpness(batch) == metrics.sharpness(rows)
        for got, want in zip(metrics.calibration_curve(batch, ys),
                             metrics.calibration_curve(rows, ys)):
            assert np.array_equal(got, want)


def scalar_gaussian_crps(mu, sigma, y):
    """The closed form on Python floats with math.exp: the reference the
    vectorized batch is held to."""
    z = (y - mu) / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return sigma * (z * (2.0 * float(ndtr(z)) - 1.0) + 2.0 * phi
                    - 1.0 / math.sqrt(math.pi))


def random_gaussians(seed, rows=2000):
    rng = np.random.default_rng(seed)
    mu = rng.normal(0.0, 3.0, rows)
    sigma = rng.uniform(1e-3, 2.0, rows)
    ys = mu + sigma * rng.normal(0.0, 4.0, rows)
    return mu, sigma, ys


class TestGaussianBatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_crps_matches_scalar_closed_form(self, seed):
        mu, sigma, ys = random_gaussians(seed)
        got = GaussianBatch(mu, sigma).crps(ys)
        want = np.array([scalar_gaussian_crps(float(m), float(s), float(y))
                         for m, s, y in zip(mu, sigma, ys)])
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_quantile_matches_ndtri(self):
        mu, sigma, _ = random_gaussians(5, rows=50)
        batch = GaussianBatch(mu, sigma)
        for p in (0.0, 1e-6, 0.025, 0.5, 0.975, 1.0):
            assert np.array_equal(batch.quantile(p), mu + sigma * ndtri(p))
        assert np.all(batch.quantile(0.0) == -np.inf)
        assert np.all(batch.quantile(1.0) == np.inf)

    def test_variance_bit_equal_to_sigma_squared(self):
        _, sigma, _ = random_gaussians(6, rows=20000)
        want = np.array([float(s) ** 2 for s in sigma])
        assert GaussianBatch(np.zeros_like(sigma), sigma).variance().tobytes() \
            == want.tobytes()

    def test_len_and_length_mismatch(self):
        batch = GaussianBatch(np.zeros(5), np.ones(5))
        assert len(batch) == 5
        with pytest.raises(metrics.LengthMismatch):
            GaussianBatch(np.zeros(5), np.ones(4))
        with pytest.raises(metrics.LengthMismatch):
            batch.crps(np.zeros(4))
        with pytest.raises(metrics.LengthMismatch):
            metrics.calibration_curve(batch, np.zeros(6))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, bad):
        with pytest.raises(ValueError):
            GaussianBatch([0.0, 1.0], [1.0, bad])
        with pytest.raises(ValueError):
            GaussianDist(0.0, bad)

    def test_scores_equal_per_row_distributions(self):
        mu, sigma, ys = random_gaussians(7, rows=300)
        batch = GaussianBatch(mu, sigma)
        rows = [GaussianDist(m, s) for m, s in zip(mu, sigma)]
        assert metrics.crps_summary(batch, ys) == metrics.crps_summary(rows, ys)
        assert metrics.sharpness(batch) == metrics.sharpness(rows)
        assert [d.crps(y) for d, y in zip(rows, ys)] == batch.crps(ys).tolist()

    def test_concat_pools_batches(self):
        mu, sigma, ys = random_gaussians(8, rows=30)
        parts = [GaussianBatch(mu[:10], sigma[:10]),
                 GaussianBatch(mu[10:], sigma[10:])]
        pooled = GaussianBatch.concat(parts)
        assert pooled.crps(ys).tolist() == GaussianBatch(mu, sigma).crps(ys).tolist()
        values, levels, _ = random_batch(0, rows=30)
        q = QuantileBatch.concat([QuantileBatch(values[:7], levels),
                                  QuantileBatch(values[7:], levels)])
        assert np.array_equal(q.values, QuantileBatch(values, levels).values)
        with pytest.raises(ValueError):
            QuantileBatch.concat([QuantileBatch(values, levels),
                                  QuantileBatch(values, levels / 2)])


class TestCrpsSummary:
    def test_two_point_example(self):
        # the CRPS of a point mass at v is |v - y|: 0.1 and 0.3 here
        dists = [PiecewiseCdf([v, v], [0.25, 0.75]) for v in (0.1, 0.3)]
        mean, std = metrics.crps_summary(dists, [0.0, 0.0])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(0.1)

    def test_constant_scores_zero_std(self):
        dists = [GaussianDist(0, 1)] * 4
        _, std = metrics.crps_summary(dists, [0.5] * 4)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.crps_summary([], [])


class TestCalibration:
    def test_pit_consistent_forecasts_have_small_area(self):
        rng = np.random.default_rng(11)
        T = 5000
        mus = rng.normal(0, 1, T)
        sigmas = rng.uniform(0.2, 2.0, T)
        ys = rng.normal(mus, sigmas)
        dists = [GaussianDist(m, s) for m, s in zip(mus, sigmas)]
        _, _, area = metrics.calibration_curve(dists, ys)
        assert area < 0.03

    def test_degenerate_miscalibration_near_half(self):
        dists = [GaussianDist(100.0, 0.1)] * 50
        _, observed, area = metrics.calibration_curve(dists, np.zeros(50))
        assert np.all(observed[1:] == 1.0)
        assert area == pytest.approx(0.5, abs=0.01)

    def test_piecewise_forecasts_supported(self):
        rng = np.random.default_rng(5)
        levels = np.linspace(0.05, 0.95, 19)
        dists, ys = [], []
        for _ in range(800):
            mu = rng.normal()
            dists.append(PiecewiseCdf(mu + ndtri_values(levels), levels))
            ys.append(rng.normal(mu, 1.0))
        _, _, area = metrics.calibration_curve(dists, np.array(ys))
        assert area < 0.08

    def test_length_mismatch(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.calibration_curve([GaussianDist(0, 1)], [1.0, 2.0])


def ndtri_values(levels):
    from scipy.special import ndtri
    return ndtri(levels)


class TestSharpness:
    def test_constant_variance(self):
        dists = [GaussianDist(0, 0.2)] * 5
        assert metrics.sharpness(dists) == pytest.approx(0.2)

    def test_mixed_variances(self):
        degenerate = PiecewiseCdf([1.0, 1.0], [0.25, 0.75])  # variance 0
        # mass 1/4 on each of -c and c, 1/2 uniform between: variance 2c²/3
        c = np.sqrt(0.12)
        spread = PiecewiseCdf([-c, c], [0.25, 0.75])
        assert metrics.sharpness([degenerate, spread]) == pytest.approx(0.2)
        with pytest.raises(TypeError):
            metrics.sharpness([degenerate, GaussianDist(0, np.sqrt(0.08))])

    @given(st.floats(0.1, 10))
    @settings(max_examples=30, deadline=None)
    def test_scale_covariance(self, k):
        base = [GaussianDist(0, s) for s in (0.5, 1.0, 2.0)]
        scaled = [GaussianDist(0, k * s) for s in (0.5, 1.0, 2.0)]
        assert metrics.sharpness(scaled) == pytest.approx(
            k * metrics.sharpness(base), rel=1e-9)


class TestPicp:
    def test_counting(self):
        ys = np.arange(10.0)
        lower = np.full(10, 1.0)
        upper = np.full(10, 8.0)
        assert metrics.picp(lower, upper, ys) == pytest.approx(0.8)

    def test_all_inside(self):
        ys = np.zeros(7)
        assert metrics.picp(np.full(7, -1.0), np.full(7, 1.0), ys) == 1.0

    def test_infinite_interval_is_one(self):
        ys = np.random.default_rng(0).normal(size=20)
        assert metrics.picp(np.full(20, -np.inf), np.full(20, np.inf), ys) == 1.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(metrics.InvertedInterval):
            metrics.picp([1.0], [0.0], [0.5])

    def test_length_mismatch(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.picp([0.0], [1.0], [0.5, 0.6])


class TestReport:
    def test_report_fields_finite(self):
        rng = np.random.default_rng(2)
        mus = rng.normal(0, 1, 200)
        ys = rng.normal(mus, 0.5)
        dists = [GaussianDist(m, 0.5) for m in mus]
        rep = metrics.compute_report(dists, ys, mus - 1.0, mus + 1.0)
        for v in rep.to_kv().values():
            assert np.isfinite(v)
        assert 0.0 <= rep.picp <= 1.0
        assert 0.0 <= rep.miscalibration_area <= 0.5

    def test_report_keeps_its_calibration_curve(self):
        values, levels, ys = random_batch(1)
        batch = QuantileBatch(values, levels)
        rep = metrics.compute_report(batch, ys, batch.quantile(0.1),
                                     batch.quantile(0.9))
        grid, observed, area = metrics.calibration_curve(batch, ys)
        assert np.array_equal(rep.calibration[0], grid)
        assert np.array_equal(rep.calibration[1], observed)
        assert rep.miscalibration_area == area
        assert "calibration" not in rep.to_kv()
