"""Probabilistic forecast scoring: CRPS, calibration, sharpness, PICP.

Two predictive-distribution kinds are supported: Gaussian (mu, sigma) and a
piecewise-linear CDF built from a quantile set. Piecewise forecasts are
scored as a ``QuantileBatch``, one (T, G) value matrix for T timesteps, with
every closed form vectorized over T. CRPS uses closed forms for both kinds
(the numerical quadrature of the defining integral is kept in the test
suite as the oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from scipy.special import ndtr, ndtri

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class LengthMismatch(ValueError):
    """Paired sequences have different lengths."""


class InvertedInterval(ValueError):
    """Interval lower bound exceeds upper bound."""


@dataclass(frozen=True)
class GaussianDist:
    """Gaussian predictive distribution."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cdf(self, x: float) -> float:
        return float(ndtr((x - self.mu) / self.sigma))

    def quantile(self, p: float) -> float:
        return float(self.mu + self.sigma * ndtri(p))

    def variance(self) -> float:
        return self.sigma ** 2

    def crps(self, y: float) -> float:
        z = (y - self.mu) / self.sigma
        phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        big_phi = float(ndtr(z))
        return self.sigma * (z * (2.0 * big_phi - 1.0) + 2.0 * phi - _INV_SQRT_PI)


class QuantileBatch:
    """T piecewise-linear CDFs that share one quantile-level grid.

    Row t of ``values`` holds the quantiles of forecast t at ``levels``.
    Crossing quantiles are repaired by sorting each row, so every CDF is
    monotone by construction. Between the knots the CDF is linear; the tail
    mass outside the grid (levels[0] below, 1 - levels[-1] above) is point
    mass sitting on the extreme values, which makes each row a proper
    probability distribution with finite CRPS and variance.

    Every method works on all T rows at once and returns the same bits as
    scoring the rows one at a time: ``quantile`` follows ``np.interp``'s
    formula and ``crps`` adds its pieces in segment order.
    """

    def __init__(self, values, levels):
        levels = np.asarray(levels, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if levels.ndim != 1 or values.ndim != 2:
            raise ValueError("need a (T, G) value matrix and G levels")
        if levels.size != values.shape[1]:
            raise LengthMismatch(f"{values.shape[1]} values per row vs "
                                 f"{levels.size} levels")
        if levels.size < 2:
            raise ValueError("need at least 2 quantile levels")
        if np.any((levels <= 0.0) | (levels >= 1.0)):
            raise ValueError("levels must lie strictly inside (0, 1)")
        self.levels = np.sort(levels)
        self.values = np.sort(values, axis=1)  # monotone repair

    def __len__(self) -> int:
        return self.values.shape[0]

    def quantile(self, p: float) -> np.ndarray:
        """Per-row quantile at level p, interpolated as ``np.interp`` does:
        flat beyond the extreme levels, exact at a knot, otherwise
        ``slope * (p - levels[j]) + values[:, j]``."""
        lv, v = self.levels, self.values
        if math.isnan(p):
            return np.full(len(self), math.nan)
        j = int(np.searchsorted(lv, p, side="right")) - 1
        if j < 0:
            return v[:, 0].copy()
        if j >= lv.size - 1:
            return v[:, -1].copy()
        if lv[j] == p:
            return v[:, j].copy()
        slope = (v[:, j + 1] - v[:, j]) / (lv[j + 1] - lv[j])
        return slope * (p - lv[j]) + v[:, j]

    def mean(self) -> np.ndarray:
        v, p = self.values, self.levels
        m = p[0] * v[:, 0] + (1.0 - p[-1]) * v[:, -1]
        m += np.sum(np.diff(p) * 0.5 * (v[:, :-1] + v[:, 1:]), axis=1)
        return m

    def variance(self) -> np.ndarray:
        # np.float_power squares with libm pow, as the scalar x ** 2 of the
        # one-row formula does; array ** 2 multiplies, which can differ in
        # the last ulp
        v, p = self.values, self.levels
        a, b = v[:, :-1], v[:, 1:]
        ex2 = (p[0] * np.float_power(v[:, 0], 2)
               + (1.0 - p[-1]) * np.float_power(v[:, -1], 2))
        # E[X^2] of a uniform piece on [a,b] is (a^2 + ab + b^2)/3
        ex2 += np.sum(np.diff(p) * (a ** 2 + a * b + b ** 2) / 3.0, axis=1)
        return ex2 - np.float_power(self.mean(), 2)

    def crps(self, ys) -> np.ndarray:
        """Per-row exact integral of (F(x) - 1{x >= y})^2 over the linear
        pieces, plus the tail strip when y falls outside the value range."""
        ys = np.asarray(ys, dtype=np.float64)
        if ys.shape != (len(self),):
            raise LengthMismatch(f"{len(self)} forecasts vs {ys.size} "
                                 "observations")
        v, p = self.values, self.levels
        a, b = v[:, :-1], v[:, 1:]
        fa, fb = p[:-1], p[1:]
        y = ys[:, None]
        split = (a < y) & (y < b)     # y inside the piece cuts it in two
        with np.errstate(divide="ignore", invalid="ignore"):
            fy = fa + (fb - fa) * (y - a) / (b - a)
            # [a, b], or [a, y] of a split piece; F - 1 on a piece above y,
            # F - 0 below it
            first = _piece(a, np.where(split, y, b), fa,
                           np.where(split, fy, fb),
                           (y <= a).astype(np.float64))
            second = _piece(y, b, fy, fb, 1.0)
        first = np.where(b > a, first, 0.0)   # zero-width pieces add nothing
        second = np.where(split, second, 0.0)
        total = np.where(ys < v[:, 0], v[:, 0] - ys,
                         np.where(ys > v[:, -1], ys - v[:, -1], 0.0))
        # one column at a time, not np.sum: every row adds its pieces in
        # segment order, which keeps the scores bit-equal to one-row scoring
        for k in range(a.shape[1]):
            total += first[:, k]
            total += second[:, k]
        return total


def _piece(a, b, fa, fb, h):
    """Integral of (F - h)^2 on [a, b] with F linear from fa to fb."""
    da, db = fa - h, fb - h
    return (b - a) * (da * da + da * db + db * db) / 3.0


class PiecewiseCdf:
    """One piecewise-linear CDF through (value, level) pairs: a
    ``QuantileBatch`` of one row (see there for the tail and crossing
    conventions). ``cdf`` queries interpolate linearly and clamp to the
    extreme levels outside the value range.
    """

    def __init__(self, values, levels):
        self._batch = QuantileBatch(np.reshape(values, (1, -1)), levels)
        self.levels = self._batch.levels
        self.values = self._batch.values[0]

    def cdf(self, x: float) -> float:
        return float(np.interp(x, self.values, self.levels))

    def quantile(self, p: float) -> float:
        return float(self._batch.quantile(p)[0])

    def mean(self) -> float:
        return float(self._batch.mean()[0])

    def variance(self) -> float:
        return float(self._batch.variance()[0])

    def crps(self, y: float) -> float:
        return float(self._batch.crps([y])[0])


PredictiveDistribution = Union[GaussianDist, PiecewiseCdf]
# the scoring functions take a sequence of distributions or a QuantileBatch
Forecasts = Union[Sequence[PredictiveDistribution], QuantileBatch]


@dataclass
class ScoreReport:
    """The per-flight scoring row: CRPS mean/std, miscalibration area,
    sharpness and interval coverage."""

    crps_mean: float
    crps_std: float
    miscalibration_area: float
    sharpness: float
    picp: float
    # (levels, observed fractions) of the calibration curve; not a kv field
    calibration: tuple = field(default=(), repr=False, compare=False)

    def to_kv(self) -> dict:
        return {"crps_mean": self.crps_mean, "crps_std": self.crps_std,
                "miscalibration_area": self.miscalibration_area,
                "sharpness": self.sharpness, "picp": self.picp}


def crps(dist: PredictiveDistribution, y: float) -> float:
    """Continuous ranked probability score of one forecast/observation pair."""
    return dist.crps(float(y))


def _observations(dists, ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=np.float64)
    if len(dists) != ys.size or ys.size == 0:
        raise LengthMismatch(f"{len(dists)} forecasts vs {ys.size} observations")
    return ys


def crps_summary(dists: Forecasts, ys) -> tuple:
    """Arithmetic mean and population standard deviation of per-point CRPS."""
    ys = _observations(dists, ys)
    if isinstance(dists, QuantileBatch):
        scores = dists.crps(ys)
    else:
        scores = np.array([d.crps(float(y)) for d, y in zip(dists, ys)])
    return float(scores.mean()), float(scores.std())


def _quantile_matrix(dists, grid) -> np.ndarray:
    """(T, G) matrix of per-forecast quantiles; vectorized for a quantile
    batch and for the all-Gaussian case."""
    if isinstance(dists, QuantileBatch):
        return np.stack([dists.quantile(float(p)) for p in grid], axis=1)
    if all(isinstance(d, GaussianDist) for d in dists):
        mus = np.array([d.mu for d in dists])
        sigmas = np.array([d.sigma for d in dists])
        with np.errstate(divide="ignore"):
            zs = ndtri(grid)
        return mus[:, None] + sigmas[:, None] * zs[None, :]
    return np.array([[d.quantile(float(p)) for p in grid] for d in dists])


def calibration_curve(dists: Forecasts, ys, grid_size: int = 101):
    """Observed coverage fraction per nominal probability level.

    Returns (levels, observed fractions, miscalibration area); the area is
    the trapezoidal integral of |observed - level| over the uniform grid.
    """
    ys = _observations(dists, ys)
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    grid = np.linspace(0.0, 1.0, grid_size)
    qmat = _quantile_matrix(dists, grid)
    observed = (ys[:, None] <= qmat).mean(axis=0)
    area = float(np.trapezoid(np.abs(observed - grid), grid))
    return grid, observed, area


def sharpness(dists: Forecasts) -> float:
    """Root mean predictive variance."""
    if len(dists) == 0:
        raise ValueError("sharpness needs at least one forecast")
    if isinstance(dists, QuantileBatch):
        return float(np.sqrt(np.mean(dists.variance())))
    return float(np.sqrt(np.mean([d.variance() for d in dists])))


def picp(lower, upper, ys) -> float:
    """Fraction of observations inside [lower, upper], elementwise."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not lower.shape == upper.shape == ys.shape or ys.size == 0:
        raise LengthMismatch("lower, upper and observations must align")
    if np.any(lower > upper):
        raise InvertedInterval("interval lower bound exceeds upper bound")
    return float(np.mean((lower <= ys) & (ys <= upper)))


def compute_report(dists: Forecasts, ys, lower, upper,
                   grid_size: int = 101) -> ScoreReport:
    """All four paper metrics for one flight's forecasts; the report also
    keeps the calibration curve it measured the area on."""
    mean, std = crps_summary(dists, ys)
    grid, observed, area = calibration_curve(dists, ys, grid_size)
    return ScoreReport(crps_mean=mean, crps_std=std, miscalibration_area=area,
                       sharpness=sharpness(dists), picp=picp(lower, upper, ys),
                       calibration=(grid, observed))
