"""Output checks for the CLI benchmark.

Every check recomputes a CLI output on a path apart from the one under
test: flights are re-read with the csv module, the physics voltage is
re-simulated with one ``physics.step`` call per sample, windows are cut
with ``sliding_window_view``, Gaussian CRPS uses the erf closed form
(spot-checked by adaptive quadrature) and piecewise-CDF CRPS uses
two-point Gauss-Legendre quadrature on every piece between the quantile
knots and the observation, which is exact for the piecewise-quadratic
integrand. Failures are (operation, message) pairs.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate
from scipy.special import erf

from vphm import baselines, physics

WINDOW = 10                 # CnnConfig().window_size, used by every model
Z = 1.96                    # default --z of predict, evaluate and diagnose
DIAG_MARGIN = 0.03          # verdicts must clear the threshold by this much
RTOL = 1e-9                 # recomputed scores against report.csv cells


def read_rows(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows, name) -> np.ndarray:
    return np.array([float(r[name]) if r[name] != "" else math.nan
                     for r in rows])


def read_flight(path):
    """(current, voltage, dt) of a flight CSV with uniform timestamps."""
    rows = read_rows(path)
    times = column(rows, "time_s")
    gaps = np.diff(times)
    if gaps.size == 0 or not np.all(gaps == gaps[0]):
        raise ValueError(f"{path}: timestamps are not uniform")
    return column(rows, "current_a"), column(rows, "voltage_v"), float(gaps[0])


def step_voltage(current, dt: float, params=None,
                 initial_soc: float = 1.0) -> np.ndarray:
    """Terminal voltage before each current sample, advancing the state by
    one ``physics.step`` per sample."""
    params = params or physics.default_params("lipo-30ah")
    state = physics.initial_state(params, initial_soc)
    out = np.empty(len(current))
    for k, amps in enumerate(current):
        out[k] = physics.terminal_voltage(state, params)
        state = physics.step(state, float(amps), dt, params)
    return out


def gaussian_crps(mu, sigma, y) -> np.ndarray:
    z = (y - mu) / sigma
    big_phi = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return sigma * (z * (2.0 * big_phi - 1.0) + 2.0 * phi
                    - 1.0 / math.sqrt(math.pi))


def gaussian_crps_quad(mu: float, sigma: float, y: float) -> float:
    """The CRPS integral of one Gaussian forecast by adaptive quadrature."""
    def cdf(x):
        return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))
    lo, hi = min(mu - 12.0 * sigma, y), max(mu + 12.0 * sigma, y)
    below, _ = integrate.quad(lambda x: cdf(x) ** 2, lo, y, epsabs=1e-14,
                              limit=200)
    above, _ = integrate.quad(lambda x: (1.0 - cdf(x)) ** 2, y, hi,
                              epsabs=1e-14, limit=200)
    return below + above


def _piecewise_cdf(values, levels, x) -> np.ndarray:
    """F at points x[t, m] strictly between knots of row t; point masses
    levels[0] and 1 - levels[-1] sit on the extreme values."""
    j = (values[:, None, :] < x[:, :, None]).sum(axis=2)
    g = values.shape[1]
    jl, jr = np.clip(j - 1, 0, g - 1), np.clip(j, 0, g - 1)
    va = np.take_along_axis(values, jl, axis=1)
    vb = np.take_along_axis(values, jr, axis=1)
    width = np.where(vb > va, vb - va, 1.0)
    inner = levels[jl] + (levels[jr] - levels[jl]) * (x - va) / width
    return np.where(j == 0, 0.0, np.where(j == g, 1.0, inner))


def piecewise_crps(values, levels, y, chunk: int = 512) -> np.ndarray:
    """Per-row integral of (F(x) - 1{x >= y})^2 by two-point Gauss-Legendre
    quadrature on each piece between sorted knots and y."""
    values = np.sort(np.asarray(values, dtype=np.float64), axis=1)
    levels = np.asarray(levels, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.empty(y.size)
    for s in range(0, y.size, chunk):
        v, yy = values[s:s + chunk], y[s:s + chunk]
        bp = np.sort(np.concatenate((v, yy[:, None]), axis=1), axis=1)
        half = 0.5 * (bp[:, 1:] - bp[:, :-1])
        mid = 0.5 * (bp[:, 1:] + bp[:, :-1])
        total = np.zeros_like(half)
        for node in (mid - half / math.sqrt(3.0), mid + half / math.sqrt(3.0)):
            f = _piecewise_cdf(v, levels, node)
            total += half * (f - (node >= yy[:, None])) ** 2
        out[s:s + chunk] = total.sum(axis=1)
    return out


def baseline_quantiles(model_path, current, physics_v) -> tuple:
    """(absolute-volt quantile matrix, levels) of a baseline artifact for
    one flight, from windows cut here and the step-simulated physics
    voltage."""
    model = baselines.load_baseline(model_path)
    feats = np.stack((sliding_window_view(current, WINDOW),
                      sliding_window_view(physics_v, WINDOW)), axis=2)
    qmat = model.predict_quantiles(feats.reshape(feats.shape[0], -1))
    return np.sort(qmat, axis=1) + physics_v[WINDOW - 1:, None], model.levels


def report_row(rows, model, flight) -> dict:
    for r in rows:
        if r["model"] == model and r["flight"] == flight:
            return {k: float(v) for k, v in r.items()
                    if k not in ("model", "flight")}
    raise KeyError(f"report.csv has no row {model}/{flight}")


def _close(a, b, rtol=RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-15


class Checker:
    """Checks of one round's outputs against the flights they came from."""

    def __init__(self, fleet, out: Path):
        self.fleet = fleet
        self.out = out
        self.failures = []
        self._flights = {}
        self._report = None

    def fail(self, op: str, message: str) -> None:
        self.failures.append((op, message))

    def guard(self, op: str, check, *args, **kwargs):
        """Run one check; a missing or malformed output fails op."""
        try:
            return check(*args, **kwargs)
        except (OSError, KeyError, ValueError) as exc:
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None

    def flight(self, path):
        """(current, measured voltage, step physics voltage) of a CSV."""
        path = Path(path)
        if path not in self._flights:
            current, voltage, dt = read_flight(path)
            self._flights[path] = (current, voltage,
                                   step_voltage(current, dt))
        return self._flights[path]

    def report(self):
        if self._report is None:
            self._report = read_rows(self.out / "scores" / "report.csv")
        return self._report

    def test_flights(self):
        return sorted(self.fleet.test_dir.glob("*.csv"))

    # -- predict ---------------------------------------------------------

    def check_predict(self, kind: str, flight_csv: Path,
                      pred_csv: Path) -> None:
        op = f"predict-{kind}-{flight_csv.stem}"
        rows = read_rows(pred_csv)
        current, measured, phys = self.flight(flight_csv)
        if len(rows) != current.size:
            self.fail(op, f"{len(rows)} rows for {current.size} samples")
            return
        flags = column(rows, "uncorrected")
        expected = np.arange(current.size) < WINDOW - 1
        if not np.array_equal(flags.astype(bool), expected):
            self.fail(op, "uncorrected flags are not the first "
                          f"{WINDOW - 1} rows")
        physics_v = column(rows, "physics_v")
        err = float(np.max(np.abs(physics_v - phys)))
        if err > 1e-9:
            self.fail(op, f"physics_v differs from physics.step by {err:.3g} V")
        scored = ~expected
        corrected = column(rows, "corrected_v")[scored]
        y = measured[scored]
        if kind == "cnn":
            sa, se, stu = (column(rows, c)[scored]
                           for c in ("sigma_a", "sigma_e", "sigma_tu"))
            gap = np.abs(stu ** 2 - (sa ** 2 + se ** 2))
            if np.any(gap > 1e-12 + RTOL * stu ** 2):
                self.fail(op, "sigma_tu^2 != sigma_a^2 + sigma_e^2 on "
                              f"{int(np.sum(gap > 1e-12 + RTOL * stu ** 2))}"
                              " rows")
            lo, hi = corrected - Z * stu, corrected + Z * stu
            self._check_gaussian_scores(flight_csv.stem, corrected, stu, y)
        else:
            lo = column(rows, "interval_lo")[scored]
            hi = column(rows, "interval_hi")[scored]
            bad = ~((lo <= corrected) & (corrected <= hi))
            if np.any(bad):
                self.fail(op, f"corrected_v outside [interval_lo, interval_hi]"
                              f" on {int(bad.sum())} rows")
        picp = float(np.mean((lo <= y) & (y <= hi)))
        row = report_row(self.report(), kind, flight_csv.stem)
        if abs(picp - row["picp"]) > 1e-12:
            self.fail("evaluate", f"{kind}/{flight_csv.stem}: picp "
                                  f"{row['picp']!r}, recomputed {picp!r}")

    def _check_gaussian_scores(self, flight, mu, sigma, y) -> None:
        scores = gaussian_crps(mu, np.maximum(sigma, 1e-12), y)
        for k in np.linspace(0, y.size - 1, 8).astype(int):
            quad = gaussian_crps_quad(float(mu[k]), float(sigma[k]), float(y[k]))
            if not _close(quad, float(scores[k]), 1e-7):
                self.fail("evaluate", f"cnn/{flight}: closed-form CRPS "
                                      f"{scores[k]!r} vs quadrature {quad!r}")
        self._check_crps_row("cnn", flight, scores)

    def _check_crps_row(self, kind, flight, scores) -> None:
        row = report_row(self.report(), kind, flight)
        for key, value in (("crps_mean", float(scores.mean())),
                           ("crps_std", float(scores.std()))):
            if not _close(value, row[key]):
                self.fail("evaluate", f"{kind}/{flight}: {key} {row[key]!r},"
                                      f" recomputed {value!r}")

    def check_past_eod(self, op: str, flights) -> None:
        """One of the flights must run 100 samples past the 3.0 V cutoff, so
        the physics check above covers the end of discharge."""
        past = [phys.size - np.argmax(phys <= 3.0) for _, _, phys
                in map(self.flight, flights) if np.any(phys <= 3.0)]
        if max(past, default=0) < 100:
            self.fail(op, "no predicted flight runs 100 s past end of "
                          "discharge")

    # -- evaluate --------------------------------------------------------

    def check_baseline_scores(self, kind: str, model_path: Path) -> None:
        """Per-flight CRPS of a quantile baseline by quadrature."""
        for path in self.test_flights():
            current, measured, phys = self.flight(path)
            qmat, levels = baseline_quantiles(model_path, current, phys)
            scores = piecewise_crps(qmat, levels, measured[WINDOW - 1:])
            self._check_crps_row(kind, path.stem, scores)

    def check_pooled_accuracy(self, kind: str) -> float:
        """Pooled CRPS must be at most half the physics-only MAE, so the
        +0.2 V bias is really corrected. Returns the pooled CRPS."""
        errors = [np.abs(m - p)[WINDOW - 1:]
                  for _, m, p in map(self.flight, self.test_flights())]
        mae = float(np.mean(np.concatenate(errors)))
        crps = report_row(self.report(), kind, "TOTAL")["crps_mean"]
        if not crps <= 0.5 * mae:
            self.fail("evaluate", f"{kind}: pooled CRPS {crps:.5f} V is not "
                                  f"below half the physics MAE {mae:.5f} V")
        return crps

    # -- diagnose --------------------------------------------------------

    def check_health(self, kind: str, health_csv: Path,
                     threshold: float) -> None:
        rows = {r["flight"]: r for r in read_rows(health_csv)}
        expected = {f: "OK" for f in self.fleet.healthy}
        expected.update({f: "NOK" for f in self.fleet.degraded})
        if set(rows) != set(expected):
            self.fail("diagnose", f"health.csv flights {sorted(rows)} != "
                                  f"{sorted(expected)}")
            return
        for flight, verdict in expected.items():
            row = rows[flight]
            picp = float(row["picp"])
            margin = picp - threshold if verdict == "OK" else threshold - picp
            if row["model"] != kind or row["verdict"] != verdict \
                    or margin < DIAG_MARGIN:
                self.fail("diagnose", f"{flight}: {row['model']} picp {picp}"
                                      f" {row['verdict']}, expected {verdict}"
                                      f" by a {DIAG_MARGIN} margin")


def predicted_flights(workload, fleet) -> list:
    """The test flights given to `vphm predict`."""
    return sorted(fleet.test_dir.glob("*.csv"))[:workload.predicted]


def predict_path(out: Path, kind: str, flight: Path) -> Path:
    return out / f"predict-{kind}-{flight.stem}.csv"


def check_round(workload, fleet, out: Path) -> tuple:
    """Every output check on one round whose `vphm predict` outputs are in
    out. Returns (failures, pooled CRPS in volts per model kind)."""
    checker = Checker(fleet, out)
    flights = predicted_flights(workload, fleet)
    crps = {}
    for kind in workload.kinds:
        for flight in flights:
            checker.guard(f"predict-{kind}-{flight.stem}",
                          checker.check_predict, kind, flight,
                          predict_path(out, kind, flight))
        if kind != "cnn":
            checker.guard("evaluate", checker.check_baseline_scores, kind,
                          out / f"model-{kind}.vphm")
        pooled = checker.guard("evaluate", checker.check_pooled_accuracy, kind)
        if pooled is not None:
            crps[kind] = pooled
    if workload.past_eod:
        op = f"predict-{workload.kinds[0]}-{flights[0].stem}"
        checker.guard(op, checker.check_past_eod, op, flights)
    checker.guard("diagnose", checker.check_health, workload.diagnose_kind,
                  out / "health" / "health.csv", workload.threshold)
    return checker.failures, crps
