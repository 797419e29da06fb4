"""Fast tests of the benchmark's own output checks, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each test corrupts one output of a clean tiny round and asserts that the
matching check fails, so no check is one that cannot fail.
"""

import csv
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vphm import metrics  # noqa: E402

TINY = workloads.Workload(
    name="tiny", kinds=("cnn", "qlr"), diagnose_kind="qlr",
    train=(1, 120.0), test=(2, 150.0), pairs=(1, 150.0), epochs=40,
    mc_samples=4)


@pytest.fixture(scope="module")
def tiny_round(tmp_path_factory):
    """One clean round of the tiny workload plus its predict outputs."""
    root = tmp_path_factory.mktemp("bench")
    fleet = workloads.write_fleet(TINY, 3, root / "data")
    with open(root / "cli.log", "w", encoding="utf-8") as log:
        plain = run.run_round(TINY, fleet, root / "round0", 3, log)
        with tracing.Tracer() as tracer:
            traced = run.run_round(TINY, fleet, root / "round1", 3, log)
        codes = run.predict_flights(TINY, fleet, root / "round0", 3, log)
    assert set(plain["codes"].values()) | set(codes.values()) == {0}
    return fleet, root / "round0", plain, traced, tracer


def corrupted(tiny_round, tmp_path, relpath, edit):
    """Failures of every check on a copy of the round with one CSV edited;
    edit(rows) changes the list of row dicts in place."""
    fleet, out, *_ = tiny_round
    copy = tmp_path / "round"
    shutil.copytree(out, copy)
    path = copy / relpath
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    failures, _ = checks.check_round(TINY, fleet, copy)
    clean, _ = checks.check_round(TINY, fleet, out)
    return [f for f in failures if f not in clean]


def scale_cell(rows, model, flight, key, factor):
    for r in rows:
        if r["model"] == model and r["flight"] == flight:
            r[key] = repr(float(r[key]) * factor)


def test_clean_round_passes_every_check_but_tiny_verdicts(tiny_round):
    fleet, out, *_ = tiny_round
    failures, crps = checks.check_round(TINY, fleet, out)
    # 150 s flights are too short to separate healthy from degraded
    assert [op for op, _ in failures if op != "diagnose"] == []
    assert set(crps) == {"cnn", "qlr"}


def test_traced_round_writes_identical_bytes(tiny_round):
    _, _, plain, traced, tracer = tiny_round
    assert traced["digests"] == plain["digests"]
    assert tracer.totals["nn.conv1d_calls"] > 0
    assert tracer.totals["baselines.predict_rows"] > 0
    assert set(tracer.totals) <= set(tracing.PER_LAYER)
    # leaving the tracer restored every wrapped attribute
    for owner, attr, *_ in tracing.TARGETS + tracing.COUNTED:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")


@pytest.mark.parametrize("kind,flight", [("cnn", "test-00"),
                                         ("qlr", "test-00"),
                                         ("qlr", "test-01")])
def test_perturbed_crps_cell_fails(tiny_round, tmp_path, kind, flight):
    failures = corrupted(tiny_round, tmp_path, "scores/report.csv",
                         lambda rows: scale_cell(rows, kind, flight,
                                                 "crps_mean", 1 + 1e-6))
    assert any(op == "evaluate" and "crps_mean" in msg
               for op, msg in failures)


def test_perturbed_picp_cell_fails(tiny_round, tmp_path):
    def edit(rows):
        for r in rows:
            if r["model"] == "qlr" and r["flight"] == "test-00":
                r["picp"] = repr(float(r["picp"]) - 1e-3)
    failures = corrupted(tiny_round, tmp_path, "scores/report.csv", edit)
    assert any("picp" in msg for _, msg in failures)


def test_uncorrected_total_crps_fails(tiny_round, tmp_path):
    failures = corrupted(tiny_round, tmp_path, "scores/report.csv",
                         lambda rows: scale_cell(rows, "qlr", "TOTAL",
                                                 "crps_mean", 40.0))
    assert any("physics MAE" in msg for _, msg in failures)


def test_sigma_off_by_one_percent_fails(tiny_round, tmp_path):
    def edit(rows):
        for r in rows:
            if r["sigma_tu"]:
                r["sigma_tu"] = repr(float(r["sigma_tu"]) * 1.01)
    failures = corrupted(tiny_round, tmp_path, "predict-cnn-test-00.csv", edit)
    assert any(op == "predict-cnn-test-00" and "sigma_tu" in msg
               for op, msg in failures)


def test_shifted_warmup_flags_fail(tiny_round, tmp_path):
    def edit(rows):
        rows[0]["uncorrected"] = "0"
    failures = corrupted(tiny_round, tmp_path, "predict-cnn-test-00.csv", edit)
    assert any("uncorrected" in msg for _, msg in failures)


def test_perturbed_physics_voltage_fails(tiny_round, tmp_path):
    def edit(rows):
        rows[50]["physics_v"] = repr(float(rows[50]["physics_v"]) + 1e-6)
    failures = corrupted(tiny_round, tmp_path, "predict-qlr-test-00.csv", edit)
    assert any(op == "predict-qlr-test-00" and "physics_v" in msg
               for op, msg in failures)


def test_interval_not_bracketing_center_fails(tiny_round, tmp_path):
    def edit(rows):
        rows[-1]["interval_lo"] = repr(float(rows[-1]["corrected_v"]) + 1e-3)
    failures = corrupted(tiny_round, tmp_path, "predict-qlr-test-00.csv", edit)
    assert any("interval" in msg for _, msg in failures)


def write_health(tiny_round, tmp_path, verdicts):
    fleet, out, *_ = tiny_round
    copy = tmp_path / "round"
    shutil.copytree(out, copy)
    with open(copy / "health" / "health.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flight", "model", "picp", "verdict"])
        writer.writerows(verdicts)
    failures, _ = checks.check_round(TINY, fleet, copy)
    return [msg for op, msg in failures if op == "diagnose"]


def test_clear_verdicts_pass_and_swapped_or_marginal_ones_fail(
        tiny_round, tmp_path):
    (healthy,), (degraded,) = tiny_round[0].healthy, tiny_round[0].degraded
    assert write_health(tiny_round, tmp_path / "a", [
        (healthy, "qlr", "0.950", "OK"), (degraded, "qlr", "0.500", "NOK")]) \
        == []
    assert write_health(tiny_round, tmp_path / "b", [
        (healthy, "qlr", "0.500", "NOK"), (degraded, "qlr", "0.950", "OK")])
    assert write_health(tiny_round, tmp_path / "c", [
        (healthy, "qlr", "0.910", "OK"), (degraded, "qlr", "0.500", "NOK")])


def test_piecewise_quadrature_matches_closed_form_with_ties():
    rng = np.random.default_rng(0)
    levels = np.array([0.025, 0.25, 0.5, 0.75, 0.975])
    values = np.sort(rng.normal(0.0, 1.0, (50, 5)), axis=1)
    values[::5, 2] = values[::5, 1]          # zero-width pieces
    ys = np.concatenate((rng.normal(0.0, 1.5, 48), [-9.0, 9.0]))
    quad = checks.piecewise_crps(values, levels, ys)
    exact = [metrics.PiecewiseCdf(v, levels).crps(float(y))
             for v, y in zip(values, ys)]
    np.testing.assert_allclose(quad, exact, rtol=1e-12, atol=1e-14)


def test_gaussian_closed_form_matches_quadrature():
    for mu, sigma, y in ((0.0, 1.0, 0.3), (3.7, 0.02, 3.75), (1.0, 0.5, -4.0)):
        closed = float(checks.gaussian_crps(mu, sigma, y))
        assert math.isclose(closed, checks.gaussian_crps_quad(mu, sigma, y),
                            rel_tol=1e-8)
