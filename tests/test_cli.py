import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vphm
from vphm import artifact, cli, cnn, diagnostics, ingest, physics
from vphm.cli import main


SCENARIO = """\
# test mission
duration = 150
sample_period = 1.0
chemistry = lipo-30ah
load_kind = random_walk
load_mean = 40.0
load_sigma = 2.0
load_lo = 10.0
load_hi = 80.0
sigma_v = 0.02
bias_kind = constant
bias_volts = 0.2
seed = 5
flight_id = mission
"""


@pytest.fixture(scope="module")
def sandbox(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "scenario.kv"
    spec.write_text(SCENARIO, encoding="utf-8")

    data = root / "data"
    assert main(["simulate", "--spec", str(spec), "--out", str(data),
                 "--fleet", "2", "--scales", "1.0,1.0"]) == 0

    cnn_model = root / "cnn.vphm"
    assert main(["train", "--data", str(data), "--kind", "cnn",
                 "--out", str(cnn_model), "--epochs", "3", "--seed", "1",
                 "--mc-samples", "8"]) == 0
    qlr_model = root / "qlr.vphm"
    assert main(["train", "--data", str(data), "--kind", "qlr",
                 "--out", str(qlr_model), "--seed", "1"]) == 0
    return {"root": root, "spec": spec, "data": data,
            "cnn": cnn_model, "qlr": qlr_model}


class TestSimulate:
    def test_writes_flight_csvs(self, sandbox):
        files = sorted(p.name for p in sandbox["data"].glob("*.csv"))
        assert files == ["mission-00.csv", "mission-01.csv"]
        with open(sandbox["data"] / "mission-00.csv") as fh:
            header = fh.readline().strip()
        assert header == "time_s,current_a,voltage_v"

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["simulate", "--spec", str(tmp_path / "nope.kv"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_repeat_run_is_byte_identical(self, sandbox, tmp_path):
        out2 = tmp_path / "data2"
        assert main(["simulate", "--spec", str(sandbox["spec"]),
                     "--out", str(out2), "--fleet", "2",
                     "--scales", "1.0,1.0"]) == 0
        for name in ("mission-00.csv", "mission-01.csv"):
            assert (out2 / name).read_bytes() \
                == (sandbox["data"] / name).read_bytes()

    def test_seed_precedence_flag_then_file_then_default(self, tmp_path):
        def simulate(name, seed_line, *flags):
            spec = tmp_path / f"{name}.kv"
            spec.write_text(SCENARIO.replace("seed = 5\n", seed_line),
                            encoding="utf-8")
            assert main(["simulate", "--spec", str(spec),
                         "--out", str(tmp_path / name), *flags]) == 0
            return (tmp_path / name / "mission.csv").read_bytes()

        seven = simulate("seven", "seed = 7\n")
        eight = simulate("eight", "seed = 8\n")
        assert seven != eight
        assert simulate("seven-flag-8", "seed = 7\n", "--seed", "8") == eight
        assert simulate("no-seed", "") == simulate("zero", "seed = 0\n")
        assert simulate("no-seed-flag-7", "", "--seed", "7") == seven

    def test_bad_scales_exits_2(self, sandbox, tmp_path):
        assert main(["simulate", "--spec", str(sandbox["spec"]),
                     "--out", str(tmp_path / "x"), "--fleet", "2",
                     "--scales", "1.0"]) == 2


class TestTrain:
    def test_cnn_artifact_echoes_config(self, sandbox):
        kind, meta, _ = artifact.load_artifact(sandbox["cnn"])
        assert kind == "cnn"
        assert meta["config"]["epochs"] == 3
        assert meta["config"]["filters"] == 16
        assert meta["window_size"] == 10
        assert len(meta["fingerprint"]) == 64

    def test_unknown_kind_exits_2(self, sandbox, tmp_path):
        assert main(["train", "--data", str(sandbox["data"]), "--kind", "rnn",
                     "--out", str(tmp_path / "m")]) == 2

    def test_retrain_is_byte_identical(self, sandbox, tmp_path):
        again = tmp_path / "cnn2.vphm"
        assert main(["train", "--data", str(sandbox["data"]), "--kind", "cnn",
                     "--out", str(again), "--epochs", "3", "--seed", "1",
                     "--mc-samples", "8"]) == 0
        assert again.read_bytes() == sandbox["cnn"].read_bytes()

    def test_train_forest_and_boost(self, sandbox, tmp_path):
        for kind in ("qrf", "qgb"):
            out = tmp_path / f"{kind}.vphm"
            assert main(["train", "--data", str(sandbox["data"]),
                         "--kind", kind, "--out", str(out), "--seed", "2"]) == 0
            k, _, _ = artifact.load_artifact(out)
            assert k == kind

    def test_missing_data_dir_exits_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "none"), "--kind",
                     "cnn", "--out", str(tmp_path / "m")]) == 2

    def test_cnn_artifact_written_once(self, sandbox, tmp_path, monkeypatch):
        calls = []
        for name in ("save_artifact", "load_artifact"):
            real = getattr(artifact, name)
            monkeypatch.setattr(artifact, name, lambda *a, real=real,
                                name=name, **k: calls.append(name)
                                or real(*a, **k))
        out = tmp_path / "cnn.vphm"
        assert main(["train", "--data", str(sandbox["data"]), "--kind", "cnn",
                     "--out", str(out), "--epochs", "3", "--seed", "1",
                     "--mc-samples", "8"]) == 0
        assert calls == ["save_artifact"]
        assert out.read_bytes() == sandbox["cnn"].read_bytes()


class TestPredict:
    def test_cnn_prediction_columns(self, sandbox, tmp_path):
        out = tmp_path / "pred.csv"
        flight = sandbox["data"] / "mission-00.csv"
        assert main(["predict", "--model", str(sandbox["cnn"]),
                     "--flight", str(flight), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        assert rows[0]["uncorrected"] == "1"
        assert rows[20]["uncorrected"] == "0"
        assert float(rows[20]["sigma_tu"]) > 0.0
        # warm-up rows leave the model columns blank, as baselines do
        for row in rows[:9]:
            assert [row[c] for c in ("sigma_a", "sigma_e", "sigma_tu")] \
                == ["", "", ""]
        assert rows[9]["uncorrected"] == "0" and rows[9]["sigma_a"] != ""

    def test_baseline_prediction_columns(self, sandbox, tmp_path):
        out = tmp_path / "pred_qlr.csv"
        flight = sandbox["data"] / "mission-01.csv"
        assert main(["predict", "--model", str(sandbox["qlr"]),
                     "--flight", str(flight), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[30]["interval_lo"]) <= float(rows[30]["interval_hi"])

    def test_model_read_once(self, sandbox, tmp_path, monkeypatch):
        paths = []
        real = artifact.load_artifact
        monkeypatch.setattr(artifact, "load_artifact",
                            lambda path: paths.append(path) or real(path))
        for kind in ("cnn", "qlr"):
            assert main(["predict", "--model", str(sandbox[kind]), "--flight",
                         str(sandbox["data"] / "mission-00.csv"),
                         "--out", str(tmp_path / f"{kind}.csv")]) == 0
        assert paths == [str(sandbox["cnn"]), str(sandbox["qlr"])]


class TestBadData:
    """Data errors exit with code 2."""

    def test_too_short_flight_exits_2(self, sandbox, tmp_path):
        flight = tmp_path / "short.csv"
        lines = (sandbox["data"] / "mission-00.csv").read_text().splitlines()
        flight.write_text("\n".join(lines[:6]) + "\n", encoding="utf-8")
        assert main(["predict", "--model", str(sandbox["qlr"]), "--flight",
                     str(flight), "--out", str(tmp_path / "p.csv")]) == 2

    def test_all_invalid_voltage_exits_2(self, sandbox, tmp_path):
        flight = tmp_path / "novolts.csv"
        lines = (sandbox["data"] / "mission-00.csv").read_text().splitlines()
        flight.write_text("\n".join([lines[0]] + [
            line.rsplit(",", 1)[0] + "," for line in lines[1:]]) + "\n",
            encoding="utf-8")
        assert main(["predict", "--model", str(sandbox["qlr"]), "--flight",
                     str(flight), "--out", str(tmp_path / "p.csv")]) == 2

    def test_truncated_artifact_exits_2(self, sandbox, tmp_path):
        model = tmp_path / "cut.vphm"
        model.write_bytes(sandbox["qlr"].read_bytes()[:7])
        assert main(["predict", "--model", str(model), "--flight",
                     str(sandbox["data"] / "mission-00.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2


def edited_flight(sandbox, path, keep=None, time_cell=None):
    """mission-00.csv with only the rows whose time is in ``keep``, or with
    the fifth data row's time cell replaced by ``time_cell``."""
    lines = (sandbox["data"] / "mission-00.csv").read_text().splitlines()
    rows = [line for line in lines[1:]
            if keep is None or float(line.split(",")[0]) in keep]
    if time_cell is not None:
        rows[4] = time_cell + "," + rows[4].split(",", 1)[1]
    path.write_text("\n".join([lines[0], *rows]) + "\n", encoding="utf-8")
    return path


def scenario_with(tmp_path, old, new):
    spec = tmp_path / "edited.kv"
    spec.write_text(SCENARIO.replace(old, new), encoding="utf-8")
    return ["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]


def predict_with(sandbox, tmp_path, flight=None, config=None):
    argv = ["predict", "--model", str(sandbox["qlr"]), "--flight",
            str(flight or sandbox["data"] / "mission-00.csv"),
            "--out", str(tmp_path / "p.csv")]
    if config is not None:
        (tmp_path / "run.kv").write_text(config, encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.kv")]
    return argv


GAPPY_TIMES = {0, 1, 5, 6, 7, 8, 20, 21, 22, 23, 24}

MALFORMED = {
    "csv time cell": lambda sb, tmp: predict_with(
        sb, tmp, edited_flight(sb, tmp / "bad-time.csv", time_cell="abc")),
    "gappy timestamps": lambda sb, tmp: predict_with(
        sb, tmp, edited_flight(sb, tmp / "gappy.csv", keep=GAPPY_TIMES)),
    "config line without =": lambda sb, tmp: predict_with(
        sb, tmp, config="epochs 3\n"),
    "config number not a number": lambda sb, tmp: predict_with(
        sb, tmp, config="epochs = abc\n"),
    "scenario without duration": lambda sb, tmp: scenario_with(
        tmp, "duration = 150\n", ""),
    "unknown load kind": lambda sb, tmp: scenario_with(
        tmp, "load_kind = random_walk", "load_kind = zigzag"),
    "load argument not a number": lambda sb, tmp: scenario_with(
        tmp, "load_mean = 40.0", "load_mean = abc"),
    "scenario key typo": lambda sb, tmp: scenario_with(
        tmp, "sigma_v = 0.02", "sigma_v = 0.02\nsigma_V = 0.5"),
    "rates not numbers": lambda sb, tmp: [
        "sensitivity", "--data", str(sb["data"]), "--rates", "a,b"],
    "scales not numbers": lambda sb, tmp: [
        "simulate", "--spec", str(sb["spec"]), "--out", str(tmp / "o"),
        "--fleet", "2", "--scales", "x,1"],
}


class TestMalformedInput:
    """Malformed input from outside the program exits 2, not 1, and is not
    silently accepted."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2(self, sandbox, tmp_path, case):
        assert main(MALFORMED[case](sandbox, tmp_path)) == 2

    def test_gap_is_named(self, sandbox, tmp_path):
        flight = edited_flight(sandbox, tmp_path / "gappy.csv",
                               keep=GAPPY_TIMES)
        with pytest.raises(ingest.IrregularSampling, match="after t = 1 s"):
            ingest.clean(ingest.parse_flight_csv(flight))


class TestIntervalLevels:
    def diagnose(self, sandbox, kind, *flags):
        return main(["diagnose", "--model", str(sandbox[kind]),
                     "--data", str(sandbox["data"]), *flags])

    def test_z_beyond_baseline_grid_exits_2(self, sandbox, capsys):
        assert self.diagnose(sandbox, "qlr", "--z", "3") == 2
        err = capsys.readouterr().err
        assert "0.00134" in err and "0.025" in err

    def test_default_z_passes_and_cnn_takes_any_z(self, sandbox):
        lo, hi = cli.interval_levels(1.96, (0.025, 0.5, 0.975))
        assert 0.025 - lo < 1e-5 and hi - 0.975 < 1e-5
        assert self.diagnose(sandbox, "qlr") == 0
        assert self.diagnose(sandbox, "cnn", "--z", "3") == 0


@given(n=st.integers(1, 40), period=st.floats(1e-3, 100.0),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_flight_csv_round_trip_keeps_bits(tmp_path_factory, n, period, data):
    """A flight written by write_flight_csv, then parsed and cleaned, gives
    back the same times, current and voltage bits."""
    current = data.draw(st.lists(st.floats(-5.0, 200.0), min_size=n,
                                 max_size=n))
    voltage = data.draw(st.lists(st.floats(0.0, 30.0), min_size=n,
                                 max_size=n))
    log = ingest.FlightLog("f", np.arange(n) * period, np.array(current),
                           np.array(voltage), period)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    cli.write_flight_csv(path, log)
    back = ingest.clean(ingest.parse_flight_csv(path), flight_id="f")
    for name in ("times", "current", "voltage"):
        assert getattr(back, name).tobytes() == getattr(log, name).tobytes()


class TestArtifactKeys:
    """A key or array missing from an artifact is a usage error (exit 2);
    a KeyError raised by the program itself is a runtime failure (exit 1)."""

    def predict(self, sandbox, model, tmp_path):
        return main(["predict", "--model", str(model), "--flight",
                     str(sandbox["data"] / "mission-00.csv"),
                     "--out", str(tmp_path / "p.csv")])

    def test_cnn_artifact_without_array_exits_2(self, sandbox, tmp_path):
        kind, meta, arrays = artifact.load_artifact(sandbox["cnn"])
        del arrays["layer00/p0"]
        model = tmp_path / "no-weights.vphm"
        artifact.save_artifact(model, kind, meta, arrays)
        assert self.predict(sandbox, model, tmp_path) == 2

    def test_baseline_artifact_without_window_size_exits_2(self, sandbox,
                                                           tmp_path):
        kind, meta, arrays = artifact.load_artifact(sandbox["qlr"])
        del meta["window_size"]
        model = tmp_path / "no-window.vphm"
        artifact.save_artifact(model, kind, meta, arrays)
        assert self.predict(sandbox, model, tmp_path) == 2

    def test_internal_key_error_exits_1(self, sandbox, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "flight_forecast", broken)
        assert self.predict(sandbox, sandbox["cnn"], tmp_path) == 1


class TestBlasThreads:
    def test_train_and_predict_bytes_do_not_depend_on_thread_count(
            self, sandbox, tmp_path):
        src = str(Path(vphm.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            model = tmp_path / f"cnn-{threads}.vphm"
            pred = tmp_path / f"pred-{threads}.csv"
            for argv in (["train", "--data", str(sandbox["data"]), "--kind",
                          "cnn", "--out", str(model), "--epochs", "3",
                          "--seed", "1"],
                         ["predict", "--model", str(model), "--flight",
                          str(sandbox["data"] / "mission-00.csv"),
                          "--out", str(pred)]):
                subprocess.run([sys.executable, "-m", "vphm.cli", *argv],
                               env=env, check=True, capture_output=True,
                               timeout=300)
            outputs.append((model.read_bytes(), pred.read_bytes()))
        assert outputs[0] == outputs[1]


class TestEvaluate:
    def test_report_layout(self, sandbox, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--models", str(sandbox["cnn"]),
                     str(sandbox["qlr"]), "--data", str(sandbox["data"]),
                     "--out", str(out)]) == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 2 flights + TOTAL per model
        assert len(rows) == 6
        assert [r["flight"] for r in rows if r["model"] == "cnn"] \
            == ["mission-00", "mission-01", "TOTAL"]
        assert (out / "report.txt").exists()
        assert (out / "report.kv").exists()
        assert (out / "calibration_cnn.csv").exists()
        assert (out / "calibration_qlr.csv").exists()

    def test_calibration_columns_plot_ready(self, sandbox, tmp_path):
        out = tmp_path / "eval2"
        main(["evaluate", "--models", str(sandbox["cnn"]), "--data",
              str(sandbox["data"]), "--out", str(out)])
        grid = np.loadtxt(out / "calibration_cnn.csv", delimiter=",",
                          skiprows=1)
        assert grid.shape == (101, 2)
        assert grid[0, 0] == 0.0 and grid[-1, 0] == 1.0

    def test_rerun_identical(self, sandbox, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["evaluate", "--models", str(sandbox["cnn"]),
                         "--data", str(sandbox["data"]), "--out",
                         str(out)]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    def test_empty_data_dir_exits_2(self, sandbox, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", "--models", str(sandbox["cnn"]),
                     "--data", str(empty), "--out", str(tmp_path / "o")]) == 2


class TestDiagnose:
    def test_health_table_written(self, sandbox, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--model", str(sandbox["cnn"]),
                     "--data", str(sandbox["data"]), "--out", str(out)]) == 0
        text = (out / "health.txt").read_text()
        assert "mission-00" in text and "mission-01" in text
        with open(out / "health.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["verdict"] in ("OK", "NOK") for r in rows)

    def test_cnn_picp_equals_forecast_diagnosis(self, sandbox, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--model", str(sandbox["cnn"]),
                     "--data", str(sandbox["data"]), "--out", str(out)]) == 0
        with open(out / "health.csv") as fh:
            rows = {r["flight"]: r for r in csv.DictReader(fh)}
        model = cnn.load_model(sandbox["cnn"])
        params = physics.default_params("lipo-30ah")
        for path in sorted(sandbox["data"].glob("*.csv")):
            log = ingest.clean(ingest.parse_flight_csv(path),
                               flight_id=path.stem)
            want = diagnostics.diagnose(
                cnn.forecast_flight(model, log, params, seed=0), log.voltage)
            assert rows[path.stem]["picp"] == f"{want.picp_score:.3f}"
            assert rows[path.stem]["verdict"] == want.verdict

    def test_threshold_zero_all_ok(self, sandbox, capsys):
        assert main(["diagnose", "--model", str(sandbox["cnn"]),
                     "--data", str(sandbox["data"]), "--threshold", "0"]) == 0
        text = capsys.readouterr().out
        assert "NOK" not in text

    def test_threshold_above_one_all_nok_unless_perfect(self, sandbox, capsys):
        assert main(["diagnose", "--model", str(sandbox["cnn"]),
                     "--data", str(sandbox["data"]),
                     "--threshold", "1.000001"]) == 0
        out = capsys.readouterr().out
        table = [l for l in out.splitlines() if l.startswith("mission")]
        for line in table:
            assert line.rstrip().endswith("NOK") or " 1.000 " in line

    def test_healthy_and_degraded_pair_verdicts(self, sandbox, tmp_path):
        # end-to-end oracle: a battery simulated with 20% less capacity must
        # come back NOK while its healthy twin stays OK
        spec = tmp_path / "deep.kv"
        spec.write_text(SCENARIO.replace("duration = 150", "duration = 1200")
                        .replace("flight_id = mission", "flight_id = deep"),
                        encoding="utf-8")
        train_dir = tmp_path / "train"
        assert main(["simulate", "--spec", str(spec), "--out", str(train_dir),
                     "--fleet", "2", "--scales", "1.0,1.0"]) == 0
        diag_dir = tmp_path / "diag"
        assert main(["simulate", "--spec", str(spec), "--out", str(diag_dir),
                     "--fleet", "2", "--scales", "1.0,0.8", "--seed", "6"]) == 0
        model = tmp_path / "deep.vphm"
        assert main(["train", "--data", str(train_dir), "--kind", "cnn",
                     "--out", str(model), "--epochs", "60", "--seed", "2",
                     "--mc-samples", "30"]) == 0
        out = tmp_path / "health"
        assert main(["diagnose", "--model", str(model), "--data",
                     str(diag_dir), "--out", str(out)]) == 0
        with open(out / "health.csv") as fh:
            rows = {r["flight"]: r["verdict"] for r in csv.DictReader(fh)}
        assert rows["deep-00"] == "OK"
        assert rows["deep-01"] == "NOK"


class TestSensitivity:
    def test_rate_table(self, sandbox, tmp_path):
        out = tmp_path / "sens"
        assert main(["sensitivity", "--data", str(sandbox["data"]),
                     "--rates", "0.0,0.2", "--epochs", "2",
                     "--out", str(out)]) == 0
        with open(out / "sensitivity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["mean_sigma_e"]) == 0.0
        assert float(rows[1]["mean_sigma_e"]) > 0.0

    def test_config_file_and_flag_precedence(self, sandbox, tmp_path):
        conf = tmp_path / "run.kv"
        conf.write_text("epochs = 1\nmc_samples = 4\n", encoding="utf-8")
        out = tmp_path / "sens2"
        assert main(["sensitivity", "--data", str(sandbox["data"]),
                     "--rates", "0.1", "--config", str(conf),
                     "--epochs", "2", "--out", str(out)]) == 0
        assert (out / "sensitivity.csv").exists()

    def test_unknown_config_key_exits_2(self, sandbox, tmp_path):
        conf = tmp_path / "bad.kv"
        conf.write_text("nonsense_key = 1\n", encoding="utf-8")
        assert main(["sensitivity", "--data", str(sandbox["data"]),
                     "--rates", "0.1", "--config", str(conf)]) == 2
