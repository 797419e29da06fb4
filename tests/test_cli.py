import csv

import numpy as np
import pytest

from vphm import artifact
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
