"""Command-line front end.

Subcommands: simulate | train | predict | evaluate | diagnose | sensitivity.
Every subcommand is deterministic given its inputs and --seed; output files
carry no timestamps so re-runs are byte-identical. Exit codes: 0 success,
2 usage/config errors, 1 runtime failures.

Config precedence: command-line flag > --config file > built-in default.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from . import artifact, baselines, cnn, diagnostics, ingest, kvconfig, metrics
from . import physics, synthgen


class UsageError(ValueError):
    """Bad invocation, config or input data (exit code 2)."""


USAGE_ERRORS = (UsageError, FileNotFoundError, NotADirectoryError,
                artifact.ArtifactError, cnn.InvalidConfig,
                ingest.EmptyFile, ingest.MissingColumn, ingest.UnknownFlight,
                ingest.TooShort, ingest.AllRecordsInvalid,
                physics.UnknownChemistry, KeyError)

MODEL_KINDS = ("cnn", "qlr", "qrf", "qgb")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

CONFIG_DEFAULTS = {
    "chemistry": "lipo-30ah",
    "initial_soc": 1.0,
    "z": diagnostics.DEFAULT_Z,
    "threshold": diagnostics.DEFAULT_THRESHOLD,
}


def load_run_config(args) -> dict:
    """Defaults, overridden by the --config file, overridden by CLI flags."""
    conf = dict(CONFIG_DEFAULTS)
    cnn_defaults = cnn.CnnConfig()
    for key in ("window_size", "epochs", "batch_size", "learning_rate",
                "dropout_rate", "mc_samples", "filters", "kernel",
                "conv_layers"):
        conf[key] = getattr(cnn_defaults, key)
    conf["fc_nodes"] = cnn_defaults.fc_nodes

    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        file_conf = kvconfig.load(path)
        unknown = set(file_conf) - set(conf)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        conf.update(file_conf)

    for key in conf:
        flag = getattr(args, key, None)
        if flag is not None:
            conf[key] = flag
    return conf


def cnn_config_from(conf: dict) -> cnn.CnnConfig:
    fc = conf["fc_nodes"]
    if isinstance(fc, (int, float)):
        fc = (int(fc),)
    return cnn.CnnConfig(
        window_size=int(conf["window_size"]),
        conv_layers=int(conf["conv_layers"]),
        filters=int(conf["filters"]),
        kernel=int(conf["kernel"]),
        fc_nodes=tuple(int(n) for n in fc),
        dropout_rate=float(conf["dropout_rate"]),
        epochs=int(conf["epochs"]),
        learning_rate=float(conf["learning_rate"]),
        mc_samples=int(conf["mc_samples"]),
        batch_size=int(conf["batch_size"]),
    ).validate()


def battery_params(conf: dict) -> physics.BatteryParams:
    return physics.default_params(str(conf["chemistry"]))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def write_flight_csv(path, log: ingest.FlightLog) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "current_a", "voltage_v"])
        for t, i, v in zip(log.times, log.current, log.voltage):
            writer.writerow([repr(float(t)), repr(float(i)), repr(float(v))])


def load_flights(data_dir) -> list:
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise UsageError(f"{data_dir} is not a directory")
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise UsageError(f"no flight CSVs in {data_dir}")
    logs = []
    for path in paths:
        records = ingest.parse_flight_csv(path)
        logs.append(ingest.clean(records, flight_id=path.stem))
    return logs


def pooled_windows(logs, params, window_size, initial_soc):
    windows = []
    for log in logs:
        sim = physics.simulate(log.current, log.sample_period, params,
                               initial_soc)
        windows += ingest.make_windows(log, sim.voltage, window_size, stride=1)
    return windows


def flatten_features(windows) -> tuple:
    x = np.stack([w.inputs.reshape(-1) for w in windows])
    y = np.array([w.target for w in windows])
    return x, y


def interval_levels(z: float) -> tuple:
    """Central-interval quantile levels equivalent to +/- z sigma."""
    lo = float(ndtr(-z))
    return lo, 1.0 - lo


def baseline_flight_forecast(model, log, params, window_size, initial_soc,
                             z):
    """Per-timestep forecast parts for a quantile baseline: one quantile
    batch shifted to absolute volts, interval bounds, corrected (median)
    voltage."""
    sim = physics.simulate(log.current, log.sample_period, params, initial_soc)
    windows = ingest.make_windows(log, sim.voltage, window_size, stride=1)
    x = np.stack([w.inputs.reshape(-1) for w in windows])
    qmat = model.predict_quantiles(x)
    shift = sim.voltage[window_size - 1:]
    # the batch sorts each row: monotone repair across levels
    batch = metrics.QuantileBatch(qmat + shift[:, None], model.levels)
    lo_level, hi_level = interval_levels(z)
    return (sim, batch, batch.quantile(lo_level), batch.quantile(hi_level),
            batch.quantile(0.5))


def cnn_flight_forecast(model, log, params, seed, initial_soc, z):
    fc = cnn.forecast_flight(model, log, params, seed=seed,
                             initial_soc=initial_soc)
    idx = fc.scored_indices
    mu = fc.corrected_voltage[idx]
    sigma = fc.sigma_tu[idx]
    dists = [metrics.GaussianDist(m, max(s, 1e-12))
             for m, s in zip(mu, sigma)]
    return fc, dists, mu - z * sigma, mu + z * sigma, mu


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise UsageError(f"scenario file {spec_path} does not exist")
    spec = synthgen.parse_scenario(spec_path)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    scales = [float(s) for s in args.scales.split(",")] if args.scales \
        else [1.0] * args.fleet
    if len(scales) != args.fleet:
        raise UsageError(f"--scales needs {args.fleet} entries")

    if args.fleet == 1 and not args.scales:
        logs = [synthgen.generate(spec)[0]]
    else:
        logs = synthgen.generate_fleet(args.fleet, spec, scales)
    for log in logs:
        path = out_dir / f"{log.flight_id}.csv"
        write_flight_csv(path, log)
        print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    conf = load_run_config(args)
    params = battery_params(conf)
    logs = load_flights(args.data)
    if args.train_ids:
        wanted = set(args.train_ids.split(","))
        logs, _ = ingest.split_by_flight(logs, wanted)
    config = cnn_config_from(conf)
    windows = pooled_windows(logs, params, config.window_size,
                             float(conf["initial_soc"]))
    fingerprint = cnn.fingerprint_ids([log.flight_id for log in logs])
    meta = {"window_size": config.window_size, "chemistry": conf["chemistry"],
            "initial_soc": float(conf["initial_soc"]),
            "fingerprint": fingerprint}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "cnn":
        model = cnn.build(config, args.seed)
        _, losses = cnn.train(model, windows, config, seed=args.seed)
        model.fingerprint = fingerprint
        cnn.save_model(model, out, meta=meta)
        print(f"trained cnn on {len(windows)} windows; "
              f"final epoch loss {losses[-1]:.6f}")
    else:
        x, y = flatten_features(windows)
        if args.kind == "qlr":
            model = baselines.qlr_fit(x, y)
        elif args.kind == "qrf":
            model = baselines.qrf_fit(
                x, y, baselines.ForestConfig(seed=args.seed))
        elif args.kind == "qgb":
            model = baselines.qgb_fit_set(x, y, baselines.BoostConfig())
        else:
            raise UsageError(f"unknown model kind {args.kind!r}")
        baselines.save_baseline(model, out, meta=meta)
        print(f"trained {args.kind} on {len(windows)} windows")
    print(f"wrote {out}")
    return 0


def _load_any_model(path):
    kind, meta, arrays = artifact.load_artifact(path)
    build = cnn.model_from_artifact if kind == "cnn" \
        else baselines.baseline_from_artifact
    return kind, build(kind, meta, arrays, path), meta


def _forecast_for(kind, model, meta, log, params, seed, initial_soc, z):
    if kind == "cnn":
        fc, dists, lower, upper, center = cnn_flight_forecast(
            model, log, params, seed, initial_soc, z)
        warm = model.config.window_size - 1
        sim_voltage = fc.physics_voltage
        extras = fc
    else:
        window_size = int(meta["window_size"])
        sim, dists, lower, upper, center = baseline_flight_forecast(
            model, log, params, window_size, initial_soc, z)
        warm = window_size - 1
        sim_voltage = sim.voltage
        extras = None
    measured = log.voltage[warm:]
    return dists, lower, upper, center, measured, warm, sim_voltage, extras


def cmd_predict(args) -> int:
    conf = load_run_config(args)
    params = battery_params(conf)
    kind, model, meta = _load_any_model(args.model)
    records = ingest.parse_flight_csv(args.flight)
    log = ingest.clean(records, flight_id=Path(args.flight).stem)
    initial_soc = float(meta.get("initial_soc", conf["initial_soc"]))
    z = float(conf["z"])
    dists, lower, upper, center, _, warm, sim_voltage, extras = _forecast_for(
        kind, model, meta, log, params, args.seed, initial_soc, z)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if kind == "cnn":
            writer.writerow(["time_s", "physics_v", "corrected_v", "sigma_a",
                             "sigma_e", "sigma_tu", "uncorrected"])
            fc = extras
            for i in range(len(log)):
                writer.writerow([
                    repr(float(log.times[i])),
                    repr(float(fc.physics_voltage[i])),
                    repr(float(fc.corrected_voltage[i])),
                    repr(float(fc.sigma_a[i])),
                    repr(float(fc.sigma_e[i])),
                    repr(float(fc.sigma_tu[i])),
                    int(fc.uncorrected[i])])
        else:
            writer.writerow(["time_s", "physics_v", "corrected_v",
                             "interval_lo", "interval_hi", "uncorrected"])
            for i in range(len(log)):
                if i < warm:
                    row = [repr(float(log.times[i])),
                           repr(float(sim_voltage[i])),
                           repr(float(sim_voltage[i])), "", "", 1]
                else:
                    j = i - warm
                    row = [repr(float(log.times[i])),
                           repr(float(sim_voltage[i])),
                           repr(float(center[j])),
                           repr(float(lower[j])), repr(float(upper[j])), 0]
                writer.writerow(row)
    print(f"wrote {out}")
    return 0


def _format_score_table(rows) -> str:
    header = (f"{'model':<5} {'flight':<12} {'crps':>9} {'(std)':>9} "
              f"{'calib':>7} {'sharp':>7} {'picp':>6}")
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['model']:<5} {r['flight']:<12} {r['crps_mean']:>9.4f} "
            f"{r['crps_std']:>9.4f} {r['miscalibration_area']:>7.3f} "
            f"{r['sharpness']:>7.4f} {r['picp']:>6.3f}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    conf = load_run_config(args)
    params = battery_params(conf)
    logs = load_flights(args.data)
    z = float(conf["z"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for model_path in args.models:
        kind, model, meta = _load_any_model(model_path)
        initial_soc = float(meta.get("initial_soc", conf["initial_soc"]))
        pooled = {"dists": [], "ys": [], "lower": [], "upper": []}
        for log in logs:
            dists, lower, upper, _, measured, _, _, _ = _forecast_for(
                kind, model, meta, log, params, args.seed, initial_soc, z)
            report = metrics.compute_report(dists, measured, lower, upper)
            rows.append({"model": kind, "flight": log.flight_id,
                         **report.to_kv()})
            pooled["dists"].append(dists)
            pooled["ys"].append(measured)
            pooled["lower"].append(lower)
            pooled["upper"].append(upper)
            print(f"evaluated {kind} on {log.flight_id}")
        if kind == "cnn":
            dists = [d for part in pooled["dists"] for d in part]
        else:
            dists = metrics.QuantileBatch(
                np.concatenate([b.values for b in pooled["dists"]]),
                model.levels)
        total = metrics.compute_report(dists, np.concatenate(pooled["ys"]),
                                       np.concatenate(pooled["lower"]),
                                       np.concatenate(pooled["upper"]))
        rows.append({"model": kind, "flight": "TOTAL", **total.to_kv()})
        grid, observed = total.calibration
        with open(out_dir / f"calibration_{kind}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "observed"])
            for p, o in zip(grid, observed):
                writer.writerow([repr(float(p)), repr(float(o))])

    with open(out_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "flight", "crps_mean", "crps_std",
                         "miscalibration_area", "sharpness", "picp"])
        for r in rows:
            writer.writerow([r["model"], r["flight"], repr(r["crps_mean"]),
                             repr(r["crps_std"]),
                             repr(r["miscalibration_area"]),
                             repr(r["sharpness"]), repr(r["picp"])])
    (out_dir / "report.txt").write_text(_format_score_table(rows),
                                        encoding="utf-8")
    kv = {}
    for r in rows:
        prefix = f"{r['model']}.{r['flight']}"
        for key, value in r.items():
            if key not in ("model", "flight"):
                kv[f"{prefix}.{key}"] = float(value)
    kvconfig.dump(kv, out_dir / "report.kv")
    print(f"wrote {out_dir / 'report.txt'}")
    return 0


def cmd_diagnose(args) -> int:
    conf = load_run_config(args)
    params = battery_params(conf)
    logs = load_flights(args.data)
    z = float(conf["z"])
    threshold = float(conf["threshold"])
    kind, model, meta = _load_any_model(args.model)
    initial_soc = float(meta.get("initial_soc", conf["initial_soc"]))

    reports = []
    for log in logs:
        _, lower, upper, _, measured, _, _, extras = _forecast_for(
            kind, model, meta, log, params, args.seed, initial_soc, z)
        if kind == "cnn":
            reports.append(diagnostics.diagnose(extras, log.voltage, z=z,
                                                threshold=threshold))
        else:
            reports.append(diagnostics.diagnose_bounds(
                log.flight_id, lower, upper, measured, z=z,
                threshold=threshold, model_kind=kind))
        print(f"diagnosed {log.flight_id}: {reports[-1].verdict}")

    rows = diagnostics.fleet_report(reports)
    table = diagnostics.format_fleet_table(rows)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "health.txt").write_text(table, encoding="utf-8")
        with open(out_dir / "health.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["flight", "model", "picp", "verdict"])
            for r in rows:
                writer.writerow([r.flight_id, r.model_kind,
                                 f"{r.picp_score:.3f}", r.verdict])
        print(f"wrote {out_dir / 'health.txt'}")
    else:
        print(table, end="")
    return 0


def cmd_sensitivity(args) -> int:
    conf = load_run_config(args)
    params = battery_params(conf)
    logs = load_flights(args.data)
    config = cnn_config_from(conf)
    rates = [float(r) for r in args.rates.split(",")]
    if not rates:
        raise UsageError("--rates must list at least one dropout rate")

    if args.eval_ids:
        eval_ids = set(args.eval_ids.split(","))
    else:
        eval_ids = {logs[-1].flight_id}
    eval_logs, train_logs = ingest.split_by_flight(logs, eval_ids)
    if not train_logs or not eval_logs:
        raise UsageError("need at least one training and one evaluation flight")
    initial_soc = float(conf["initial_soc"])
    train_w = pooled_windows(train_logs, params, config.window_size, initial_soc)
    eval_w = pooled_windows(eval_logs, params, config.window_size, initial_soc)

    rows = cnn.dropout_sensitivity(config, rates, train_w, eval_w,
                                   seed=args.seed)
    header = (f"{'rate':>5} {'mean_sigma_e':>13} {'calibration':>12} "
              f"{'sharpness':>10} {'crps':>9}")
    lines = [header]
    for r in rows:
        lines.append(f"{r.dropout_rate:>5.2f} {r.mean_sigma_e:>13.5f} "
                     f"{r.calibration_area:>12.3f} {r.sharpness:>10.5f} "
                     f"{r.crps_mean:>9.5f}")
    table = "\n".join(lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sensitivity.txt").write_text(table, encoding="utf-8")
        with open(out_dir / "sensitivity.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rate", "mean_sigma_e", "calibration_area",
                             "sharpness", "crps_mean"])
            for r in rows:
                writer.writerow([repr(r.dropout_rate), repr(r.mean_sigma_e),
                                 repr(r.calibration_area), repr(r.sharpness),
                                 repr(r.crps_mean)])
        print(f"wrote {out_dir / 'sensitivity.txt'}")
    else:
        print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vphm",
        description="Hybrid battery end-of-discharge voltage prognostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key-value config file")

    p = sub.add_parser("simulate", help="generate synthetic flight CSVs")
    common(p)
    p.add_argument("--spec", required=True, help="scenario key-value file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fleet", type=int, default=1)
    p.add_argument("--scales", help="comma list of q_max scales, one per flight")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model on a directory of flights")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--train-ids", help="comma list; default: all flights")
    p.add_argument("--epochs", type=int)
    p.add_argument("--window-size", dest="window_size", type=int)
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="per-timestep forecast for one flight")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--flight", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score models on test flights")
    common(p)
    p.add_argument("--models", required=True, nargs="+")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z", type=float)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="health-state verdict per flight")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--z", type=float)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sensitivity", help="dropout-rate sensitivity table")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--rates", required=True,
                   help="comma list of dropout rates")
    p.add_argument("--eval-ids", dest="eval_ids",
                   help="flights held out for evaluation")
    p.add_argument("--out")
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
