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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from . import InputError, artifact, baselines, cnn, diagnostics, ingest
from . import kvconfig, metrics, physics, synthgen


class UsageError(InputError):
    """Bad invocation or config value (exit code 2)."""


USAGE_ERRORS = (InputError, FileNotFoundError, NotADirectoryError)

MODEL_KINDS = ("cnn", "qlr", "qrf", "qgb")
# how far a baseline interval level may fall outside the model's level grid
LEVEL_TOLERANCE = 1e-4


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
    conf = dict(CONFIG_DEFAULTS, **asdict(cnn.CnnConfig()))
    del conf["padding"]                 # the only padding is `same`

    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        file_conf = kvconfig.load(path)
        unknown = set(file_conf) - set(conf)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_conf.items():
            numbers = (int, float, tuple) if key == "fc_nodes" else (int, float)
            if not isinstance(conf[key], str) and not isinstance(value, numbers):
                raise UsageError(f"config key {key} needs a number, got {value!r}")
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

def write_csv(path, header, rows) -> None:
    """Write a CSV file: float cells as ``repr(float(c))``, the shortest
    text that reads back to the same bits, every other cell as it is."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(c)) if isinstance(c, float) else c
                          for c in row] for row in rows)


def write_flight_csv(path, log: ingest.FlightLog) -> None:
    write_csv(path, ingest.COLUMNS.values(), zip(
        log.times.tolist(), log.current.tolist(), log.voltage.tolist()))


def write_table(out, name, table, header, rows) -> None:
    """``name``.txt and ``name``.csv into the directory ``out``, or the
    text table to stdout when ``out`` is not given."""
    if not out:
        print(table, end="")
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text(table, encoding="utf-8")
    write_csv(out_dir / f"{name}.csv", header, rows)
    print(f"wrote {out_dir / f'{name}.txt'}")


def float_list(text) -> list:
    """A comma list of numbers (an argparse type: a bad list exits 2)."""
    return [float(s) for s in text.split(",")]


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


def interval_levels(z: float, levels) -> tuple:
    """Central-interval quantile levels equivalent to +/- z sigma. A level
    more than LEVEL_TOLERANCE outside the model's level grid is a
    UsageError: its quantile would be clamped to the end of the grid."""
    lo = float(ndtr(-z))
    if not min(levels) - LEVEL_TOLERANCE <= min(lo, 1.0 - lo) \
            <= max(lo, 1.0 - lo) <= max(levels) + LEVEL_TOLERANCE:
        raise UsageError(f"z = {z} asks for quantile level {lo!r}, outside "
                         f"the model's level grid {list(levels)}")
    return lo, 1.0 - lo


@dataclass
class Forecast:
    """One model's forecast of one flight. The first ``warm`` samples are
    physics-only and unscored; ``physics_v`` covers every sample, the other
    arrays, and the model's own ``predict`` columns in ``extra``, cover the
    scored rows."""

    physics_v: np.ndarray
    warm: int
    measured: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    dists: object           # metrics.GaussianBatch or metrics.QuantileBatch
    extra: dict


def flight_forecast(kind, model, meta, log, conf, seed) -> Forecast:
    """The forecast of ``log`` by a model and meta from ``_load_any_model``,
    with its central interval at +/- z sigma (Gaussian) or the equivalent
    quantile levels. The initial state of charge the model was trained at
    wins over the run config's."""
    params = battery_params(conf)
    initial_soc = float(meta.get("initial_soc", conf["initial_soc"]))
    z = float(conf["z"])
    warm = meta["window_size"] - 1
    if kind == "cnn":
        fc = cnn.forecast_flight(model, log, params, seed=seed,
                                 initial_soc=initial_soc)
        physics_v = fc.physics_voltage
        center = fc.corrected_voltage[warm:]
        sigma = fc.sigma_tu[warm:]
        # floored for scoring only: a batch rejects sigma = 0
        dists = metrics.GaussianBatch(center, np.maximum(sigma, 1e-12))
        lower, upper = center - z * sigma, center + z * sigma
        extra = {name: getattr(fc, name)[warm:]
                 for name in ("sigma_a", "sigma_e", "sigma_tu")}
    else:
        physics_v = physics.simulate(log.current, log.sample_period, params,
                                     initial_soc).voltage
        x, _ = flatten_features(
            ingest.make_windows(log, physics_v, warm + 1, stride=1))
        # the batch sorts each row: monotone repair across levels
        dists = metrics.QuantileBatch(
            model.predict_quantiles(x) + physics_v[warm:, None], model.levels)
        lo_level, hi_level = interval_levels(z, model.levels)
        lower, upper = dists.quantile(lo_level), dists.quantile(hi_level)
        center = dists.quantile(0.5)
        extra = {"interval_lo": lower, "interval_hi": upper}
    return Forecast(physics_v=physics_v, warm=warm,
                    measured=log.voltage[warm:], center=center, lower=lower,
                    upper=upper, dists=dists, extra=extra)


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

    scales = args.scales or [1.0] * args.fleet
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
        else:
            model = baselines.qgb_fit_set(x, y, baselines.BoostConfig())
        baselines.save_baseline(model, out, meta=meta)
        print(f"trained {args.kind} on {len(windows)} windows")
    print(f"wrote {out}")
    return 0


def _load_any_model(path):
    """(kind, model, meta) of the artifact at ``path``. ``meta`` gains the
    model's ``window_size`` (a cnn's from its config). A manifest key or
    array the model needs and the artifact lacks is an ``ArtifactError``."""
    kind, meta, arrays = artifact.load_artifact(path)
    build = cnn.model_from_artifact if kind == "cnn" \
        else baselines.baseline_from_artifact
    try:
        model = build(kind, meta, arrays, path)
        window = model.config.window_size if kind == "cnn" \
            else int(meta["window_size"])
    except KeyError as exc:
        raise artifact.ArtifactError(f"{path}: artifact has no {exc}") from exc
    return kind, model, {**meta, "window_size": window}


def cmd_predict(args) -> int:
    conf = load_run_config(args)
    kind, model, meta = _load_any_model(args.model)
    records = ingest.parse_flight_csv(args.flight)
    log = ingest.clean(records, flight_id=Path(args.flight).stem)
    fc = flight_forecast(kind, model, meta, log, conf, args.seed)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    physics_v = fc.physics_v.tolist()
    blank = [""] * fc.warm
    write_csv(out, ["time_s", "physics_v", "corrected_v", *fc.extra,
                    "uncorrected"],
              zip(log.times.tolist(), physics_v,
                  physics_v[:fc.warm] + fc.center.tolist(),
                  *(blank + col.tolist() for col in fc.extra.values()),
                  [1] * fc.warm + [0] * len(fc.center)))
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
    logs = load_flights(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for model_path in args.models:
        kind, model, meta = _load_any_model(model_path)
        fcs = []
        for log in logs:
            fc = flight_forecast(kind, model, meta, log, conf, args.seed)
            report = metrics.compute_report(fc.dists, fc.measured, fc.lower,
                                            fc.upper)
            rows.append({"model": kind, "flight": log.flight_id,
                         **report.to_kv()})
            fcs.append(fc)
            print(f"evaluated {kind} on {log.flight_id}")
        total = metrics.compute_report(
            type(fcs[0].dists).concat([fc.dists for fc in fcs]),
            *(np.concatenate([getattr(fc, name) for fc in fcs])
              for name in ("measured", "lower", "upper")))
        rows.append({"model": kind, "flight": "TOTAL", **total.to_kv()})
        grid, observed = total.calibration
        write_csv(out_dir / f"calibration_{kind}.csv", ["level", "observed"],
                  zip(grid.tolist(), observed.tolist()))

    write_csv(out_dir / "report.csv", list(rows[0]),
              [list(r.values()) for r in rows])
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
    logs = load_flights(args.data)
    kind, model, meta = _load_any_model(args.model)

    reports = []
    for log in logs:
        fc = flight_forecast(kind, model, meta, log, conf, args.seed)
        reports.append(diagnostics.diagnose_bounds(
            log.flight_id, fc.lower, fc.upper, fc.measured,
            z=float(conf["z"]), threshold=float(conf["threshold"]),
            model_kind=kind))
        print(f"diagnosed {log.flight_id}: {reports[-1].verdict}")

    rows = diagnostics.fleet_report(reports)
    write_table(args.out, "health", diagnostics.format_fleet_table(rows),
                ["flight", "model", "picp", "verdict"],
                [[r.flight_id, r.model_kind, f"{r.picp_score:.3f}", r.verdict]
                 for r in rows])
    return 0


def cmd_sensitivity(args) -> int:
    conf = load_run_config(args)
    params = battery_params(conf)
    logs = load_flights(args.data)
    config = cnn_config_from(conf)

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

    rows = cnn.dropout_sensitivity(config, args.rates, train_w, eval_w,
                                   seed=args.seed)
    header = (f"{'rate':>5} {'mean_sigma_e':>13} {'calibration':>12} "
              f"{'sharpness':>10} {'crps':>9}")
    lines = [header]
    for r in rows:
        lines.append(f"{r.dropout_rate:>5.2f} {r.mean_sigma_e:>13.5f} "
                     f"{r.calibration_area:>12.3f} {r.sharpness:>10.5f} "
                     f"{r.crps_mean:>9.5f}")
    write_table(args.out, "sensitivity", "\n".join(lines) + "\n",
                ["rate", "mean_sigma_e", "calibration_area", "sharpness",
                 "crps_mean"],
                [[r.dropout_rate, r.mean_sigma_e, r.calibration_area,
                  r.sharpness, r.crps_mean] for r in rows])
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
    p.add_argument("--scales", type=float_list,
                   help="comma list of q_max scales, one per flight")
    # no default seed: the flag overrides the scenario file's seed
    p.set_defaults(func=cmd_simulate, seed=None)

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
    p.add_argument("--rates", required=True, type=float_list,
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
