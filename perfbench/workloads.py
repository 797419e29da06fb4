"""Workload definitions and fleet set-up for the CLI benchmark.

Every flight flies the mission of ``scripts/run_pipeline.py`` and
``tests/test_acceptance.py``: a random-walk load around 40 A bounded to
10-80 A, a +0.2 V constant bias of the truth battery over the physics model
and 0.02 V voltage-sensor noise. Flights are generated in process with
``synthgen`` and written as ``time_s,current_a,voltage_v`` CSVs, so the
program under test receives only files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from vphm import cli, physics, synthgen

CHEMISTRY = "lipo-30ah"
MISSION_LOAD = {"mean": 40.0, "sigma": 2.0, "lo": 10.0, "hi": 80.0,
                "smoothing": 5}
DEGRADED_SCALE = 0.8      # q_max of the degraded battery of each pair

# Flight k of a role gets ScenarioSpec.seed = 1000 * workload seed +
# offset + k, so every mission of a run is distinct and runs with different
# workload seeds share none. Both batteries of a diagnosis pair fly the
# same mission (one seed) with different noise draws (generate_fleet).
ROLE_OFFSETS = {"train": 0, "test": 300, "pair": 600}
MAX_PER_ROLE = 300


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple             # model kinds trained, in order
    diagnose_kind: str       # model used by `vphm diagnose`
    train: tuple             # (flights, seconds per flight)
    test: tuple              # (flights, seconds per flight)
    pairs: tuple             # (healthy/degraded pairs, seconds per flight)
    epochs: int = 0          # --epochs for cnn training; 0 = model default
    mc_samples: int = 0      # --mc-samples for cnn training; 0 = default
    cnn_config: str = ""     # --config file text for cnn training
    predicted: int = 1       # test flights given to `vphm predict`
    past_eod: bool = False   # one of them must run past the 3.0 V cutoff
    subsets: tuple = ()      # (kind, n): train kind on the first n flights
    threshold: float = 0.9   # diagnose --threshold (the CLI default);
                             # the baselines' 95 % intervals cover a healthy
                             # flight at 0.87-0.97, so they are judged at 0.8


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hybrid-cnn",
        kinds=("cnn",), diagnose_kind="cnn",
        train=(3, 600.0), test=(2, 600.0), pairs=(1, 1800.0),
        epochs=30, mc_samples=25,
        # three times the default rate: 30 epochs then bring the CRPS close
        # to the noise floor and tell the degraded battery apart on every
        # seed tried; at 20 epochs one seed in ten still called it OK
        cnn_config="learning_rate = 0.003\n"),
    Workload(
        name="tree-baselines",
        kinds=("qrf", "qgb"), diagnose_kind="qrf",
        train=(2, 300.0), test=(2, 600.0), pairs=(3, 1800.0),
        # QGB fits 21 x 100 trees, so it sees one flight and QRF both
        subsets=(("qgb", 1),), threshold=0.8),
    Workload(
        name="fleet-scoring",
        kinds=("qlr",), diagnose_kind="qlr",
        # the physics cutoff falls between 1400 s and 3700 s, depending on
        # the load walk; at 3600 s at least one of three flights is past it
        # on all but a few seeds in 100000
        train=(3, 1200.0), test=(3, 3600.0), pairs=(4, 2700.0),
        predicted=3, past_eod=True, threshold=0.8),
)}


def flight_seed(workload_seed: int, role: str, k: int) -> int:
    if not 0 <= k < MAX_PER_ROLE:
        raise ValueError(f"flight index {k} outside 0..{MAX_PER_ROLE - 1}")
    return 1000 * workload_seed + ROLE_OFFSETS[role] + k


def mission(seed: int, duration: float, flight_id: str
            ) -> synthgen.ScenarioSpec:
    return synthgen.ScenarioSpec(
        duration=duration, params=physics.default_params(CHEMISTRY),
        load_kind="random_walk", load_args=dict(MISSION_LOAD),
        sigma_v=0.02, bias_kind="constant", bias_volts=0.2, seed=seed,
        flight_id=flight_id)


@dataclass
class Fleet:
    train_dir: Path
    test_dir: Path
    diag_dir: Path
    cnn_config: Path
    healthy: list            # flight ids of the healthy pair members
    degraded: list           # flight ids of the degraded pair members


def write_fleet(workload: Workload, workload_seed: int, root: Path) -> Fleet:
    """Generate the workload's flights and write them as CSVs under root."""
    fleet = Fleet(root / "train", root / "test", root / "diag",
                  root / "cnn.kv", [], [])
    for role, directory in (("train", fleet.train_dir),
                            ("test", fleet.test_dir)):
        directory.mkdir(parents=True)
        count, duration = getattr(workload, role)
        for k in range(count):
            spec = mission(flight_seed(workload_seed, role, k), duration,
                           f"{role}-{k:02d}")
            log, _ = synthgen.generate(spec)
            cli.write_flight_csv(directory / f"{log.flight_id}.csv", log)
    fleet.diag_dir.mkdir(parents=True)
    count, duration = workload.pairs
    for k in range(count):
        spec = mission(flight_seed(workload_seed, "pair", k), duration,
                       f"pair{k:02d}")
        healthy, degraded = synthgen.generate_fleet(
            2, spec, [1.0, DEGRADED_SCALE])
        for log in (healthy, degraded):
            cli.write_flight_csv(fleet.diag_dir / f"{log.flight_id}.csv", log)
        fleet.healthy.append(healthy.flight_id)
        fleet.degraded.append(degraded.flight_id)
    fleet.cnn_config.write_text(workload.cnn_config, encoding="utf-8")
    return fleet


def round_commands(workload: Workload, fleet: Fleet, out: Path,
                   seed: int) -> list:
    """The timed commands of one round as (phase, op name, argv, outputs).

    Phases are train, evaluate and diagnose; outputs are the files the
    command writes, compared byte for byte across rounds.
    """
    s = str(seed)
    models = {kind: out / f"model-{kind}.vphm" for kind in workload.kinds}
    commands = []
    for kind, path in models.items():
        argv = ["train", "--data", str(fleet.train_dir), "--kind", kind,
                "--out", str(path), "--seed", s]
        if kind == "cnn":
            argv += ["--config", str(fleet.cnn_config)]
            if workload.epochs:
                argv += ["--epochs", str(workload.epochs)]
            if workload.mc_samples:
                argv += ["--mc-samples", str(workload.mc_samples)]
        subset = dict(workload.subsets).get(kind)
        if subset:
            argv += ["--train-ids", ",".join(
                f"train-{k:02d}" for k in range(subset))]
        commands.append(("train", f"train-{kind}", argv, [path]))
    scores = out / "scores"
    commands.append((
        "evaluate", "evaluate",
        ["evaluate", "--models", *map(str, models.values()),
         "--data", str(fleet.test_dir), "--out", str(scores), "--seed", s],
        [scores / "report.csv"]
        + [scores / f"calibration_{kind}.csv" for kind in workload.kinds]))
    health = out / "health"
    commands.append((
        "diagnose", "diagnose",
        ["diagnose", "--model", str(models[workload.diagnose_kind]),
         "--data", str(fleet.diag_dir), "--out", str(health), "--seed", s,
         "--threshold", repr(workload.threshold)],
        [health / "health.csv"]))
    return commands
