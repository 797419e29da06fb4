#!/usr/bin/env python3
"""Benchmark of the vphm command line on synthetic fleets.

Run from the repository root:

    python3 perfbench/run.py --workload hybrid-cnn --seed 1 --seconds 30 --trace 0

Set-up generates the workload's flights from --seed and writes them as CSVs.
A round then runs the workload's `vphm train`, `evaluate` and `diagnose`
commands in process through ``vphm.cli.main``. Rounds repeat until
--seconds have passed, and every timing is that of the fastest round, since
noise from other work on the machine only ever adds time. After the rounds,
`vphm predict` runs on the workload's predicted flights and the outputs of
the first round are checked against computations made apart from the CLI
(see checks.py); later rounds must reproduce them byte for byte. With
--trace 1 untraced and traced rounds alternate: the traced ones time the
program's layers from outside (see tracing.py) and must write the same
bytes as the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
PHASES = ("train", "evaluate", "diagnose")


def process_start() -> float:
    """perf_counter() value at process start, from /proc; the start of this
    script where /proc is unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return T_START
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    now = time.perf_counter()
    return now - age if 0.0 <= age <= now - T_START + 5.0 else T_START


def single_blas_thread() -> None:
    """One BLAS thread: the program is single-process and its matrices are
    small, and a second thread only adds noise from the other core."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import vphm from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "vphm" / "cli.py").is_file():
        sys.exit(f"error: no vphm sources under {src}")
    sys.path.insert(0, str(src))
    import vphm
    if Path(vphm.__file__).resolve().parent != (src / "vphm").resolve():
        sys.exit(f"error: vphm imported from {vphm.__file__}, not {src}")


def run_cli(argv, log) -> tuple:
    """(exit code, seconds) of one in-process `vphm` command."""
    from vphm import cli  # imported during set-up, before any timing
    captured = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(captured), redirect_stderr(captured):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    log.write(f"$ vphm {' '.join(argv)}\n{captured.getvalue()}")
    return code, seconds


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def run_round(workload, fleet, out: Path, seed: int, log) -> dict:
    from workloads import round_commands
    out.mkdir(parents=True)
    times = dict.fromkeys(PHASES, 0.0)
    codes, outputs = {}, {}
    first = time.perf_counter()
    for phase, op, argv, files in round_commands(workload, fleet, out, seed):
        codes[op], seconds = run_cli(argv, log)
        times[phase] += seconds
        outputs[op] = files
    times["pipeline"] = time.perf_counter() - first
    return {"times": times, "codes": codes,
            "digests": {op: digest(files) for op, files in outputs.items()},
            "model_bytes": sum(p.stat().st_size
                               for p in out.glob("model-*.vphm"))}


def predict_flights(workload, fleet, out: Path, seed: int, log) -> dict:
    """`vphm predict` of every trained model on the workload's predicted
    test flights; returns the exit code per operation."""
    from checks import predict_path, predicted_flights
    codes = {}
    for kind in workload.kinds:
        for flight in predicted_flights(workload, fleet):
            codes[f"predict-{kind}-{flight.stem}"], _ = run_cli(
                ["predict", "--model", str(out / f"model-{kind}.vphm"),
                 "--flight", str(flight),
                 "--out", str(predict_path(out, kind, flight)),
                 "--seed", str(seed)], log)
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    origin = process_start()

    single_blas_thread()
    import_program()
    from workloads import WORKLOADS, write_fleet
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    import checks
    import tracing

    work = WORK / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    fleet = write_fleet(workload, args.seed, work / "data")
    setup_s = time.perf_counter() - origin

    rounds = []
    start = time.perf_counter()
    with open(work / "cli.log", "w", encoding="utf-8") as log:
        while True:
            out = work / f"round{len(rounds)}"
            traced = args.trace == 1 and len(rounds) % 2 == 1
            if traced:
                with tracing.Tracer() as tracer:
                    result = run_round(workload, fleet, out, args.seed, log)
                result["tracer"] = tracer
            else:
                result = run_round(workload, fleet, out, args.seed, log)
            result["traced"] = traced
            rounds.append(result)
            if len(rounds) > 1:
                shutil.rmtree(out)
            if time.perf_counter() - start >= args.seconds \
                    and len(rounds) >= 1 + args.trace:
                break
        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        predict_codes = predict_flights(
            workload, fleet, work / "round0", args.seed, log)
    failures, crps = checks.check_round(workload, fleet, work / "round0")

    first = rounds[0]
    for k, r in enumerate(rounds):
        for op, code in r["codes"].items():
            if code != 0:
                failures.append((op, f"round {k}: exit code {code}, see "
                                     f"{work / 'cli.log'}"))
            elif r["digests"][op] != first["digests"][op]:
                failures.append((op, f"round {k}: outputs differ from "
                                     "round 0"))
    for op, code in predict_codes.items():
        if code != 0:
            failures.append((op, f"exit code {code}, see {work / 'cli.log'}"))
    failed_ops = {op for op, _ in failures}
    failed = sum(op in failed_ops for op in predict_codes) + sum(
        op in failed_ops for r in rounds for op in r["codes"])
    attempted = len(rounds) * len(first["codes"]) + len(predict_codes)

    plain = [r for r in rounds if not r["traced"]]
    fastest = {k: min(r["times"][k] for r in plain)
               for k in (*PHASES, "pipeline")}
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "train_s": (fastest["train"], "s"),
        "evaluate_s": (fastest["evaluate"], "s"),
        "diagnose_s": (fastest["diagnose"], "s"),
        "pipeline_s": (fastest["pipeline"], "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "model_kib": (first["model_bytes"] / 1024.0, "KiB"),
        # mean pooled CRPS of the workload's models; 0 only when every
        # accuracy check failed, which also clears "correct"
        "crps_mV": (1000.0 * statistics.fmean(crps.values())
                    if crps else 0.0, "mV"),
    }
    print(f"workload {workload.name}: seed {args.seed}, {len(rounds)} rounds"
          f" ({sum(r['traced'] for r in rounds)} traced)")
    for k, r in enumerate(rounds):
        print(f"  round {k}{' traced' if r['traced'] else ''}: " + " ".join(
            f"{phase} {seconds:.3f} s" for phase, seconds in r["times"].items()))
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:12.6f} {unit}")
    for kind, value in crps.items():
        print(f"  crps_{kind}_mV {1000.0 * value:12.6f} mV")

    if args.trace:
        best = min((r for r in rounds if r["traced"]),
                   key=lambda r: r["times"]["pipeline"])
        layers = {name: best["tracer"].totals.get(name, 0.0)
                  for name in tracing.PER_LAYER}
        layers["trace.overhead_s"] = \
            best["times"]["pipeline"] - fastest["pipeline"]
        metrics = {name: (value, tracing.unit_of(name))
                   for name, value in layers.items()}
        spans = best["tracer"].spans
        tracing.write_spans(spans, work / "spans.jsonl")
        print("  span                                   total_s     self_s"
              "   calls")
        table = sorted(tracing.self_times(spans).items(),
                       key=lambda kv: -kv[1][1])
        for name, (total, own, calls) in table:
            print(f"  {name:<36} {total:9.4f} {own:10.4f} {calls:7d}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:14.6f} {unit}")
    else:
        metrics = end_to_end

    for op, message in failures:
        print(f"FAILED {op}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
