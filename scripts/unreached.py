#!/usr/bin/env python3
"""List the statements of src/vphm that no subcommand reaches.

Runs every subcommand once in process through ``vphm.cli.main`` on tiny
synthetic flights: simulate, train for each model kind, then predict,
evaluate and diagnose with each model, and sensitivity. A line tracer
limited to the files of src/vphm records the lines that run, from the
first import of vphm on. Then each module's statements are parsed with
``ast``, and those that never ran are printed, one per line, as
``module:line: statement``. Docstrings and ``raise`` statements are left
out: a raise that no traffic reaches is input checking, not dead code.

Run from the repository root (takes about ten seconds):

    PYTHONPATH=src python3 scripts/unreached.py
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vphm"

SCENARIO = """\
duration = 90
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
seed = 3
flight_id = tiny
"""

KINDS = ("cnn", "qlr", "qrf", "qgb")


def traffic(root: Path) -> list:
    """The argument lists of every subcommand, in the order they run."""
    spec, conf = root / "tiny.kv", root / "cnn.kv"
    spec.write_text(SCENARIO, encoding="utf-8")
    conf.write_text("epochs = 2\nmc_samples = 4\n", encoding="utf-8")
    data = root / "data"
    runs = [["simulate", "--spec", str(spec), "--out", str(data),
             "--fleet", "3", "--scales", "1.0,1.0,0.8"]]
    models = [str(root / f"{kind}.vphm") for kind in KINDS]
    for kind, model in zip(KINDS, models):
        runs.append(["train", "--data", str(data), "--kind", kind,
                     "--out", model, "--config", str(conf)])
    for kind, model in zip(KINDS, models):
        runs.append(["predict", "--model", model, "--config", str(conf),
                     "--flight", str(data / "tiny-00.csv"),
                     "--out", str(root / f"pred-{kind}.csv")])
    runs.append(["evaluate", "--models", *models, "--config", str(conf),
                 "--data", str(data), "--out", str(root / "eval")])
    for kind, model in zip(KINDS, models):
        runs.append(["diagnose", "--model", model, "--config", str(conf),
                     "--data", str(data), "--out", str(root / f"diag-{kind}")])
    runs.append(["sensitivity", "--data", str(data), "--rates", "0.0,0.1",
                 "--epochs", "1", "--config", str(conf),
                 "--out", str(root / "sens")])
    return runs


def run_traced() -> dict:
    """{file name: set of line numbers} that ran under the traffic."""
    import numpy  # noqa: F401  (imported before tracing: not ours)
    import scipy.special  # noqa: F401

    ran = {}
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    with tempfile.TemporaryDirectory() as tmp:
        runs = traffic(Path(tmp))
        sys.settrace(calls)
        try:
            from vphm import cli
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    sys.exit(f"vphm {argv[0]} exited {code}")
        finally:
            sys.settrace(None)
    return ran


def statements(tree):
    """(statement, the lines that show it ran) for every statement, without
    docstrings and raise statements. A compound statement counts as run
    when any line of it ran; a simple one when any of its own lines did."""
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body[0].docstring = True
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise) \
                or getattr(node, "docstring", False):
            continue
        yield node, range(node.lineno, node.end_lineno + 1)


def main() -> int:
    ran = run_traced()
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        hit = ran.get(str(path), set())
        missed = sorted({node.lineno for node, span in
                         statements(ast.parse(text)) if hit.isdisjoint(span)})
        total += len(missed)
        for lineno in missed:
            print(f"{path.name}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{total} statements not reached", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
