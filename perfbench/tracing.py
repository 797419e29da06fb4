"""Per-layer spans and counters recorded from outside the program.

While a ``Tracer`` is active it replaces public functions and methods of
the vphm modules with timing wrappers; the program looks them up through
their module or class at call time, so the wrappers see every call. Each
call becomes a span (id, name, start, end, parent id) kept in memory;
``write_spans`` stores them when the run ends. Per-layer seconds count a
call only when no call of the same layer encloses it, so nested calls
(``diagnose`` -> ``diagnose_bounds``) are not counted twice. Leaving the
context restores the original attributes.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

from vphm import artifact, autodiff, baselines, cnn, diagnostics, ingest
from vphm import metrics, nn, physics


def _epochs(args, kwargs, result):
    return len(args[1]) * len(result[1])      # windows x per-epoch losses


def _passes(args, kwargs, result):
    config = kwargs.get("config") or (args[3] if len(args) > 3 else None)
    return result.scored_indices.size * (config or args[0].config).mc_samples


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (owner, attribute, layer seconds, call counter, (work counter, fn))
TARGETS = (
    (physics, "simulate", "physics.simulate_s", None,
     ("physics.samples", lambda a, k, r: r.voltage.size)),
    (ingest, "parse_flight_csv", "ingest.parse_s", None,
     ("ingest.rows", lambda a, k, r: len(r))),
    (ingest, "clean", "ingest.parse_s", None, None),
    (ingest, "make_windows", "ingest.windows_s", None,
     ("ingest.windows", lambda a, k, r: len(r))),
    (cnn, "train", "cnn.train_s", None, ("cnn.window_epochs", _epochs)),
    (cnn, "forecast_flight", "cnn.forecast_s", None,
     ("cnn.window_passes", _passes)),
    (nn, "conv1d_forward", "nn.conv1d_s", "nn.conv1d_calls", None),
    (autodiff.Tensor, "backward", "autodiff.backward_s", None, None),
    (nn, "adam_step", "nn.adam_s", None, None),
    (baselines, "fit_tree", "baselines.fit_tree_s",
     "baselines.fit_tree_calls", None),
    (baselines, "qlr_fit", "baselines.qlr_fit_s", None, None),
    (baselines, "qrf_fit", "baselines.qrf_fit_s", None, None),
    (baselines, "qgb_fit_set", "baselines.qgb_fit_s", None, None),
    (baselines.QlrModel, "predict_quantiles", "baselines.predict_s", None,
     ("baselines.predict_rows", lambda a, k, r: r.shape[0])),
    (baselines.QrfModel, "predict_quantiles", "baselines.predict_s", None,
     ("baselines.predict_rows", lambda a, k, r: r.shape[0])),
    (baselines.QgbSet, "predict_quantiles", "baselines.predict_s", None,
     ("baselines.predict_rows", lambda a, k, r: r.shape[0])),
    (baselines.QrfModel, "weights_for", "baselines.weights_s", None, None),
    (metrics, "compute_report", "metrics.report_s", None, None),
    (metrics, "crps_summary", "metrics.crps_s", None,
     ("metrics.scored_points", lambda a, k, r: len(a[0]))),
    (metrics, "calibration_curve", "metrics.calibration_s", None,
     ("metrics.calibrated_points", lambda a, k, r: len(a[0]))),
    (metrics, "sharpness", "metrics.sharpness_s", None, None),
    (artifact, "save_artifact", "artifact.save_s", "artifact.saves",
     ("artifact.bytes_written", _file_bytes)),
    (artifact, "load_artifact", "artifact.load_s", "artifact.loads",
     ("artifact.bytes_read", _file_bytes)),
    (diagnostics, "diagnose", "diagnostics.diagnose_s", None, None),
    (diagnostics, "diagnose_bounds", "diagnostics.diagnose_s", None, None),
)

# constructors counted without spans: one call per forecast timestep
COUNTED = ((metrics.GaussianDist, "__post_init__", "metrics.dist_objects"),
           (metrics.PiecewiseCdf, "__init__", "metrics.dist_objects"))

PER_LAYER = list(dict.fromkeys(
    [key for _, _, seconds, calls, work in TARGETS
     for key in (seconds, calls, work and work[0]) if key]
    + [key for _, _, key in COUNTED] + ["trace.overhead_s"]))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if ".bytes_" in metric else "count"


class Tracer:
    """Context manager that wraps the TARGETS and sums their metrics."""

    def __init__(self):
        self.spans = []               # (id, name, start, end, parent id)
        self.totals = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._saved = []

    def __enter__(self):
        for owner, attr, seconds, calls, work in TARGETS:
            self._patch(owner, attr, self._timed(
                getattr(owner, attr),
                f"{owner.__name__.removeprefix('vphm.')}.{attr}", seconds,
                calls, work))
        for owner, attr, key in COUNTED:
            self._patch(owner, attr, self._counted(getattr(owner, attr), key))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, name, seconds, calls, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            tracer._depth[seconds] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[seconds] -= 1
                tracer.spans.append((span_id, name, start, end, parent))
                if tracer._depth[seconds] == 0:
                    tracer.totals[seconds] += end - start
            if calls:
                tracer.totals[calls] += 1
            if work:
                tracer.totals[work[0]] += work[1](args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.totals[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def self_times(spans) -> dict:
    """Per span name: (total seconds, self seconds, calls). Self time is a
    span's duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _, _, start, end, parent in spans:
        child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for span_id, name, start, end, _ in spans:
        entry = out[name]
        entry[0] += end - start
        entry[1] += end - start - child[span_id]
        entry[2] += 1
    return {name: tuple(v) for name, v in out.items()}


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
