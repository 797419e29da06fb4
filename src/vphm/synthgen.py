"""Seeded synthetic flight generator.

Stands in for field data: simulates a "truth" battery (optionally degraded
or biased relative to the nominal physics model), then adds Gaussian sensor
noise to produce the measured channels. The noise-free truth voltage is
returned alongside the log so recovery tests have an oracle.

Two independent RNG substreams are derived from the scenario seed: one for
the load profile (shared across a fleet so every flight sees the same
mission) and one for sensor noise (offset per flight via ``noise_seed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kvconfig, physics
from .ingest import FlightLog


@dataclass
class ScenarioSpec:
    duration: float                    # seconds
    params: physics.BatteryParams     # truth battery
    sample_period: float = 1.0
    load_kind: str = "constant"       # constant | steps | random_walk
    load_args: dict = field(default_factory=lambda: {"amps": 30.0})
    sigma_v: float = 0.0              # voltage sensor noise, V
    sigma_i: float = 0.0              # current sensor noise, A
    bias_kind: str = "none"           # none | constant | soc_ramp
    bias_volts: float = 0.0
    initial_soc: float = 1.0
    seed: int = 0
    noise_seed: int = 0               # per-flight offset within a fleet
    flight_id: str = "synth"

    def __post_init__(self):
        if self.duration <= 0 or self.sample_period <= 0:
            raise ValueError("duration and sample_period must be positive")
        if self.sigma_v < 0 or self.sigma_i < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.load_kind not in ("constant", "steps", "random_walk"):
            raise ValueError(f"unknown load kind {self.load_kind!r}")
        if self.bias_kind not in ("none", "constant", "soc_ramp"):
            raise ValueError(f"unknown bias kind {self.bias_kind!r}")


def _load_profile(spec: ScenarioSpec, n: int) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, 0])
    if spec.load_kind == "constant":
        return np.full(n, float(spec.load_args["amps"]))
    if spec.load_kind == "steps":
        times = np.asarray(spec.load_args["times"], dtype=np.float64)
        amps = np.asarray(spec.load_args["amps"], dtype=np.float64)
        if times.size != amps.size or times.size == 0:
            raise ValueError("steps load needs matching times/amps lists")
        t = np.arange(n) * spec.sample_period
        idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 1)
        return amps[idx]
    # smoothed bounded random walk around a mean load
    mean = float(spec.load_args.get("mean", 30.0))
    sigma = float(spec.load_args.get("sigma", 1.0))
    lo = float(spec.load_args.get("lo", max(0.0, mean - 20.0)))
    hi = float(spec.load_args.get("hi", mean + 20.0))
    smoothing = max(int(spec.load_args.get("smoothing", 5)), 1)
    walk = np.empty(n)
    level = mean
    for k in range(n):
        level = float(np.clip(level + rng.normal(0.0, sigma), lo, hi))
        walk[k] = level
    if smoothing > 1:
        alpha = 1.0 / smoothing
        out = np.empty(n)
        acc = walk[0]
        for k in range(n):
            acc += alpha * (walk[k] - acc)
            out[k] = acc
        return out
    return walk


def generate(spec: ScenarioSpec):
    """Produce one (noisy FlightLog, noise-free truth voltage) pair."""
    n = int(round(spec.duration / spec.sample_period))
    if n < 1:
        raise ValueError("duration shorter than one sample period")
    load = _load_profile(spec, n)
    sim = physics.simulate(load, spec.sample_period, spec.params,
                           spec.initial_soc)
    truth_v = sim.voltage.copy()
    if spec.bias_kind == "constant":
        truth_v += spec.bias_volts
    elif spec.bias_kind == "soc_ramp":
        truth_v += spec.bias_volts * (1.0 - sim.soc)

    rng = np.random.default_rng([spec.seed, 1, spec.noise_seed])
    measured_v = truth_v + rng.normal(0.0, spec.sigma_v, n) if spec.sigma_v > 0 \
        else truth_v.copy()
    measured_i = load + rng.normal(0.0, spec.sigma_i, n) if spec.sigma_i > 0 \
        else load.copy()

    log = FlightLog(flight_id=spec.flight_id,
                    times=np.arange(n) * spec.sample_period,
                    current=measured_i, voltage=measured_v,
                    sample_period=spec.sample_period)
    return log, truth_v


def generate_fleet(n_flights: int, base: ScenarioSpec,
                   degradation: list) -> list:
    """One flight per degradation entry (q_max scale; 1.0 = healthy).

    Every flight shares the base load profile; noise realizations differ.
    """
    if len(degradation) != n_flights:
        raise ValueError("degradation list must have one entry per flight")
    fleet = []
    for k, scale in enumerate(degradation):
        params_k = replace(base.params, q_max=base.params.q_max * float(scale))
        spec_k = replace(base, params=params_k, noise_seed=base.noise_seed + k,
                         flight_id=f"{base.flight_id}-{k:02d}")
        log, _ = generate(spec_k)
        fleet.append(log)
    return fleet


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def parse_scenario(path, params: Optional[physics.BatteryParams] = None
                   ) -> ScenarioSpec:
    """Build a ScenarioSpec from a `name = value` file.

    The truth battery comes from the ``chemistry`` key (a preset tag) unless
    an explicit ``params`` object is supplied. Load arguments use ``load_``
    prefixed keys; step lists are comma-separated. A missing ``duration``,
    a value the spec rejects, or a key it does not use (a typo, or a load
    argument of another load kind) raises ``kvconfig.InvalidFile``.
    """
    raw = kvconfig.load(path)
    try:
        chemistry = str(raw.pop("chemistry", "lipo-30ah"))
        if params is None:
            params = physics.default_params(chemistry)
        if "q_max_scale" in raw:
            params = replace(params, q_max=params.q_max * float(raw.pop("q_max_scale")))

        load_kind = str(raw.pop("load_kind", "constant"))
        load_args: dict = {}
        if load_kind == "constant":
            load_args["amps"] = float(raw.pop("load_amps", 30.0))
        elif load_kind == "steps":
            times = raw.pop("load_step_times", ())
            amps = raw.pop("load_step_amps", ())
            load_args["times"] = times if isinstance(times, tuple) else (float(times),)
            load_args["amps"] = amps if isinstance(amps, tuple) else (float(amps),)
        elif load_kind == "random_walk":
            for key in ("mean", "sigma", "lo", "hi", "smoothing"):
                if f"load_{key}" in raw:
                    load_args[key] = float(raw.pop(f"load_{key}"))

        spec = ScenarioSpec(
            duration=float(raw.pop("duration")),
            sample_period=float(raw.pop("sample_period", 1.0)),
            params=params,
            load_kind=load_kind,
            load_args=load_args,
            sigma_v=float(raw.pop("sigma_v", 0.0)),
            sigma_i=float(raw.pop("sigma_i", 0.0)),
            bias_kind=str(raw.pop("bias_kind", "none")),
            bias_volts=float(raw.pop("bias_volts", 0.0)),
            initial_soc=float(raw.pop("initial_soc", 1.0)),
            seed=int(raw.pop("seed", 0)),
            flight_id=str(raw.pop("flight_id", "synth")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise kvconfig.InvalidFile(f"{path}: bad or missing value: {exc}") from exc
    if raw:
        raise kvconfig.InvalidFile(f"{path}: unused scenario keys {sorted(raw)}")
    return spec
