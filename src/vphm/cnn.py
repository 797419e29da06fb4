"""Uncertainty-aware convolutional error-correction model.

Predicts the residual between measured and physics-simulated voltage from a
sliding window of (current, physics voltage), with a Gaussian head that
carries the aleatoric variance. Keeping dropout active at inference time
and averaging many stochastic passes yields the epistemic spread; the two
are combined into a total uncertainty per timestep.

Input windows are normalized per feature with training-set statistics that
are stored in the model artifact; raw ampere/volt scales make the
variance-weighted loss unstable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import artifact, ingest, metrics, physics
from . import nn
from .autodiff import Tensor
from .nn import GaussianPrediction


class InvalidConfig(ValueError):
    """Configuration violates an architecture rule."""


class NonFiniteLoss(RuntimeError):
    """Training loss became NaN or infinite."""


@dataclass(frozen=True)
class CnnConfig:
    """Architecture and optimization hyperparameters; defaults are the
    tuned values used throughout."""

    window_size: int = 10
    conv_layers: int = 3
    filters: int = 16
    kernel: int = 3
    padding: str = "same"
    fc_nodes: tuple = (64, 32)
    dropout_rate: float = 0.1
    epochs: int = 130
    learning_rate: float = 0.001
    mc_samples: int = 100
    batch_size: int = 32

    def validate(self) -> "CnnConfig":
        if self.padding != "same":
            raise InvalidConfig(f"unsupported padding {self.padding!r}")
        if self.kernel % 2 == 0:
            raise InvalidConfig("`same` padding requires an odd kernel")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout rate must be in [0, 1)")
        if self.window_size < 1 or self.conv_layers < 1 or self.filters < 1:
            raise InvalidConfig("window_size, conv_layers, filters must be >= 1")
        if len(self.fc_nodes) < 1:
            raise InvalidConfig("need at least one fully connected layer")
        if self.epochs < 1 or self.batch_size < 1 or self.mc_samples < 1:
            raise InvalidConfig("epochs, batch_size, mc_samples must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning rate must be positive")
        return self


@dataclass
class UncertaintyDecomposition:
    """Per-window mean prediction with aleatoric/epistemic/total spreads."""

    y_hat: float
    sigma_a: float
    sigma_e: float
    sigma_tu: float


@dataclass
class HybridForecast:
    """Per-timestep hybrid prediction for one flight. The first
    window_size-1 timesteps are physics-only (``uncorrected`` mask True,
    sigma fields NaN) and are excluded from all scoring."""

    flight_id: str
    times: np.ndarray
    physics_voltage: np.ndarray
    corrected_voltage: np.ndarray
    y_hat: np.ndarray
    sigma_a: np.ndarray
    sigma_e: np.ndarray
    sigma_tu: np.ndarray
    uncorrected: np.ndarray

    @property
    def scored_indices(self) -> np.ndarray:
        return np.nonzero(~self.uncorrected)[0]


class CorrectionModel:
    """Layer stack plus the normalization constants learned at fit time."""

    def __init__(self, config: CnnConfig, layers, norm_mean=None, norm_std=None):
        self.config = config
        self.layers = layers
        self.norm_mean = np.zeros(2) if norm_mean is None else np.asarray(norm_mean)
        self.norm_std = np.ones(2) if norm_std is None else np.asarray(norm_std)
        self.fingerprint = ""

    @property
    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params)
        return out

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params)

    def normalize(self, inputs: np.ndarray) -> np.ndarray:
        """(B, window, 2) raw windows -> (B, 2, window) normalized."""
        x = (inputs - self.norm_mean) / self.norm_std
        return np.ascontiguousarray(x.transpose(0, 2, 1))

    def forward(self, x_norm: np.ndarray, rng=None, training=False
                ) -> GaussianPrediction:
        t = Tensor(x_norm)
        for layer in self.layers:
            t = layer.forward(t, rng=rng, training=training)
        return t


def build(config: CnnConfig, seed: int) -> CorrectionModel:
    """Assemble the layer stack with Xavier-uniform initial weights."""
    config.validate()
    rng = np.random.default_rng(seed)
    layers = []
    in_ch = 2
    for _ in range(config.conv_layers):
        layers.append(nn.Conv1d(in_ch, config.filters, config.kernel, rng,
                                padding=config.padding))
        layers.append(nn.ReLU())
        layers.append(nn.Dropout(config.dropout_rate))
        in_ch = config.filters
    layers.append(nn.AdaptiveAvgPool())
    width = config.filters
    for nodes in config.fc_nodes:
        layers.append(nn.Dense(width, nodes, rng))
        layers.append(nn.ReLU())
        layers.append(nn.Dropout(config.dropout_rate))
        width = nodes
    layers.append(nn.Dense(width, 2, rng))
    layers.append(nn.GaussianHead())
    return CorrectionModel(config, layers)


def train(model: CorrectionModel, train_windows, config: CnnConfig = None,
          seed: int = 0):
    """Adam on the heteroscedastic NLL with dropout active.

    Returns (model, per-epoch mean loss). Shuffling and dropout draw from
    seed-derived substreams, so identical inputs give identical weights.
    """
    cfg = (config or model.config).validate()
    if not train_windows:
        raise ValueError("training set must be non-empty")

    x_raw = np.stack([w.inputs for w in train_windows])            # (N, w, 2)
    targets = np.array([w.target for w in train_windows])
    model.norm_mean = x_raw.mean(axis=(0, 1))
    std = x_raw.std(axis=(0, 1))
    model.norm_std = np.where(std < 1e-12, 1.0, std)
    x = model.normalize(x_raw)                                      # (N, 2, w)

    rng_shuffle = np.random.default_rng([seed, 17])
    rng_dropout = np.random.default_rng([seed, 23])
    params = model.params
    adam = nn.AdamState.for_params(params, learning_rate=cfg.learning_rate)

    n = x.shape[0]
    losses = []
    for epoch in range(cfg.epochs):
        perm = rng_shuffle.permutation(n)
        total = 0.0
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            pred = model.forward(x[idx], rng=rng_dropout, training=True)
            loss = nn.nll_loss(pred, targets[idx])
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch}, batch {b}")
            for p in params:
                p.zero_grad()
            loss.backward()
            nn.adam_step(params, [p.grad for p in params], adam)
            total += value * idx.size
        losses.append(total / n)
    return model, losses


def _mc_forward(model: CorrectionModel, x_norm: np.ndarray, n: int, seed):
    """n stochastic passes over a normalized batch; returns the per-window
    Monte Carlo decomposition arrays (mean, aleatoric var, epistemic var).

    One RNG stream drives all passes, advanced deterministically.
    """
    if n < 1:
        raise ValueError("need at least one Monte Carlo pass")
    rng = np.random.default_rng(seed)
    nb = x_norm.shape[0]
    mus = np.empty((n, nb))
    s2s = np.empty((n, nb))
    for i in range(n):
        pred = model.forward(x_norm, rng=rng, training=True)
        mus[i] = pred.mu.data
        s2s[i] = pred.sigma2_a.data
    y_hat = mus.mean(axis=0)
    # identical passes (rate 0 or n == 1) must give exactly zero epistemic
    # spread; mus.var() would leave summation jitter
    spread = np.ptp(mus, axis=0)
    sigma_e2 = np.where(spread == 0.0, 0.0, mus.var(axis=0))
    sigma_a2 = s2s.mean(axis=0)
    return y_hat, sigma_a2, sigma_e2


def mc_infer(model: CorrectionModel, window_inputs, n: int, seed
             ) -> UncertaintyDecomposition:
    """Monte Carlo dropout inference for a single window.

    Runs n stochastic passes; the mean of the mean-outputs is the point
    prediction, their population variance the epistemic variance, and the
    average predicted variance the aleatoric variance. Total uncertainty is
    the root sum of squares.
    """
    window_inputs = np.asarray(window_inputs, dtype=np.float64)
    x = model.normalize(window_inputs[None, :, :])
    y_hat, sigma_a2, sigma_e2 = _mc_forward(model, x, n, seed)
    return UncertaintyDecomposition(
        y_hat=float(y_hat[0]),
        sigma_a=float(np.sqrt(sigma_a2[0])),
        sigma_e=float(np.sqrt(sigma_e2[0])),
        sigma_tu=float(np.sqrt(sigma_a2[0] + sigma_e2[0])))


def forecast_flight(model: CorrectionModel, log: ingest.FlightLog,
                    params: physics.BatteryParams, config: CnnConfig = None,
                    seed: int = 0, initial_soc: float = 1.0) -> HybridForecast:
    """Physics simulation plus windowed Monte Carlo error correction."""
    cfg = (config or model.config).validate()
    sim = physics.simulate(log.current, log.sample_period, params, initial_soc)
    windows = ingest.make_windows(log, sim.voltage, cfg.window_size, stride=1)
    x = model.normalize(np.stack([w.inputs for w in windows]))
    y_hat, sigma_a2, sigma_e2 = _mc_forward(model, x, cfg.mc_samples, seed)

    n = len(log)
    warm = cfg.window_size - 1
    corrected = sim.voltage.copy()
    corrected[warm:] += y_hat

    def full(values):
        return np.concatenate((np.full(warm, np.nan), values))

    uncorrected = np.zeros(n, dtype=bool)
    uncorrected[:warm] = True
    return HybridForecast(
        flight_id=log.flight_id,
        times=log.times.copy(),
        physics_voltage=sim.voltage,
        corrected_voltage=corrected,
        y_hat=full(y_hat),
        sigma_a=full(np.sqrt(sigma_a2)),
        sigma_e=full(np.sqrt(sigma_e2)),
        sigma_tu=full(np.sqrt(sigma_a2 + sigma_e2)),
        uncorrected=uncorrected)


@dataclass
class SensitivityRow:
    dropout_rate: float
    mean_sigma_e: float
    calibration_area: float
    sharpness: float
    crps_mean: float


def dropout_sensitivity(config: CnnConfig, rates, train_windows, eval_windows,
                        seed: int = 0, model_builder=build) -> list:
    """Train one model per dropout rate on identical data and seeds and
    score each on the held-out windows (epistemic spread, calibration,
    sharpness, CRPS)."""
    rates = list(rates)
    if not rates:
        raise ValueError("need at least one dropout rate")
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")

    eval_x_raw = np.stack([w.inputs for w in eval_windows])
    eval_y = np.array([w.target for w in eval_windows])
    rows = []
    for rate in rates:
        cfg = replace(config, dropout_rate=rate).validate()
        model = model_builder(cfg, seed)
        train(model, train_windows, cfg, seed=seed)
        y_hat, sigma_a2, sigma_e2 = _mc_forward(
            model, model.normalize(eval_x_raw), cfg.mc_samples, seed)
        dists = metrics.GaussianBatch(y_hat, np.sqrt(sigma_a2 + sigma_e2))
        crps_mean, _ = metrics.crps_summary(dists, eval_y)
        _, _, area = metrics.calibration_curve(dists, eval_y)
        rows.append(SensitivityRow(
            dropout_rate=rate,
            mean_sigma_e=float(np.mean(np.sqrt(sigma_e2))),
            calibration_area=area,
            sharpness=metrics.sharpness(dists),
            crps_mean=crps_mean))
    return rows


# ---------------------------------------------------------------------------
# artifact round-trip
# ---------------------------------------------------------------------------

def fingerprint_ids(flight_ids) -> str:
    """Stable hash of the training fleet's flight ids."""
    joined = ",".join(sorted(flight_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def save_model(model: CorrectionModel, path, meta: dict = None) -> None:
    """Write the model; ``meta`` adds (or overrides) header meta keys."""
    cfg = asdict(model.config)
    cfg["fc_nodes"] = list(model.config.fc_nodes)
    layer_manifest = [{"kind": s.kind, **s.params}
                      for s in (layer.spec() for layer in model.layers)]
    arrays = {"norm/mean": model.norm_mean, "norm/std": model.norm_std}
    for i, layer in enumerate(model.layers):
        for j, p in enumerate(layer.params):
            arrays[f"layer{i:02d}/p{j}"] = p.data
    artifact.save_artifact(path, "cnn",
                           {"config": cfg, "fingerprint": model.fingerprint,
                            "layers": layer_manifest, **(meta or {})},
                           arrays)


def load_model(path) -> CorrectionModel:
    return model_from_artifact(*artifact.load_artifact(path), path)


def model_from_artifact(kind, meta, arrays, path) -> CorrectionModel:
    """The model held by an artifact already read from ``path``."""
    if kind != "cnn":
        raise artifact.ArtifactError(f"{path}: expected a cnn artifact, got {kind!r}")
    cfg_dict = dict(meta["config"])
    cfg_dict["fc_nodes"] = tuple(cfg_dict["fc_nodes"])
    config = CnnConfig(**cfg_dict)
    model = build(config, seed=0)
    saved = meta.get("layers")
    if saved is not None:
        rebuilt = [{"kind": s.kind, **s.params}
                   for s in (layer.spec() for layer in model.layers)]
        if rebuilt != saved:
            raise artifact.ArtifactError(
                f"{path}: layer manifest does not match its config block")
    model.norm_mean = arrays["norm/mean"]
    model.norm_std = arrays["norm/std"]
    model.fingerprint = meta.get("fingerprint", "")
    for i, layer in enumerate(model.layers):
        for j, p in enumerate(layer.params):
            p.data = arrays[f"layer{i:02d}/p{j}"].copy()
    return model
