"""Network layers for the residual-correction model.

The layer set is deliberately small: 1-D convolution with `same` padding,
ReLU, inverted dropout, adaptive average pooling, dense layers and a
two-neuron Gaussian output head (mean + exp-activated variance). Every
layer takes a batch on its first axis. All layers build autodiff graphs
on :class:`vphm.autodiff.Tensor`, so the heteroscedastic
negative-log-likelihood loss is differentiable end to end.
A layer records a graph node only when one of its inputs or parameters
requires a gradient; with every parameter frozen, a forward pass computes
values and keeps nothing alive for a backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import ShapeMismatch, Tensor

# Variance floor applied inside the NLL loss; keeps early-training losses
# finite when the variance neuron underflows.
VAR_FLOOR = 1e-8


class EmptyInput(ValueError):
    """Pooling over an empty feature map."""


@dataclass
class GaussianPrediction:
    """Predicted means and aleatoric variances of a batch, as (B,)
    tensors."""

    mu: object
    sigma2_a: object


@dataclass
class LayerSpec:
    """Declarative layer description used for building and serialization."""

    kind: str
    params: dict = field(default_factory=dict)


def xavier_uniform(shape, fan_in, fan_out, rng) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# functional ops
# ---------------------------------------------------------------------------

def conv1d_forward(x: Tensor, weight: Tensor, bias: Tensor,
                   padding: str = "same") -> Tensor:
    """Cross-correlate ``x`` with ``weight`` and add ``bias``.

    ``x`` is (batch, channels, length); ``weight`` is
    (filters, channels, kernel). `same` zero padding keeps the output length
    equal to the input length.

    The convolution is one matrix product (im2col): the padded input is cut
    into (batch * length, channels * kernel) columns, multiplied by the
    weight matrix (filters, channels * kernel). The backward pass reuses the
    columns for the weight gradient and scatters the column gradient back
    onto the input with one slice-add per kernel tap.
    """
    if padding != "same":
        raise ValueError(f"unsupported padding mode {padding!r}")
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeMismatch("conv1d expects (B,C,L) input and (F,C,K) weights")
    nb, nc, length = x.data.shape
    nf, wc, kernel = weight.data.shape
    if wc != nc:
        raise ShapeMismatch(f"conv1d: {nc} input channels vs {wc} weight channels")
    if kernel % 2 == 0:
        raise ValueError("`same` padding requires an odd kernel size")
    if bias.data.shape != (nf,):
        raise ShapeMismatch(f"conv1d: bias shape {bias.data.shape} != ({nf},)")

    pad = kernel // 2
    padded = (nb, length + 2 * pad, nc)
    xp = np.zeros(padded)
    xp[:, pad:pad + length, :] = x.data.transpose(0, 2, 1)
    # im2col: row (b, l) holds xp[b, l + k, c] in the (c, k) order of weight
    cols = sliding_window_view(xp, kernel, axis=1).reshape(nb * length,
                                                          nc * kernel)
    w2 = weight.data.reshape(nf, nc * kernel)
    val = cols @ w2.T
    val += bias.data
    val = val.reshape(nb, length, nf).transpose(0, 2, 1)

    out = Tensor(val)
    out.requires_grad = x.requires_grad or weight.requires_grad or bias.requires_grad
    if out.requires_grad:
        out._prev = (x, weight, bias)

        def bwd(g):
            go2 = g.transpose(0, 2, 1).reshape(nb * length, nf)
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2)))
            if weight.requires_grad:
                weight._accumulate((go2.T @ cols).reshape(nf, nc, kernel))
            if x.requires_grad:
                gcols = (go2 @ w2).reshape(nb, length, nc, kernel)
                gxp = np.zeros(padded)
                for k in range(kernel):
                    gxp[:, k:k + length, :] += gcols[:, :, :, k]
                gx = gxp[:, pad:pad + length, :].transpose(0, 2, 1)
                x._accumulate(gx)

        out._backward = bwd
    return out


def adaptive_avg_pool(x: Tensor) -> Tensor:
    """Mean over the length axis: (B,F,L) -> (B,F)."""
    if x.data.ndim != 3:
        raise ShapeMismatch("adaptive_avg_pool expects (B,F,L)")
    if x.data.shape[-1] < 1:
        raise EmptyInput("cannot pool a zero-length feature map")
    length = x.data.shape[-1]
    out = Tensor(x.data.mean(axis=-1))
    out.requires_grad = x.requires_grad
    if out.requires_grad:
        out._prev = (x,)
        out._backward = lambda g: x._accumulate(
            np.repeat(g[..., None], length, axis=-1) / length)
    return out


def dropout_forward(x: Tensor, rate: float, rng, training: bool = True):
    """Inverted dropout: zero each element with probability ``rate`` and
    scale survivors by 1/(1-rate). Returns (output, mask); the mask already
    carries the survivor scaling, so expectation is preserved."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        mask = np.ones_like(x.data)
        return x, mask
    keep = rng.random(x.data.shape) >= rate
    mask = keep / (1.0 - rate)
    return x * Tensor(mask), mask


def gaussian_head_forward(features: Tensor) -> GaussianPrediction:
    """Split the raw (B, 2) output into (mean, exp-activated variance)."""
    if features.data.ndim != 2 or features.data.shape[1] != 2:
        raise ShapeMismatch("gaussian head expects (B, 2) raw outputs")
    mu = features.column(0)
    sigma2 = features.column(1).exp()
    return GaussianPrediction(mu=mu, sigma2_a=sigma2)


def nll_loss(pred: GaussianPrediction, targets) -> Tensor:
    """Heteroscedastic Gaussian negative log-likelihood.

    loss = mean_i [ (y_i - mu_i)^2 / (2 s2_i) + 0.5 log s2_i ]
    with s2 floored at VAR_FLOOR for numerical safety.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if t.size == 0:
        raise ValueError("nll_loss needs a non-empty batch")
    if pred.mu.data.shape != t.shape:
        raise ShapeMismatch(f"nll_loss: {pred.mu.data.shape} vs targets {t.shape}")
    diff = pred.mu - Tensor(t)
    s2 = pred.sigma2_a.clamp_min(VAR_FLOOR)
    return ((diff * diff) / (s2 * 2.0) + s2.log() * 0.5).mean()


# ---------------------------------------------------------------------------
# layer classes
# ---------------------------------------------------------------------------

class Conv1d:
    def __init__(self, in_channels, filters, kernel, rng, padding="same"):
        if padding == "same" and kernel % 2 == 0:
            raise ValueError("`same` padding requires an odd kernel size")
        self.padding = padding
        self.weight = Tensor(
            xavier_uniform((filters, in_channels, kernel),
                           fan_in=in_channels * kernel,
                           fan_out=filters * kernel, rng=rng),
            requires_grad=True)
        self.bias = Tensor(np.zeros(filters), requires_grad=True)

    def forward(self, x, rng=None, training=False):
        return conv1d_forward(x, self.weight, self.bias, self.padding)

    @property
    def params(self):
        return [self.weight, self.bias]

    def spec(self):
        f, c, k = self.weight.data.shape
        return LayerSpec("conv1d", {"in_channels": c, "filters": f,
                                    "kernel": k, "padding": self.padding})


class Dense:
    def __init__(self, n_in, n_out, rng):
        self.weight = Tensor(
            xavier_uniform((n_in, n_out), fan_in=n_in, fan_out=n_out, rng=rng),
            requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def forward(self, x, rng=None, training=False):
        return x @ self.weight + self.bias

    @property
    def params(self):
        return [self.weight, self.bias]

    def spec(self):
        n_in, n_out = self.weight.data.shape
        return LayerSpec("dense", {"n_in": n_in, "n_out": n_out})


class ReLU:
    params: list = []

    def forward(self, x, rng=None, training=False):
        return x.relu()

    def spec(self):
        return LayerSpec("relu")


class Dropout:
    params: list = []

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, rng=None, training=False):
        out, _ = dropout_forward(x, self.rate, rng, training)
        return out

    def spec(self):
        return LayerSpec("dropout", {"rate": self.rate})


class AdaptiveAvgPool:
    params: list = []

    def forward(self, x, rng=None, training=False):
        return adaptive_avg_pool(x)

    def spec(self):
        return LayerSpec("adaptive_avg_pool")


class GaussianHead:
    params: list = []

    def forward(self, x, rng=None, training=False):
        return gaussian_head_forward(x)

    def spec(self):
        return LayerSpec("gaussian_head")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step_count: int = 0

    @classmethod
    def for_params(cls, params, learning_rate=0.001, **kw):
        state = cls(learning_rate=learning_rate, **kw)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update. Parameters are updated in place;
    the (params, state) pair is returned for chaining."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("adam_step: parameter/gradient count mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeMismatch(
                f"adam_step: grad shape {g.shape} != param shape {p.data.shape}")
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1 ** t)
        v_hat = state.v[i] / (1.0 - b2 ** t)
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params, state
