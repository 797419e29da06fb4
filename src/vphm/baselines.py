"""Benchmark probabilistic regressors: quantile linear regression, quantile
regression forest and quantile gradient boosting.

All three consume the flattened window features (window_size x 2 values)
and predict conditional quantiles of the voltage residual. QRF and QGB
share one regression-tree implementation: exhaustive variance-reduction
split search with deterministic tie-breaking (lowest feature index, then
lowest threshold). Each model predicts the quantiles of many rows at once
with ``predict_quantiles``; a flight's quantile matrix becomes one
``metrics.QuantileBatch`` of piecewise-linear CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifact

DEFAULT_LEVELS = tuple([0.025] + [round(0.05 * k, 3) for k in range(1, 20)]
                       + [0.975])


class Degenerate(ValueError):
    """Features carry no usable signal (constant design matrix)."""


def pinball_loss(y, q, tau: float):
    """Asymmetric absolute loss whose minimizer is the tau-quantile."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    y = np.asarray(y, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    diff = y - q
    return np.where(diff >= 0.0, tau * diff, (tau - 1.0) * diff)


def weighted_quantile(values, weights, tau: float) -> float:
    """inf{v : F(v) >= tau} of a weighted empirical distribution."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    vs = values[order]
    cw = np.cumsum(weights[order])
    cw /= cw[-1]
    idx = min(int(np.searchsorted(cw, tau, side="left")), vs.size - 1)
    return float(vs[idx])


# ---------------------------------------------------------------------------
# quantile linear regression
# ---------------------------------------------------------------------------

@dataclass
class QlrModel:
    levels: tuple
    coef: np.ndarray        # (levels, features) on standardized inputs
    intercept: np.ndarray   # (levels,)
    x_mean: np.ndarray
    x_std: np.ndarray

    def predict_quantiles(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        z = (X - self.x_mean) / self.x_std
        return z @ self.coef.T + self.intercept


def qlr_fit(X, y, levels=DEFAULT_LEVELS, epochs: int = 400,
            initial_step: float = 0.5) -> QlrModel:
    """Per-level linear pinball-loss minimization by subgradient descent.

    Steps that would increase the training loss are rejected and the step
    size halved, so the recorded loss sequence is non-increasing.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, n_feat = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    x_std = X.std(axis=0)
    if np.all(x_std < 1e-12):
        raise Degenerate("constant design matrix")
    x_mean = X.mean(axis=0)
    x_std = np.where(x_std < 1e-12, 1.0, x_std)
    z = (X - x_mean) / x_std

    coef = np.zeros((len(levels), n_feat))
    intercept = np.zeros(len(levels))
    for li, tau in enumerate(levels):
        w = np.zeros(n_feat)
        b = float(weighted_quantile(y, np.ones(n), tau))
        step = initial_step
        loss = float(np.mean(pinball_loss(y, z @ w + b, tau)))
        for _ in range(epochs):
            q = z @ w + b
            # dL/dq = -tau where y >= q, else 1 - tau
            dq = np.where(y >= q, -tau, 1.0 - tau)
            gw = dq @ z / n
            gb = float(dq.mean())
            w_new = w - step * gw
            b_new = b - step * gb
            new_loss = float(np.mean(pinball_loss(y, z @ w_new + b_new, tau)))
            if new_loss <= loss:
                w, b, loss = w_new, b_new, new_loss
                step *= 1.1
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        coef[li] = w
        intercept[li] = b
    return QlrModel(levels=tuple(levels), coef=coef, intercept=intercept,
                    x_mean=x_mean, x_std=x_std)


# ---------------------------------------------------------------------------
# regression trees
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    feature: np.ndarray     # split feature per node; -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray       # node mean of the fit targets

    def apply(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            live = feat >= 0
            if not live.any():
                return node
            rows = np.nonzero(live)[0]
            go_left = X[rows, feat[live]] <= self.threshold[node[live]]
            node[rows] = np.where(go_left, self.left[node[live]],
                                  self.right[node[live]])

    def predict(self, X) -> np.ndarray:
        return self.value[self.apply(X)]

    def packed(self) -> np.ndarray:
        return np.stack([self.feature.astype(np.float64), self.threshold,
                         self.left.astype(np.float64),
                         self.right.astype(np.float64), self.value])

    @classmethod
    def from_packed(cls, arr) -> "Tree":
        return cls(feature=arr[0].astype(np.int64), threshold=arr[1].copy(),
                   left=arr[2].astype(np.int64), right=arr[3].astype(np.int64),
                   value=arr[4].copy())


def _best_split(xo_mat, yo_mat, feature_ids, min_leaf):
    """Exhaustive variance-reduction split search, vectorized across the
    candidate features.

    ``xo_mat[:, f]`` / ``yo_mat[:, f]`` hold the node's feature values and
    targets presorted by feature f, so no per-node sorting or gathering is
    needed. Returns (sse, feature, threshold, boundary) of the best split
    or None. The argmin runs feature-major, so ties resolve to the lowest
    feature index and then the lowest threshold."""
    n = xo_mat.shape[0]
    # candidate boundary i splits into [0, i) and [i, n)
    i = np.arange(min_leaf, n - min_leaf + 1)
    if i.size == 0:
        return None
    if feature_ids.size == xo_mat.shape[1]:
        xo, yo = xo_mat, yo_mat
    else:
        xo, yo = xo_mat[:, feature_ids], yo_mat[:, feature_ids]
    cum = np.cumsum(yo, axis=0)
    cum2 = np.cumsum(yo * yo, axis=0)
    total, total2 = cum[-1], cum2[-1]
    c1, c2 = cum[i - 1], cum2[i - 1]
    left_n = i[:, None].astype(np.float64)
    right_n = n - left_n
    sse = (c2 - c1 ** 2 / left_n) + (total2 - c2) - (total - c1) ** 2 / right_n
    sse[xo[i - 1] >= xo[i]] = np.inf          # no value change across boundary
    flat = sse.T.reshape(-1)
    k = int(np.argmin(flat))
    if not np.isfinite(flat[k]):
        return None
    ci, bi = divmod(k, i.size)
    boundary = int(i[bi])
    a, b = xo[boundary - 1, ci], xo[boundary, ci]
    thr = 0.5 * (a + b)
    if thr >= b:                               # midpoint rounded up to the right value
        thr = a
    return float(flat[k]), int(feature_ids[ci]), float(thr), boundary


def fit_tree(X, y, max_depth: int, min_samples_split: int,
             min_samples_leaf: int, feature_fraction: float = 1.0,
             rng=None) -> Tree:
    """Grow one regression tree (depth-first, deterministic).

    Row indices are argsorted per feature once at the root; splits carve
    those presorted columns with stable boolean masks, so child nodes stay
    sorted without re-sorting.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, n_feat = X.shape
    m_try = max(1, int(round(feature_fraction * n_feat)))

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(rows):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        return len(feature) - 1

    root_cols = np.argsort(X, axis=0, kind="stable")
    root_xo = np.take_along_axis(X, root_cols, axis=0)
    root_yo = y[root_cols]
    stack = [(new_node(root_cols[:, 0]), root_cols, root_xo, root_yo, 0)]
    while stack:
        node_id, cols, xo_mat, yo_mat, depth = stack.pop()
        if depth >= max_depth or cols.shape[0] < min_samples_split:
            continue
        ys = yo_mat[:, 0]
        if np.all(ys == ys[0]):
            continue
        if m_try < n_feat:
            candidates = np.sort(rng.choice(n_feat, size=m_try, replace=False))
        else:
            candidates = np.arange(n_feat)
        split = _best_split(xo_mat, yo_mat, candidates, min_samples_leaf)
        if split is None:
            continue
        _, f, thr, boundary = split
        is_left = np.zeros(n, dtype=bool)
        is_left[cols[:boundary, f]] = True
        mask_t = is_left[cols].T             # (n_feat, n_node)
        n_l = boundary
        n_r = cols.shape[0] - boundary
        cols_l = cols.T[mask_t].reshape(n_feat, n_l).T
        cols_r = cols.T[~mask_t].reshape(n_feat, n_r).T
        xo_l = xo_mat.T[mask_t].reshape(n_feat, n_l).T
        xo_r = xo_mat.T[~mask_t].reshape(n_feat, n_r).T
        yo_l = yo_mat.T[mask_t].reshape(n_feat, n_l).T
        yo_r = yo_mat.T[~mask_t].reshape(n_feat, n_r).T
        feature[node_id] = f
        threshold[node_id] = thr
        lid = new_node(cols_l[:, 0])
        rid = new_node(cols_r[:, 0])
        left[node_id] = lid
        right[node_id] = rid
        stack.append((rid, cols_r, xo_r, yo_r, depth + 1))
        stack.append((lid, cols_l, xo_l, yo_l, depth + 1))

    return Tree(feature=np.array(feature, dtype=np.int64),
                threshold=np.array(threshold),
                left=np.array(left, dtype=np.int64),
                right=np.array(right, dtype=np.int64),
                value=np.array(value))


# ---------------------------------------------------------------------------
# quantile regression forest
# ---------------------------------------------------------------------------

@dataclass
class ForestConfig:
    """Forest hyperparameters; defaults are the tuned values."""

    n_estimators: int = 100
    max_depth: int = 40
    min_samples_split: int = 50
    min_samples_leaf: int = 13
    feature_fraction: float = 1.0
    bootstrap: bool = True
    seed: int = 0


@dataclass
class QrfModel:
    config: ForestConfig
    trees: list
    sample_idx: list        # per tree: original training indices used
    sample_leaf: list       # per tree: leaf id of each of those samples
    y_train: np.ndarray
    levels: tuple = DEFAULT_LEVELS

    def weights_for(self, X) -> np.ndarray:
        """Per-training-point weights for each query row: 1/leaf-size,
        averaged over trees. Rows sum to 1."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n_q = X.shape[0]
        w = np.zeros((n_q, self.y_train.size))
        n_trees = len(self.trees)
        for tree, idx, leaf in zip(self.trees, self.sample_idx, self.sample_leaf):
            q_leaf = tree.apply(X)
            for l in np.unique(q_leaf):
                members = idx[leaf == l]
                q_rows = np.nonzero(q_leaf == l)[0]
                np.add.at(w, (q_rows[:, None], members[None, :]),
                          1.0 / (n_trees * members.size))
        return w

    def predict_quantiles(self, X, chunk: int = 256) -> np.ndarray:
        # chunked so the (queries x training points) weight matrix stays small
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        order = np.argsort(self.y_train, kind="stable")
        ys = self.y_train[order]
        out = np.empty((X.shape[0], len(self.levels)))
        for start in range(0, X.shape[0], chunk):
            block = X[start:start + chunk]
            w = self.weights_for(block)
            cw = np.cumsum(w[:, order], axis=1)
            cw /= cw[:, -1:]
            for r in range(block.shape[0]):
                pos = np.searchsorted(cw[r], self.levels, side="left")
                out[start + r] = ys[np.minimum(pos, ys.size - 1)]
        return out


def qrf_fit(X, y, config: ForestConfig = None,
            levels=DEFAULT_LEVELS) -> QrfModel:
    """Grow the forest on bootstrap resamples and remember which training
    points landed in which leaf (the weights need them at predict time)."""
    config = config or ForestConfig()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n < config.min_samples_split:
        raise ValueError(f"need at least {config.min_samples_split} samples")
    rng = np.random.default_rng(config.seed)
    trees, sample_idx, sample_leaf = [], [], []
    for _ in range(config.n_estimators):
        idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        idx = np.sort(idx)
        tree = fit_tree(X[idx], y[idx], config.max_depth,
                        config.min_samples_split, config.min_samples_leaf,
                        config.feature_fraction, rng)
        trees.append(tree)
        sample_idx.append(idx)
        sample_leaf.append(tree.apply(X[idx]))
    return QrfModel(config=config, trees=trees, sample_idx=sample_idx,
                    sample_leaf=sample_leaf, y_train=y.copy(),
                    levels=tuple(levels))


# ---------------------------------------------------------------------------
# quantile gradient boosting
# ---------------------------------------------------------------------------

@dataclass
class BoostConfig:
    """Boosting hyperparameters; tree conventions follow ForestConfig."""

    learning_rate: float = 0.05
    n_estimators: int = 100
    max_depth: int = 40
    min_samples_split: int = 50
    min_samples_leaf: int = 13


@dataclass
class QgbModel:
    config: BoostConfig
    level: float
    init: float
    stages: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.full(X.shape[0], self.init)
        for tree in self.stages:
            out += self.config.learning_rate * tree.predict(X)
        return out


def qgb_fit(X, y, config: BoostConfig = None, level: float = 0.5) -> QgbModel:
    """Gradient boosting on the pinball loss.

    Each stage grows a tree on the pinball subgradient; leaf values are then
    replaced by the in-leaf tau-quantile of the current residuals (the exact
    per-region minimizer), scaled by the learning rate. Moving toward a
    convex minimizer guarantees the training loss never increases.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    config = config or BoostConfig()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]

    model = QgbModel(config=config, level=level,
                     init=weighted_quantile(y, np.ones(n), level))
    pred = np.full(n, model.init)
    model.train_loss.append(float(np.mean(pinball_loss(y, pred, level))))
    for _ in range(config.n_estimators):
        resid = y - pred
        grad = np.where(resid >= 0.0, level, level - 1.0)
        tree = fit_tree(X, grad, config.max_depth, config.min_samples_split,
                        config.min_samples_leaf)
        leaves = tree.apply(X)
        for l in np.unique(leaves):
            members = leaves == l
            tree.value[l] = weighted_quantile(
                resid[members], np.ones(int(members.sum())), level)
        model.stages.append(tree)
        pred += config.learning_rate * tree.value[leaves]
        model.train_loss.append(float(np.mean(pinball_loss(y, pred, level))))
    return model


@dataclass
class QgbSet:
    """One boosted ensemble per quantile level."""

    levels: tuple
    models: list

    def predict_quantiles(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.column_stack([m.predict(X) for m in self.models])


def qgb_fit_set(X, y, config: BoostConfig = None,
                levels=DEFAULT_LEVELS) -> QgbSet:
    return QgbSet(levels=tuple(levels),
                  models=[qgb_fit(X, y, config, level) for level in levels])


# ---------------------------------------------------------------------------
# artifact round-trips
# ---------------------------------------------------------------------------

def save_baseline(model, path, meta: dict = None) -> None:
    meta = dict(meta or {})
    if isinstance(model, QlrModel):
        meta["levels"] = list(model.levels)
        artifact.save_artifact(path, "qlr", meta, {
            "coef": model.coef, "intercept": model.intercept,
            "x_mean": model.x_mean, "x_std": model.x_std})
    elif isinstance(model, QrfModel):
        meta["levels"] = list(model.levels)
        meta["config"] = vars(model.config)
        arrays = {"y_train": model.y_train}
        for t, (tree, idx, leaf) in enumerate(zip(model.trees, model.sample_idx,
                                                  model.sample_leaf)):
            arrays[f"tree{t:03d}/nodes"] = tree.packed()
            arrays[f"tree{t:03d}/idx"] = idx.astype(np.float64)
            arrays[f"tree{t:03d}/leaf"] = leaf.astype(np.float64)
        artifact.save_artifact(path, "qrf", meta, arrays)
    elif isinstance(model, QgbSet):
        meta["levels"] = list(model.levels)
        meta["config"] = vars(model.models[0].config)
        arrays = {"init": np.array([m.init for m in model.models])}
        for li, m in enumerate(model.models):
            for s, tree in enumerate(m.stages):
                arrays[f"lvl{li:02d}/stage{s:03d}"] = tree.packed()
        artifact.save_artifact(path, "qgb", meta, arrays)
    else:
        raise TypeError(f"unsupported baseline model {type(model).__name__}")


def load_baseline(path):
    return baseline_from_artifact(*artifact.load_artifact(path), path)


def baseline_from_artifact(kind, meta, arrays, path):
    """The baseline model held by an artifact already read from ``path``."""
    levels = tuple(meta["levels"])
    if kind == "qlr":
        return QlrModel(levels=levels, coef=arrays["coef"],
                        intercept=arrays["intercept"],
                        x_mean=arrays["x_mean"], x_std=arrays["x_std"])
    if kind == "qrf":
        cfg = ForestConfig(**meta["config"])
        trees, idxs, leaves = [], [], []
        t = 0
        while f"tree{t:03d}/nodes" in arrays:
            trees.append(Tree.from_packed(arrays[f"tree{t:03d}/nodes"]))
            idxs.append(arrays[f"tree{t:03d}/idx"].astype(np.int64))
            leaves.append(arrays[f"tree{t:03d}/leaf"].astype(np.int64))
            t += 1
        return QrfModel(config=cfg, trees=trees, sample_idx=idxs,
                        sample_leaf=leaves, y_train=arrays["y_train"],
                        levels=levels)
    if kind == "qgb":
        cfg = BoostConfig(**meta["config"])
        inits = arrays["init"]
        models = []
        for li, level in enumerate(levels):
            stages = []
            s = 0
            while f"lvl{li:02d}/stage{s:03d}" in arrays:
                stages.append(Tree.from_packed(arrays[f"lvl{li:02d}/stage{s:03d}"]))
                s += 1
            models.append(QgbModel(config=cfg, level=level,
                                   init=float(inits[li]), stages=stages))
        return QgbSet(levels=levels, models=models)
    raise artifact.ArtifactError(f"{path}: unknown model kind {kind!r}")
