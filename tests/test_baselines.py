import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vphm import baselines, metrics
from vphm.baselines import (BoostConfig, Degenerate, ForestConfig,
                            pinball_loss, qgb_fit, qlr_fit, qrf_fit,
                            weighted_quantile)


class TestPinball:
    def test_median_case_is_half_abs(self):
        y = np.array([3.0, -1.0, 0.5])
        q = np.array([1.0, 1.0, 1.0])
        assert np.allclose(pinball_loss(y, q, 0.5), np.abs(y - q) / 2)

    @given(st.floats(-50, 50), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_exact_prediction_is_zero(self, y, tau):
        assert pinball_loss(y, y, tau) == 0.0

    def test_asymmetric_value(self):
        assert pinball_loss(2.0, 0.0, 0.9) == pytest.approx(1.8)

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, y, q, tau):
        assert pinball_loss(y, q, tau) >= 0.0

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            pinball_loss(1.0, 0.0, 1.0)


class TestWeightedQuantile:
    def test_uniform_three_points(self):
        assert weighted_quantile([1.0, 2.0, 3.0], np.ones(3), 0.5) == 2.0
        assert weighted_quantile([1.0, 2.0, 3.0], np.ones(3), 0.975) == 3.0
        assert weighted_quantile([1.0, 2.0, 3.0], np.ones(3), 0.01) == 1.0

    def test_weights_respected(self):
        assert weighted_quantile([0.0, 1.0], [0.9, 0.1], 0.5) == 0.0
        assert weighted_quantile([0.0, 1.0], [0.1, 0.9], 0.5) == 1.0


class TestQlr:
    def test_recovers_slope_on_linear_data(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 4, size=(2000, 1))
        y = 2.0 * x[:, 0] + rng.uniform(0, 1, 2000)
        model = qlr_fit(x, y, levels=(0.5,))
        slope = model.coef[0, 0] / model.x_std[0]
        assert slope == pytest.approx(2.0, rel=0.05)

    def test_median_matches_conditional_mean_under_symmetric_noise(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(3000, 1))
        y = 1.5 * x[:, 0] + rng.normal(0, 0.3, 3000)
        model = qlr_fit(x, y, levels=(0.5,))
        grid = np.linspace(-1.5, 1.5, 9)[:, None]
        preds = model.predict_quantiles(grid)[:, 0]
        assert np.max(np.abs(preds - 1.5 * grid[:, 0])) < 0.1

    def test_constant_features_degenerate(self):
        with pytest.raises(Degenerate):
            qlr_fit(np.ones((50, 3)), np.arange(50.0))

    def test_fit_beats_unconditional_quantile(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(500, 2))
        y = 3.0 * x[:, 0] + rng.normal(0, 0.1, 500)
        for tau in (0.1, 0.5, 0.9):
            model = qlr_fit(x, y, levels=(tau,))
            fit_loss = np.mean(pinball_loss(y, model.predict_quantiles(x)[:, 0],
                                            tau))
            const_loss = np.mean(pinball_loss(
                y, weighted_quantile(y, np.ones(y.size), tau), tau))
            assert fit_loss <= const_loss

    def test_quantiles_do_not_cross_after_repair(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(400, 2))
        y = x[:, 0] + rng.normal(0, 0.2, 400)
        model = qlr_fit(x, y)
        qs = metrics.QuantileBatch(model.predict_quantiles(x[7:8]),
                                   model.levels).values[0]
        assert np.all(np.diff(qs) >= 0.0)


class TestTree:
    def test_perfect_split_found(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
        tree = baselines.fit_tree(X, y, max_depth=3, min_samples_split=2,
                                  min_samples_leaf=1)
        assert np.allclose(tree.predict(X), y)

    def test_depth_zero_is_single_leaf(self):
        X = np.arange(10.0)[:, None]
        y = np.arange(10.0)
        tree = baselines.fit_tree(X, y, 0, 2, 1)
        assert tree.feature.size == 1
        assert np.allclose(tree.predict(X), y.mean())

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        tree = baselines.fit_tree(X, y, 20, 4, min_samples_leaf=5)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 5

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        a = baselines.fit_tree(X, y, 10, 5, 2)
        b = baselines.fit_tree(X, y, 10, 5, 2)
        for name in baselines.TREE_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestQrf:
    def test_single_leaf_median(self):
        X = np.array([[0.0], [0.0], [0.0]])
        y = np.array([1.0, 2.0, 3.0])
        cfg = ForestConfig(n_estimators=1, max_depth=0, min_samples_split=2,
                           min_samples_leaf=1, bootstrap=False)
        model = qrf_fit(X, y, cfg, levels=(0.5,))
        assert np.sort(model.predict_quantiles([[0.0]])[0])[0] == 2.0

    def test_depth_zero_forest_gives_global_quantiles(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 2))
        y = rng.normal(size=80)
        cfg = ForestConfig(n_estimators=5, max_depth=0, min_samples_split=2,
                           min_samples_leaf=1, bootstrap=False)
        model = qrf_fit(X, y, cfg, levels=(0.25, 0.5, 0.75))
        want = [weighted_quantile(y, np.ones(80), t) for t in (0.25, 0.5, 0.75)]
        assert np.allclose(np.sort(model.predict_quantiles(X[3:4])[0]), want)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(120, 3))
        y = rng.normal(size=120)
        cfg = ForestConfig(n_estimators=10, max_depth=6, min_samples_split=10,
                           min_samples_leaf=3)
        model = qrf_fit(X, y, cfg)
        w = model.weights_for(rng.normal(size=(7, 3)))
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0.0)

    def test_interval_coverage_on_synthetic_data(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(2000, 3))
        y = 2.0 * X[:, 0] + rng.normal(0, 0.3, 2000)
        cfg = ForestConfig(n_estimators=60, max_depth=12, min_samples_split=30,
                           min_samples_leaf=13)
        model = qrf_fit(X, y, cfg, levels=(0.025, 0.5, 0.975))
        Xt = rng.uniform(-1, 1, size=(400, 3))
        yt = 2.0 * Xt[:, 0] + rng.normal(0, 0.3, 400)
        qs = model.predict_quantiles(Xt)
        covered = np.mean((qs[:, 0] <= yt) & (yt <= qs[:, 2]))
        assert covered >= 0.93

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        cfg = ForestConfig(n_estimators=5, max_depth=5, min_samples_split=10,
                           min_samples_leaf=3, seed=11)
        a = qrf_fit(X, y, cfg).predict_quantiles(X[:5])
        b = qrf_fit(X, y, cfg).predict_quantiles(X[:5])
        assert np.array_equal(a, b)

    def test_too_small_training_set_rejected(self):
        with pytest.raises(ValueError):
            qrf_fit(np.zeros((10, 2)), np.zeros(10), ForestConfig())

    def test_paper_defaults(self):
        cfg = ForestConfig()
        assert (cfg.n_estimators, cfg.max_depth, cfg.min_samples_split,
                cfg.min_samples_leaf) == (100, 40, 50, 13)


class TestQgb:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.X = rng.uniform(-1, 1, size=(600, 2))
        self.y = np.sin(2 * self.X[:, 0]) + rng.normal(0, 0.2, 600)
        self.cfg = BoostConfig(learning_rate=0.1, n_estimators=50, max_depth=4,
                               min_samples_split=20, min_samples_leaf=7)

    def test_zero_stages_is_empirical_quantile(self):
        cfg = BoostConfig(n_estimators=0)
        model = qgb_fit(self.X, self.y, cfg, level=0.3)
        want = weighted_quantile(self.y, np.ones(self.y.size), 0.3)
        assert model.predict(self.X[:4]) == pytest.approx(want)

    def test_training_loss_non_increasing(self):
        model = qgb_fit(self.X, self.y, self.cfg, level=0.5)
        losses = np.array(model.train_loss)
        assert np.all(np.diff(losses) <= 1e-12)
        assert losses[50] < losses[1]

    def test_zero_learning_rate_frozen(self):
        cfg = BoostConfig(learning_rate=0.0, n_estimators=10, max_depth=3,
                          min_samples_split=20, min_samples_leaf=7)
        model = qgb_fit(self.X, self.y, cfg, level=0.5)
        assert model.predict(self.X[:6]) == pytest.approx(model.init)

    def test_median_converges_on_symmetric_noise(self):
        model = qgb_fit(self.X, self.y, self.cfg, level=0.5)
        pred = model.predict(self.X)
        true_median = np.sin(2 * self.X[:, 0])
        assert np.mean(np.abs(pred - true_median)) < 0.15

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            qgb_fit(self.X, self.y, self.cfg, level=0.0)

    def test_default_learning_rate(self):
        assert BoostConfig().learning_rate == 0.05

    def test_set_quantiles_monotone_after_repair(self):
        small = BoostConfig(learning_rate=0.1, n_estimators=15, max_depth=3,
                            min_samples_split=20, min_samples_leaf=7)
        ens = baselines.qgb_fit_set(self.X, self.y, small,
                                    levels=(0.1, 0.5, 0.9))
        qs = metrics.QuantileBatch(ens.predict_quantiles(self.X[0:1]),
                                   ens.levels).values[0]
        assert np.all(np.diff(qs) >= 0.0)


class TestSerialization:
    def roundtrip(self, model, tmp_path, name):
        path = tmp_path / name
        baselines.save_baseline(model, path)
        assert path.read_bytes()[:5] == b"VPHM1"
        return baselines.load_baseline(path)

    def test_qlr(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 2))
        y = X[:, 0] + rng.normal(0, 0.1, 300)
        model = qlr_fit(X, y, levels=(0.1, 0.5, 0.9))
        loaded = self.roundtrip(model, tmp_path, "m.qlr")
        assert np.array_equal(model.predict_quantiles(X[:5]),
                              loaded.predict_quantiles(X[:5]))

    def test_qrf(self, tmp_path):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(150, 2))
        y = rng.normal(size=150)
        cfg = ForestConfig(n_estimators=6, max_depth=5, min_samples_split=10,
                           min_samples_leaf=3)
        model = qrf_fit(X, y, cfg, levels=(0.25, 0.75))
        loaded = self.roundtrip(model, tmp_path, "m.qrf")
        assert np.array_equal(model.predict_quantiles(X[:5]),
                              loaded.predict_quantiles(X[:5]))

    def test_qgb(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(200, 2))
        y = X[:, 1] + rng.normal(0, 0.2, 200)
        cfg = BoostConfig(learning_rate=0.1, n_estimators=8, max_depth=3,
                          min_samples_split=20, min_samples_leaf=7)
        ens = baselines.qgb_fit_set(X, y, cfg, levels=(0.25, 0.5, 0.75))
        loaded = self.roundtrip(ens, tmp_path, "m.qgb")
        assert np.array_equal(ens.predict_quantiles(X[:5]),
                              loaded.predict_quantiles(X[:5]))

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        model = qlr_fit(X, y, levels=(0.5,))
        baselines.save_baseline(model, tmp_path / "a")
        baselines.save_baseline(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
