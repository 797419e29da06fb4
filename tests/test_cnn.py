import numpy as np
import pytest

from vphm import cnn, ingest, physics, synthgen
from vphm.artifact import ArtifactError
from vphm.cnn import CnnConfig
from vphm.ingest import WindowedSample
from testutil import analytic_grads, finite_diff_grad, max_rel_error


SMALL = CnnConfig(window_size=6, filters=6, fc_nodes=(12, 8), epochs=40,
                  batch_size=16, mc_samples=30)


def constant_windows(n, value=0.0, target=0.0, window=6):
    inputs = np.full((window, 2), value)
    return [WindowedSample(inputs=inputs.copy(), target=target) for _ in range(n)]


def noisy_windows(rng, n, window=6, sigma=0.05, marker=0.0):
    out = []
    for _ in range(n):
        inputs = np.full((window, 2), marker) + rng.normal(0, 0.1, (window, 2))
        out.append(WindowedSample(inputs=inputs, target=rng.normal(0.0, sigma)))
    return out


class TestBuild:
    def test_defaults_match_tuned_values(self):
        cfg = CnnConfig()
        assert (cfg.window_size, cfg.conv_layers, cfg.filters, cfg.kernel) \
            == (10, 3, 16, 3)
        assert cfg.padding == "same"
        assert cfg.fc_nodes == (64, 32)
        assert (cfg.dropout_rate, cfg.epochs, cfg.learning_rate,
                cfg.mc_samples) == (0.1, 130, 0.001, 100)

    def test_default_parameter_count(self):
        model = cnn.build(CnnConfig(), seed=0)
        # 3 conv blocks + pool + dense 64/32 + 2-neuron head
        assert model.param_count() == 4914

    def test_forward_variance_positive(self):
        model = cnn.build(CnnConfig(), seed=1)
        x = model.normalize(np.random.default_rng(0).normal(size=(1, 10, 2)))
        pred = model.forward(x)
        assert pred.sigma2_a.data[0] > 0.0

    def test_same_seed_same_weights(self):
        a = cnn.build(CnnConfig(), seed=42)
        b = cnn.build(CnnConfig(), seed=42)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.data, pb.data)

    def test_even_kernel_invalid(self):
        with pytest.raises(cnn.InvalidConfig):
            cnn.build(CnnConfig(kernel=4), seed=0)

    def test_bad_dropout_invalid(self):
        with pytest.raises(cnn.InvalidConfig):
            CnnConfig(dropout_rate=1.0).validate()

    def test_full_network_gradient_check(self):
        cfg = CnnConfig(window_size=5, filters=3, fc_nodes=(6, 4), dropout_rate=0.2)
        model = cnn.build(cfg, seed=3)
        rng = np.random.default_rng(5)
        x = model.normalize(rng.normal(size=(2, 5, 2)))
        targets = rng.normal(size=2)
        masks_rng_seed = 11

        def build_loss():
            # frozen dropout stream so analytic and numeric passes see the
            # same masks
            drop_rng = np.random.default_rng(masks_rng_seed)
            from vphm import nn as _nn
            pred = model.forward(x, rng=drop_rng, training=True)
            return _nn.nll_loss(pred, targets)

        params = model.params
        got = analytic_grads(build_loss, params)
        want = finite_diff_grad(lambda: build_loss().item(), params)
        assert max_rel_error(got, want) < 1e-4


class TestTrain:
    def test_degenerate_fit_drives_mean_to_zero(self):
        cfg = CnnConfig(window_size=6, filters=4, fc_nodes=(8, 4), epochs=200,
                        batch_size=16, mc_samples=10)
        windows = constant_windows(64, value=1.0, target=0.0)
        model = cnn.build(cfg, seed=0)
        model, losses = cnn.train(model, windows, cfg, seed=0)
        pred = model.forward(model.normalize(windows[0].inputs[None]))
        assert abs(pred.mu.data[0]) < 1e-2
        assert losses[-1] < losses[0]
        assert np.mean(losses[-10:]) <= losses[0]

    def test_heteroscedastic_noise_learned(self):
        rng = np.random.default_rng(8)
        low = noisy_windows(rng, 150, sigma=0.05, marker=-1.0)
        high = noisy_windows(rng, 150, sigma=0.2, marker=1.0)
        model = cnn.build(SMALL, seed=2)
        cnn.train(model, low + high, SMALL, seed=2)

        def mean_sigma_a(windows):
            x = model.normalize(np.stack([w.inputs for w in windows]))
            _, sigma_a2, _ = cnn._mc_forward(model, x, 30, seed=3)
            return float(np.mean(np.sqrt(sigma_a2)))

        assert mean_sigma_a(high) > 1.3 * mean_sigma_a(low)

    def test_empty_training_set_rejected(self):
        model = cnn.build(SMALL, seed=0)
        with pytest.raises(ValueError):
            cnn.train(model, [], SMALL)

    def test_training_is_deterministic(self):
        windows = noisy_windows(np.random.default_rng(1), 40)
        cfg = CnnConfig(window_size=6, filters=3, fc_nodes=(4,), epochs=5,
                        batch_size=8, mc_samples=5)
        runs = []
        for _ in range(2):
            model = cnn.build(cfg, seed=9)
            cnn.train(model, windows, cfg, seed=9)
            runs.append([p.data.copy() for p in model.params])
        for pa, pb in zip(*runs):
            assert np.array_equal(pa, pb)


@pytest.fixture(scope="module")
def trained():
    windows = noisy_windows(np.random.default_rng(4), 80)
    cfg = CnnConfig(window_size=6, filters=4, fc_nodes=(8, 4), epochs=20,
                    batch_size=16, mc_samples=25)
    model = cnn.build(cfg, seed=5)
    cnn.train(model, windows, cfg, seed=5)
    return model, windows


class TestMcInfer:
    def test_single_pass_has_zero_epistemic(self, trained):
        model, windows = trained
        dec = cnn.mc_infer(model, windows[0].inputs, n=1, seed=0)
        assert dec.sigma_e == 0.0

    def test_zero_rate_has_exactly_zero_epistemic(self):
        cfg = CnnConfig(window_size=6, filters=4, fc_nodes=(8, 4), epochs=1,
                        dropout_rate=0.0, batch_size=8, mc_samples=16)
        windows = constant_windows(16, value=0.5)
        model = cnn.build(cfg, seed=1)
        cnn.train(model, windows, cfg, seed=1)
        dec = cnn.mc_infer(model, windows[0].inputs, n=16, seed=2)
        assert dec.sigma_e == 0.0

    def test_decomposition_identity(self, trained):
        model, windows = trained
        for k in (0, 3, 7):
            dec = cnn.mc_infer(model, windows[k].inputs, n=25, seed=k)
            assert dec.sigma_tu ** 2 == pytest.approx(
                dec.sigma_a ** 2 + dec.sigma_e ** 2, rel=1e-12)
            assert dec.sigma_a >= 0 and dec.sigma_e >= 0

    def test_bitwise_reproducible(self, trained):
        model, windows = trained
        a = cnn.mc_infer(model, windows[2].inputs, n=25, seed=77)
        b = cnn.mc_infer(model, windows[2].inputs, n=25, seed=77)
        assert (a.y_hat, a.sigma_a, a.sigma_e, a.sigma_tu) \
            == (b.y_hat, b.sigma_a, b.sigma_e, b.sigma_tu)

    def test_invalid_n_rejected(self, trained):
        model, windows = trained
        with pytest.raises(ValueError):
            cnn.mc_infer(model, windows[0].inputs, n=0, seed=0)

    def test_large_n_shrinks_mean_jitter(self, trained):
        # standard-error shrinkage: y_hat at n=1000 stays within
        # 3 * sigma_e / sqrt(100) of y_hat at n=100 on almost all windows
        model, windows = trained
        inside = 0
        for k, w in enumerate(windows[:50]):
            small = cnn.mc_infer(model, w.inputs, n=100, seed=900 + k)
            big = cnn.mc_infer(model, w.inputs, n=1000, seed=900 + k)
            bound = 3.0 * max(small.sigma_e, 1e-12) / np.sqrt(100)
            inside += abs(big.y_hat - small.y_hat) <= bound
        assert inside >= 0.99 * 50 - 1e-9


class TestAleatoricMonotonicity:
    def test_sigma_a_grows_with_generator_noise(self):
        cfg = CnnConfig(window_size=6, filters=4, fc_nodes=(8, 4), epochs=60,
                        batch_size=16, mc_samples=20)
        mean_sigmas = []
        for noise in (0.02, 0.06, 0.18):
            rng = np.random.default_rng(31)
            windows = [WindowedSample(inputs=rng.normal(0, 0.1, (6, 2)),
                                      target=rng.normal(0.0, noise))
                       for _ in range(120)]
            model = cnn.build(cfg, seed=7)
            cnn.train(model, windows, cfg, seed=7)
            x = model.normalize(np.stack([w.inputs for w in windows]))
            _, sigma_a2, _ = cnn._mc_forward(model, x, 20, seed=8)
            mean_sigmas.append(float(np.mean(np.sqrt(sigma_a2))))
        assert mean_sigmas[0] < mean_sigmas[1] < mean_sigmas[2]


@pytest.fixture(scope="module")
def small_battery():
    return physics.BatteryParams(
        q_max=3600.0, surface_fraction=0.2, diffusion_rate=0.02,
        r_ohmic=0.05, ohmic_tau=2.0, eta_tau=4.0,
        eta_scale_p=0.03, eta_scale_n=0.015, i_exchange=2.0)


def synth_flight(params, seed, bias=0.0, sigma_v=0.0, duration=400.0, fid="s"):
    spec = synthgen.ScenarioSpec(
        duration=duration, params=params, load_kind="random_walk",
        load_args={"mean": 2.0, "sigma": 0.2, "lo": 0.5, "hi": 4.0},
        sigma_v=sigma_v, bias_kind="constant" if bias else "none",
        bias_volts=bias, seed=seed, flight_id=fid)
    return synthgen.generate(spec)


def flight_windows(log, params, cfg):
    sim = physics.simulate(log.current, log.sample_period, params)
    return ingest.make_windows(log, sim.voltage, cfg.window_size, stride=1)


class TestForecastFlight:
    def test_zero_residual_flight_gets_tiny_correction(self, small_battery):
        cfg = CnnConfig(window_size=6, filters=4, fc_nodes=(8, 4), epochs=150,
                        batch_size=32, mc_samples=20)
        log, _ = synth_flight(small_battery, seed=1, duration=600.0)
        model = cnn.build(cfg, seed=0)
        cnn.train(model, flight_windows(log, small_battery, cfg), cfg, seed=0)
        fc = cnn.forecast_flight(model, log, small_battery, cfg, seed=0)
        scored = fc.scored_indices
        assert np.mean(np.abs(fc.y_hat[scored])) < 0.01
        assert np.array_equal(fc.corrected_voltage[:5], fc.physics_voltage[:5])
        assert np.all(fc.uncorrected[:5]) and not fc.uncorrected[5]

    def test_constant_bias_corrected(self, small_battery):
        cfg = CnnConfig(window_size=6, filters=4, fc_nodes=(8, 4), epochs=150,
                        batch_size=32, mc_samples=20)
        train_log, _ = synth_flight(small_battery, seed=2, bias=0.2,
                                    sigma_v=0.02, duration=600.0)
        test_log, _ = synth_flight(small_battery, seed=3, bias=0.2,
                                   sigma_v=0.02, duration=600.0)
        model = cnn.build(cfg, seed=1)
        cnn.train(model, flight_windows(train_log, small_battery, cfg), cfg, seed=1)
        fc = cnn.forecast_flight(model, test_log, small_battery, cfg, seed=1)
        scored = fc.scored_indices
        physics_err = np.mean(np.abs(test_log.voltage[scored]
                                     - fc.physics_voltage[scored]))
        hybrid_err = np.mean(np.abs(test_log.voltage[scored]
                                    - fc.corrected_voltage[scored]))
        assert physics_err == pytest.approx(0.2, abs=0.02)
        assert hybrid_err < 0.05

    def test_uncleaned_log_rejected(self, small_battery):
        cfg = SMALL
        log, _ = synth_flight(small_battery, seed=4)
        log.voltage[10] = np.nan
        model = cnn.build(cfg, seed=0)
        with pytest.raises(ValueError):
            cnn.forecast_flight(model, log, small_battery, cfg)


class TestDropoutSensitivity:
    def test_zero_rate_row_has_zero_epistemic(self):
        rng = np.random.default_rng(6)
        train_w = noisy_windows(rng, 60)
        eval_w = noisy_windows(rng, 40)
        cfg = CnnConfig(window_size=6, filters=3, fc_nodes=(6,), epochs=10,
                        batch_size=16, mc_samples=10)
        rows = cnn.dropout_sensitivity(cfg, [0.0], train_w, eval_w, seed=0)
        assert rows[0].mean_sigma_e == 0.0

    def test_duplicate_rates_identical(self):
        rng = np.random.default_rng(7)
        train_w = noisy_windows(rng, 60)
        eval_w = noisy_windows(rng, 40)
        cfg = CnnConfig(window_size=6, filters=3, fc_nodes=(6,), epochs=10,
                        batch_size=16, mc_samples=10)
        rows = cnn.dropout_sensitivity(cfg, [0.15, 0.15], train_w, eval_w, seed=1)
        assert rows[0] == rows[1]

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            cnn.dropout_sensitivity(SMALL, [], [], [], seed=0)


class TestArtifactRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        windows = noisy_windows(np.random.default_rng(2), 50)
        cfg = CnnConfig(window_size=6, filters=3, fc_nodes=(6, 4), epochs=5,
                        batch_size=16, mc_samples=8)
        model = cnn.build(cfg, seed=12)
        cnn.train(model, windows, cfg, seed=12)
        model.fingerprint = cnn.fingerprint_ids(["f1", "f2"])
        path = tmp_path / "model.vphm"
        cnn.save_model(model, path)

        assert path.read_bytes()[:5] == b"VPHM1"
        loaded = cnn.load_model(path)
        assert loaded.config == model.config
        assert loaded.fingerprint == model.fingerprint
        for pa, pb in zip(model.params, loaded.params):
            assert np.array_equal(pa.data, pb.data)
        x = model.normalize(windows[0].inputs[None])
        assert np.array_equal(model.forward(x).mu.data,
                              loaded.forward(x).mu.data)

    def test_wrong_kind_rejected(self, tmp_path):
        from vphm import artifact as art
        path = tmp_path / "other.vphm"
        art.save_artifact(path, "qlr", {}, {"w": np.zeros(3)})
        with pytest.raises(ArtifactError):
            cnn.load_model(path)

    def test_layer_manifest_written_and_checked(self, tmp_path):
        from vphm import artifact as art
        cfg = CnnConfig(window_size=6, filters=3, fc_nodes=(4,))
        model = cnn.build(cfg, seed=0)
        path = tmp_path / "m.vphm"
        cnn.save_model(model, path)
        kind, meta, arrays = art.load_artifact(path)
        kinds = [entry["kind"] for entry in meta["layers"]]
        assert kinds == ["conv1d", "relu", "dropout"] * 3 \
            + ["adaptive_avg_pool", "dense", "relu", "dropout",
               "dense", "gaussian_head"]
        # a manifest that disagrees with the config block is corrupt
        meta["layers"][0]["filters"] = 99
        art.save_artifact(path, kind, meta, arrays)
        with pytest.raises(ArtifactError):
            cnn.load_model(path)

    def test_fingerprint_is_order_insensitive(self):
        assert cnn.fingerprint_ids(["b", "a"]) == cnn.fingerprint_ids(["a", "b"])
