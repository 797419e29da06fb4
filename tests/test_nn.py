import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vphm import nn
from vphm.autodiff import ShapeMismatch, Tensor
from testutil import analytic_grads, finite_diff_grad, max_rel_error, rand_tensor


class TestConv1d:
    def test_identity_kernel_passes_input_through(self):
        x = Tensor(np.array([[[1.0, -2.0, 3.0, 0.5]]]))
        w = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        b = Tensor(np.zeros(1))
        out = nn.conv1d_forward(x, w, b)
        assert np.allclose(out.data, x.data)

    def test_zero_weights_give_bias_everywhere(self):
        x = Tensor(np.ones((1, 2, 5)))
        w = Tensor(np.zeros((3, 2, 3)))
        b = Tensor(np.full(3, 0.5))
        out = nn.conv1d_forward(x, w, b)
        assert np.allclose(out.data, 0.5)
        assert out.data.shape == (1, 3, 5)

    def test_box_kernel_hand_computed(self):
        # cross-correlation of [1,2,3] with [1,1,1], zero-padded
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        w = Tensor(np.ones((1, 1, 3)))
        b = Tensor(np.zeros(1))
        out = nn.conv1d_forward(x, w, b)
        assert np.allclose(out.data, [[[3.0, 6.0, 5.0]]])

    def test_even_kernel_rejected(self):
        x = Tensor(np.ones((1, 1, 4)))
        w = Tensor(np.ones((1, 1, 4)))
        with pytest.raises(ValueError):
            nn.conv1d_forward(x, w, Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.ones((1, 2, 4)))
        w = Tensor(np.ones((1, 3, 3)))
        with pytest.raises(ShapeMismatch):
            nn.conv1d_forward(x, w, Tensor(np.zeros(1)))

    @given(kernel=st.sampled_from([1, 3, 5, 7]), length=st.integers(4, 20))
    @settings(max_examples=25, deadline=None)
    def test_same_padding_preserves_length(self, kernel, length):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2, length)))
        w = Tensor(rng.normal(size=(4, 2, kernel)))
        out = nn.conv1d_forward(x, w, Tensor(np.zeros(4)))
        assert out.data.shape == (1, 4, length)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (2, 3, 6))
        w = rand_tensor(rng, (4, 3, 3), scale=0.5)
        b = rand_tensor(rng, (4,), scale=0.1)

        def build():
            return (nn.conv1d_forward(x, w, b).relu() * 0.5).sum()

        got = analytic_grads(build, [x, w, b])
        want = finite_diff_grad(lambda: build().item(), [x, w, b])
        assert max_rel_error(got, want) < 1e-4


def loop_conv1d(x, w, b, g):
    """Reference: per-sample, per-tap cross-correlation with `same` zero
    padding, and the gradients of sum(out * g) with respect to x, w and b."""
    nb, nc, length = x.shape
    nf, _, kernel = w.shape
    pad = kernel // 2
    out = np.zeros((nb, nf, length))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for s in range(nb):
        xp = np.zeros((nc, length + 2 * pad))
        xp[:, pad:pad + length] = x[s]
        gxp = np.zeros_like(xp)
        for k in range(kernel):
            out[s] += w[:, :, k] @ xp[:, k:k + length]
            gw[:, :, k] += g[s] @ xp[:, k:k + length].T
            gxp[:, k:k + length] += w[:, :, k].T @ g[s]
        out[s] += b[:, None]
        gx[s] = gxp[:, pad:pad + length]
    return out, gx, gw, g.sum(axis=(0, 2))


def assert_rel_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


class TestConv1dAgainstLoop:
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("nb", [1, 32, 591])
    def test_output_and_gradients_match_loop(self, kernel, nb):
        rng = np.random.default_rng(kernel * 1000 + nb)
        x = rand_tensor(rng, (nb, 16, 10))
        w = rand_tensor(rng, (16, 16, kernel), scale=0.3)
        b = rand_tensor(rng, (16,), scale=0.1)
        g = rng.normal(size=(nb, 16, 10))
        out = nn.conv1d_forward(x, w, b)
        (out * Tensor(g)).sum().backward()
        want = loop_conv1d(x.data, w.data, b.data, g)
        for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
            assert got.shape == ref.shape
            assert_rel_close(got, ref)

    def test_frozen_operands_build_no_graph(self):
        rng = np.random.default_rng(0)
        out = nn.conv1d_forward(Tensor(rng.normal(size=(4, 2, 10))),
                                Tensor(rng.normal(size=(3, 2, 3))),
                                Tensor(np.zeros(3)))
        assert not out.requires_grad
        assert out._backward is None and out._prev == ()


class TestAdaptiveAvgPool:
    def test_simple_mean(self):
        out = nn.adaptive_avg_pool(Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]])))
        assert np.allclose(out.data, [[2.5]])

    def test_constant_map(self):
        out = nn.adaptive_avg_pool(Tensor(np.full((1, 3, 7), 1.25)))
        assert np.allclose(out.data, 1.25)

    def test_per_filter_means(self):
        out = nn.adaptive_avg_pool(Tensor(np.array([[[1.0, 1.0], [2.0, 4.0]]])))
        assert np.allclose(out.data, [[1.0, 3.0]])

    def test_empty_map_rejected(self):
        with pytest.raises(nn.EmptyInput):
            nn.adaptive_avg_pool(Tensor(np.ones((1, 2, 0))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, (2, 3, 5))

        def build():
            return (nn.adaptive_avg_pool(x) ** 2).sum()

        got = analytic_grads(build, [x])
        want = finite_diff_grad(lambda: build().item(), [x])
        assert max_rel_error(got, want) < 1e-4


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out, mask = nn.dropout_forward(x, 0.0, np.random.default_rng(0))
        assert out is x
        assert np.array_equal(mask, np.ones((2, 3)))

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones(5))
        out, _ = nn.dropout_forward(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.full(100_000, 3.0))
        out, _ = nn.dropout_forward(x, 0.5, rng)
        # mean of survivors*2 should be 3.0 within Monte Carlo error
        assert abs(out.data.mean() - 3.0) < 3.0 * 3 / np.sqrt(100_000)

    def test_extreme_rate_zeroes_almost_everything(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(1000))
        out, _ = nn.dropout_forward(x, 0.999, rng)
        assert np.count_nonzero(out.data) <= 10

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            nn.dropout_forward(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_mask_reused_in_backward(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones(50), requires_grad=True)
        out, mask = nn.dropout_forward(x, 0.4, rng)
        out.sum().backward()
        assert np.array_equal(x.grad, mask)


class TestGaussianHead:
    def test_raw_zero_gives_unit_variance(self):
        pred = nn.gaussian_head_forward(Tensor(np.array([[0.3, 0.0]])))
        assert pred.mu.item() == pytest.approx(0.3)
        assert pred.sigma2_a.item() == pytest.approx(1.0)

    def test_negative_raw_maps_through_exp(self):
        pred = nn.gaussian_head_forward(Tensor(np.array([[0.0, -2.0]])))
        assert pred.sigma2_a.item() == pytest.approx(np.exp(-2.0))

    @given(st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_variance_always_positive(self, a, b):
        pred = nn.gaussian_head_forward(Tensor(np.array([[a, b]])))
        assert pred.sigma2_a.item() > 0.0

    def test_batched_shapes(self):
        pred = nn.gaussian_head_forward(Tensor(np.zeros((5, 2))))
        assert pred.mu.data.shape == (5,)
        assert pred.sigma2_a.data.shape == (5,)


class TestNllLoss:
    def test_perfect_prediction_unit_variance(self):
        pred = nn.GaussianPrediction(Tensor(np.array([1.0])), Tensor(np.array([1.0])))
        assert nn.nll_loss(pred, [1.0]).item() == pytest.approx(0.0)

    def test_unit_error_unit_variance(self):
        pred = nn.GaussianPrediction(Tensor(np.array([0.0])), Tensor(np.array([1.0])))
        assert nn.nll_loss(pred, [1.0]).item() == pytest.approx(0.5)

    def test_closed_form_value(self):
        # (y-mu)^2/(2 s2) + 0.5 log s2 = 4/8 + 0.5 ln 4
        pred = nn.GaussianPrediction(Tensor(np.array([0.0])), Tensor(np.array([4.0])))
        want = 0.5 + 0.5 * np.log(4.0)
        assert nn.nll_loss(pred, [2.0]).item() == pytest.approx(want, abs=1e-9)
        assert want == pytest.approx(1.1931, abs=1e-4)

    def test_empty_batch_rejected(self):
        pred = nn.GaussianPrediction(Tensor(np.array([])), Tensor(np.array([])))
        with pytest.raises(ValueError):
            nn.nll_loss(pred, [])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_through_head_and_loss(self, seed):
        rng = np.random.default_rng(200 + seed)
        raw = rand_tensor(rng, (4, 2))
        targets = rng.normal(size=4)

        def build():
            return nn.nll_loss(nn.gaussian_head_forward(raw), targets)

        got = analytic_grads(build, [raw])
        want = finite_diff_grad(lambda: build().item(), [raw])
        assert max_rel_error(got, want) < 1e-4


class TestAdam:
    def test_default_hyperparameters(self):
        state = nn.AdamState()
        assert (state.beta1, state.beta2, state.epsilon) == (0.9, 0.999, 1e-8)

    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = nn.AdamState.for_params([p], learning_rate=0.01)
        nn.adam_step([p], [np.zeros(2)], state)
        assert np.allclose(p.data, [1.0, 2.0])

    @pytest.mark.parametrize("g", [0.01, 1.0, 250.0])
    def test_first_step_magnitude_is_learning_rate(self, g):
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        p = Tensor(np.array([5.0]), requires_grad=True)
        state = nn.AdamState.for_params([p], learning_rate=0.001)
        nn.adam_step([p], [np.array([g])], state)
        assert abs(p.data[0] - 5.0) == pytest.approx(0.001, rel=1e-5)

    def test_step_counter_advances(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = nn.AdamState.for_params([p])
        nn.adam_step([p], [np.array([1.0])], state)
        nn.adam_step([p], [np.array([1.0])], state)
        assert state.step_count == 2

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        state = nn.AdamState.for_params([p])
        with pytest.raises(ShapeMismatch):
            nn.adam_step([p], [np.zeros(4)], state)


class TestXavier:
    def test_bounds_and_determinism(self):
        a = nn.xavier_uniform((50, 40), 50, 40, np.random.default_rng(9))
        b = nn.xavier_uniform((50, 40), 50, 40, np.random.default_rng(9))
        limit = np.sqrt(6.0 / 90)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= limit)


class TestLayerSpec:
    """The rules of a layer spec, enforced by the layer constructors."""

    def test_even_kernel_with_same_padding_invalid(self):
        with pytest.raises(ValueError):
            nn.Conv1d(1, 1, kernel=4, rng=np.random.default_rng(0))

    def test_dropout_rate_bounds(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)
        nn.Dropout(0.0)
