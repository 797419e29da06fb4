import math
from dataclasses import replace

import numpy as np
import pytest

from vphm import physics


@pytest.fixture(scope="module")
def small_params():
    # 1 Ah test cell with fast dynamics so tests run quickly
    return physics.BatteryParams(
        q_max=3600.0, surface_fraction=0.2, diffusion_rate=0.02,
        r_ohmic=0.05, ohmic_tau=2.0, eta_tau=4.0,
        eta_scale_p=0.03, eta_scale_n=0.015, i_exchange=2.0)


class TestDefaults:
    def test_lipo_preset_capacity(self):
        p = physics.default_params("lipo-30ah")
        assert p.q_max == pytest.approx(30.0 * 3600.0)

    def test_lipo_preset_cutoff_reached_monotonically(self):
        # cutoff choice validated by draining the pack and watching the
        # voltage walk down through it without bouncing
        p = physics.default_params("lipo-30ah")
        assert p.v_min == pytest.approx(3.0)
        sim = physics.simulate(np.full(1900, 60.0), 1.0, p, initial_soc=1.0)
        assert sim.eod_index is not None
        settled = sim.voltage[60:sim.eod_index + 1]
        assert np.all(np.diff(settled) <= 1e-12)

    def test_unknown_chemistry(self):
        with pytest.raises(physics.UnknownChemistry):
            physics.default_params("bogus")


class TestStep:
    def test_equilibrium_is_fixed_point(self, small_params):
        s0 = physics.initial_state(small_params, 0.7)
        s1 = physics.step(s0, 0.0, 1.0, small_params)
        assert np.allclose(s1.as_vector(), s0.as_vector(), atol=1e-9)

    def test_constant_current_drains_exact_charge(self):
        p = physics.BatteryParams(
            q_max=7200.0, surface_fraction=0.2, diffusion_rate=0.02,
            r_ohmic=0.05, ohmic_tau=2.0, eta_tau=4.0,
            eta_scale_p=0.03, eta_scale_n=0.015, i_exchange=2.0)
        s = physics.initial_state(p, 1.0)
        total0 = s.q_s_n + s.q_b_n
        for _ in range(3600):
            s = physics.step(s, 1.0, 1.0, p)
        drained = total0 - (s.q_s_n + s.q_b_n)
        assert drained == pytest.approx(3600.0, rel=1e-6)

    def test_negative_dt_rejected(self, small_params):
        s = physics.initial_state(small_params, 0.5)
        with pytest.raises(ValueError):
            physics.step(s, 1.0, -1.0, small_params)

    @pytest.mark.parametrize("seed", range(4))
    def test_charge_conservation_random_profile(self, small_params, seed):
        rng = np.random.default_rng(seed)
        profile = rng.uniform(0.0, 20.0, size=200)
        dt = 0.5
        s = physics.initial_state(small_params, 0.9)
        total0 = s.q_s_n + s.q_b_n
        for i in profile:
            s = physics.step(s, float(i), dt, small_params)
        drained = total0 - (s.q_s_n + s.q_b_n)
        assert drained == pytest.approx(float(profile.sum() * dt), rel=1e-6)

    def test_positive_electrode_mirrors_negative(self, small_params):
        s = physics.initial_state(small_params, 0.8)
        for _ in range(50):
            s = physics.step(s, 5.0, 1.0, small_params)
        total = s.q_s_p + s.q_b_p + s.q_s_n + s.q_b_n
        assert total == pytest.approx(small_params.q_max, rel=1e-9)


class TestSimulate:
    def test_zero_current_holds_ocv(self, small_params):
        sim = physics.simulate(np.zeros(100), 1.0, small_params, initial_soc=0.6)
        v0 = physics.terminal_voltage(
            physics.initial_state(small_params, 0.6), small_params)
        assert np.allclose(sim.voltage, v0, atol=1e-9)
        assert np.allclose(sim.soc, 0.6, atol=1e-12)

    def test_soc_strictly_decreasing_under_load(self, small_params):
        sim = physics.simulate(np.full(500, 2.0), 1.0, small_params)
        assert np.all(np.diff(sim.soc) < 0.0)

    def test_voltage_non_increasing_after_settling(self, small_params):
        sim = physics.simulate(np.full(2000, 1.5), 1.0, small_params)
        settle = int(5 * max(small_params.ohmic_tau, small_params.eta_tau))
        assert np.all(np.diff(sim.voltage[settle:]) <= 1e-12)

    def test_higher_current_reaches_cutoff_earlier(self, small_params):
        sim1 = physics.simulate(np.full(4000, 1.0), 1.0, small_params)
        sim2 = physics.simulate(np.full(4000, 2.0), 1.0, small_params)
        assert sim1.eod_index is not None and sim2.eod_index is not None
        assert sim2.eod_index < sim1.eod_index

    def test_six_cell_voltage_is_six_times_single(self, small_params):
        p6 = replace(small_params, n_cells=6)
        profile = np.full(300, 3.0)
        sim1 = physics.simulate(profile, 1.0, small_params)
        sim6 = physics.simulate(profile, 1.0, p6)
        assert np.allclose(sim6.voltage, 6.0 * sim1.voltage, rtol=0, atol=0)

    def test_empty_profile_rejected(self, small_params):
        with pytest.raises(ValueError):
            physics.simulate([], 1.0, small_params)

    def test_bad_initial_soc_rejected(self, small_params):
        with pytest.raises(ValueError):
            physics.simulate(np.ones(5), 1.0, small_params, initial_soc=0.0)

    def test_rk4_fourth_order_convergence(self, small_params):
        # constant-current profile is smooth; halving dt should shrink the
        # terminal-voltage error by ~2^4
        horizon = 32.0
        i_app = 4.0

        def final_voltage(dt):
            s = physics.initial_state(small_params, 0.9)
            for _ in range(int(round(horizon / dt))):
                s = physics.step(s, i_app, dt, small_params)
            return physics.terminal_voltage(s, small_params)

        ref = final_voltage(1.0 / 64.0)
        dts = np.array([2.0, 1.0, 0.5, 0.25])
        errs = np.array([abs(final_voltage(dt) - ref) for dt in dts])
        assert np.all(errs > 0)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.5
