"""Reduced-order battery discharge model.

State vector (7 components): surface and bulk charge on each electrode plus
three voltage-differential states (ohmic drop and one overpotential per
electrode). Discharge current drains the negative electrode's surface
volume and accumulates on the positive electrode; bulk<->surface diffusion
replenishes the surface at a rate proportional to the concentration gap.
The voltage states relax toward their load-dependent steady values (ohmic:
i*R; overpotentials: Butler-Volmer asinh form). Terminal voltage is the
electrode open-circuit-potential difference at the surface stoichiometry
minus the three drops, times the series cell count.

The charge dynamics conserve total charge exactly: diffusion only moves
charge between the surface and bulk volumes of one electrode, and the
applied current moves charge from the negative to the positive electrode.

This is a surrogate: it keeps the state-vector structure of detailed
electrochemistry discharge models but replaces their internal dynamics with
documented low-order stand-ins. The downstream error-correction model is
responsible for absorbing the resulting bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class UnknownChemistry(KeyError):
    """No parameter preset registered for the requested chemistry tag."""


class NonFiniteState(FloatingPointError):
    """Integration produced NaN or infinity in the state vector."""


# Default electrode OCV polynomials (degree 5, ascending coefficients, volts
# as a function of surface stoichiometry in [0,1]). Fitted once against a
# tabulated Li-ion half-cell shape by scripts/fit_ocv_defaults.py and frozen;
# the resulting cell curve is monotone increasing, 2.87 V empty, 4.20 V full.
OCV_COEFFS_P = (3.448742, 1.969633, -6.887772, 14.496577, -14.632459, 5.881515)
OCV_COEFFS_N = (0.576475, -5.50542, 24.953014, -51.086293, 47.612769, -16.479245)


@dataclass(frozen=True)
class BatteryParams:
    q_max: float                 # total mobile charge, coulombs
    surface_fraction: float      # fraction of electrode charge in the surface volume
    diffusion_rate: float        # bulk->surface replenishment rate, 1/s
    r_ohmic: float               # ohms
    ohmic_tau: float             # ohmic-drop relaxation constant, s
    eta_tau: float               # overpotential relaxation constant, s
    eta_scale_p: float           # positive-electrode overpotential scale, V
    eta_scale_n: float           # negative-electrode overpotential scale, V
    i_exchange: float            # exchange current in the asinh law, A
    ocv_coeffs_p: tuple = OCV_COEFFS_P
    ocv_coeffs_n: tuple = OCV_COEFFS_N
    v_min: float = 3.0           # per-cell EOD cutoff, V
    n_cells: int = 1

    def __post_init__(self):
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")
        if not 0.0 < self.surface_fraction < 1.0:
            raise ValueError("surface_fraction must be in (0, 1)")
        if self.ohmic_tau <= 0 or self.eta_tau <= 0:
            raise ValueError("time constants must be positive")
        if self.v_min <= 0:
            raise ValueError("v_min must be positive")
        if self.i_exchange <= 0:
            raise ValueError("i_exchange must be positive")


@dataclass
class BatteryState:
    """Charge on the electrodes (surface/bulk, positive/negative) and the
    three voltage-differential states, matching the 7-component layout."""

    q_s_p: float
    q_b_p: float
    q_s_n: float
    q_b_n: float
    v_o: float
    v_eta_p: float
    v_eta_n: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.q_s_p, self.q_b_p, self.q_s_n, self.q_b_n,
                         self.v_o, self.v_eta_p, self.v_eta_n])


@dataclass
class SimResult:
    times: np.ndarray
    voltage: np.ndarray
    soc: np.ndarray
    eod_index: Optional[int]   # first sample at or below the cutoff, if any


_PRESETS = {
    # 30 Ah Li-Po inspection-drone pack cell: 30 Ah * 3600 s/h = 108000 C.
    "lipo-30ah": dict(
        q_max=108000.0,
        surface_fraction=0.2,
        diffusion_rate=0.02,
        r_ohmic=0.003,
        ohmic_tau=1.0,
        eta_tau=5.0,
        eta_scale_p=0.04,
        eta_scale_n=0.02,
        i_exchange=10.0,
        v_min=3.0,
        n_cells=1,
    ),
}


def default_params(chemistry: str) -> BatteryParams:
    """Return the full parameter preset for a chemistry tag."""
    try:
        return BatteryParams(**_PRESETS[chemistry])
    except KeyError:
        raise UnknownChemistry(
            f"no preset {chemistry!r}; known: {sorted(_PRESETS)}") from None


def initial_state(params: BatteryParams, soc: float) -> BatteryState:
    """Equilibrium state at the given state of charge."""
    if not 0.0 < soc <= 1.0:
        raise ValueError("initial soc must be in (0, 1]")
    f = params.surface_fraction
    q = params.q_max
    return BatteryState(
        q_s_p=f * (1.0 - soc) * q,
        q_b_p=(1.0 - f) * (1.0 - soc) * q,
        q_s_n=f * soc * q,
        q_b_n=(1.0 - f) * soc * q,
        v_o=0.0, v_eta_p=0.0, v_eta_n=0.0,
    )


def _polyval(coeffs, z: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def terminal_voltage(state: BatteryState, params: BatteryParams) -> float:
    """Output equation: series cells x (OCV difference at the surface
    stoichiometry minus ohmic and overpotential drops)."""
    z = state.q_s_n / (params.surface_fraction * params.q_max)
    z = min(max(z, 0.0), 1.0)  # keep the polynomial on its fitted range
    ocv = _polyval(params.ocv_coeffs_p, z) - _polyval(params.ocv_coeffs_n, z)
    return params.n_cells * (ocv - state.v_eta_p - state.v_eta_n - state.v_o)


def _deriv(s, i_app: float, p: BatteryParams):
    q_s_p, q_b_p, q_s_n, q_b_n, v_o, v_eta_p, v_eta_n = s
    f = p.surface_fraction
    flux_p = p.diffusion_rate * (q_b_p / (1.0 - f) - q_s_p / f)
    flux_n = p.diffusion_rate * (q_b_n / (1.0 - f) - q_s_n / f)
    eta_ss = math.asinh(i_app / (2.0 * p.i_exchange))
    return (
        i_app + flux_p,
        -flux_p,
        -i_app + flux_n,
        -flux_n,
        (i_app * p.r_ohmic - v_o) / p.ohmic_tau,
        (p.eta_scale_p * eta_ss - v_eta_p) / p.eta_tau,
        (p.eta_scale_n * eta_ss - v_eta_n) / p.eta_tau,
    )


def _rk4(s, i_app: float, dt: float, p: BatteryParams):
    k1 = _deriv(s, i_app, p)
    k2 = _deriv(tuple(si + 0.5 * dt * ki for si, ki in zip(s, k1)), i_app, p)
    k3 = _deriv(tuple(si + 0.5 * dt * ki for si, ki in zip(s, k2)), i_app, p)
    k4 = _deriv(tuple(si + dt * ki for si, ki in zip(s, k3)), i_app, p)
    return tuple(si + dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
                 for si, k1i, k2i, k3i, k4i in zip(s, k1, k2, k3, k4))


def step(state: BatteryState, i_app: float, dt: float,
         params: BatteryParams) -> BatteryState:
    """Advance one fixed step with classical 4th-order Runge-Kutta.

    The applied current is held constant across the step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nxt = _rk4((state.q_s_p, state.q_b_p, state.q_s_n, state.q_b_n,
                state.v_o, state.v_eta_p, state.v_eta_n), float(i_app), dt, params)
    if not all(math.isfinite(v) for v in nxt):
        raise NonFiniteState(f"state became non-finite after step dt={dt}")
    return BatteryState(*nxt)


def simulate(current, dt: float, params: BatteryParams,
             initial_soc: float = 1.0) -> SimResult:
    """Simulate the terminal voltage for an applied-current profile.

    ``voltage[k]`` and ``soc[k]`` describe the state at time k*dt, before
    the k-th current sample is applied for one step. The simulation keeps
    running past the cutoff so downstream residual targets exist for every
    sample; the first crossing is recorded in ``eod_index``.
    """
    current = np.asarray(current, dtype=np.float64)
    if current.size == 0:
        raise ValueError("current profile must be non-empty")
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = initial_state(params, initial_soc)
    s = (st.q_s_p, st.q_b_p, st.q_s_n, st.q_b_n, st.v_o, st.v_eta_p, st.v_eta_n)

    n = current.size
    voltage = np.empty(n)
    soc = np.empty(n)
    eod_index = None
    q_max = params.q_max
    for k in range(n):
        stk = BatteryState(*s)
        v = terminal_voltage(stk, params)
        if not math.isfinite(v):
            raise NonFiniteState(f"non-finite voltage at sample {k}")
        voltage[k] = v
        soc[k] = (s[2] + s[3]) / q_max
        if eod_index is None and v <= params.v_min * params.n_cells:
            eod_index = k
        if k < n - 1:
            s = _rk4(s, float(current[k]), dt, params)
            if not all(math.isfinite(x) for x in s):
                raise NonFiniteState(f"state became non-finite at sample {k}")
    return SimResult(times=np.arange(n) * dt, voltage=voltage, soc=soc,
                     eod_index=eod_index)
