"""Shared helpers: reference hardware values, random generators, an
independently coded brute-force oracle for the loop transfer matrix and the
Mach-Zehnder fringe built on it, and an ODE oracle for the driver transient."""

from __future__ import annotations

import math

import numpy as np

from sagnacsim import CrystalSpec, Eom, FaradayRotator, HalfWavePlate, LossElement, Mirror, Pbs
from sagnacsim.loop import LoopLayout


def reference_crystal() -> CrystalSpec:
    """20 mm x 1 mm lithium-niobate modulator at the HeNe line, with the
    commonly quoted constants n_e = 2.20 and r33 = 30.8 pm/V."""
    return CrystalSpec(
        length=20e-3, thickness=1e-3, wavelength=632.8e-9, n_e=2.20, r33=30.8e-12
    )


def random_state(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    return z / np.linalg.norm(z)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR with phase-fixed diagonal."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_imperfect_layout(rng: np.random.Generator) -> LoopLayout:
    """Loop with randomized angles, extinction, residual phase, and optional
    extra mirror / loss elements around the modulator."""
    crystal = reference_crystal()
    eom = Eom(
        crystal,
        axis=rng.choice(["H", "V"]),
        residual_orthogonal_phase=rng.uniform(-0.01, 0.01),
    )
    inner: list = [eom]
    if rng.random() < 0.5:
        inner.insert(0, Mirror(rng.uniform(-math.pi, math.pi)))
    if rng.random() < 0.5:
        inner.append(LossElement(rng.uniform(0.5, 1.0)))
    path = (
        HalfWavePlate(rng.uniform(-math.pi, math.pi)),
        FaradayRotator(rng.uniform(-math.pi, math.pi)),
        *inner,
        HalfWavePlate(rng.uniform(-math.pi, math.pi)),
        FaradayRotator(rng.uniform(-math.pi, math.pi)),
    )
    pbs = Pbs(extinction_t=rng.uniform(0.0, 0.29), extinction_r=rng.uniform(0.0, 0.29))
    return LoopLayout(pbs=pbs, cw_path=path)


def oracle_device_matrix(layout: LoopLayout, voltage: float, port: str = "B") -> np.ndarray:
    """Brute-force loop transfer matrix at ``port``: "B", the exit port and
    the device, or "A", the input side, where the loop leaks. Written
    independently of the package internals: its own rotation matrices, its
    own half-wave-voltage arithmetic, explicit per-component PBS leakage, and
    explicit matrix products in traversal order."""

    def rot(a: float) -> np.ndarray:
        return np.array(
            [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]], dtype=complex
        )

    def matrix_of(el) -> np.ndarray:
        if isinstance(el, HalfWavePlate):
            return rot(el.axis_angle) @ np.diag([1.0 + 0j, -1.0 + 0j]) @ rot(-el.axis_angle)
        if isinstance(el, FaradayRotator):
            return rot(el.rotation)
        if isinstance(el, Eom):
            c = el.crystal
            v_half = c.wavelength * c.thickness / (c.length * c.r33 * c.n_e**3)
            driven = complex(np.exp(1j * math.pi * voltage / v_half))
            residual = complex(np.exp(1j * el.residual_orthogonal_phase * voltage))
            return np.diag([residual, driven]) if el.axis == "V" else np.diag([driven, residual])
        if isinstance(el, Mirror):
            return complex(np.exp(1j * el.phase_offset)) * np.eye(2, dtype=complex)
        if isinstance(el, LossElement):
            return math.sqrt(el.transmission) * np.eye(2, dtype=complex)
        raise TypeError(f"oracle cannot handle {el!r}")

    cw = np.eye(2, dtype=complex)
    for el in layout.cw_path:
        cw = matrix_of(el) @ cw
    ccw = np.eye(2, dtype=complex)
    for el in reversed(layout.cw_path):
        ccw = matrix_of(el) @ ccw

    st, sr = layout.pbs.extinction_t, layout.pbs.extinction_r
    ct, cr = math.sqrt(1.0 - st * st), math.sqrt(1.0 - sr * sr)
    columns = []
    for s in (np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)):
        transmit_arm = np.array([cr * s[0], st * s[1]])
        reflect_arm = np.array([sr * s[0], ct * s[1]])
        x = cw @ transmit_arm
        y = ccw @ reflect_arm
        port_b = np.array([cr * x[0] - sr * y[0], ct * y[1] - st * x[1]])
        port_a = np.array([sr * x[0] + cr * y[0], st * y[1] + ct * x[1]])
        columns.append(port_b if port == "B" else port_a)
    return np.column_stack(columns)


def oracle_fringe(setup, state, voltages) -> np.ndarray:
    """Detected power of ``state`` at each of ``voltages`` by the bench's
    formula, written out on its own:

      I = background + 1/4 ||M s + gamma sqrt(b) R s||^2
          + 1/8 (1 - gamma^2) (||M s||^2 + b ||R s||^2)

    with M the brute-force device matrix at each voltage, R the reference
    arm, gamma the mode overlap and b the arm imbalance; every squared norm
    is an explicit sum over the two components."""
    s = np.asarray(state, dtype=complex)
    gamma, b = setup.mode_overlap, setup.arm_imbalance
    ref = np.asarray(setup.ref_arm) @ s
    readings = []
    for v in voltages:
        dev = oracle_device_matrix(setup.loop, float(v)) @ s
        coherent = sum(abs(dev[j] + gamma * math.sqrt(b) * ref[j]) ** 2 for j in range(2))
        power_dev = sum(abs(dev[j]) ** 2 for j in range(2))
        power_ref = sum(abs(ref[j]) ** 2 for j in range(2))
        incoherent = (1.0 - gamma**2) * (power_dev + b * power_ref)
        readings.append(setup.background + coherent / 4.0 + incoherent / 8.0)
    return np.array(readings)


def ode_oracle(circuit, gates, t_end: float, dt: float, v_start: float) -> np.ndarray:
    """Driver voltage at t = k * dt, k = 0 .. floor(t_end / dt), by numerical
    integration of C dV/dt = (supply - V) / R - V G(t), written independently
    of the package's closed-form segments.

    G is 0 with the gate off, ramps linearly to 1 / R_on over the rise time
    from each on time, and holds until the hold ends.
    Each piece between two switching instants is integrated on its own with
    DOP853 (rtol = atol = 1e-12), so no step straddles a kink of G.
    """
    from scipy.integrate import solve_ivp

    sup, r, c = circuit.supply_voltage, circuit.recharge_r, circuit.total_c
    r_on, rise = circuit.mosfet_on_r, circuit.gate_rise_time
    pulses = [(t, gates.hold_duration) for t in gates.on_times]
    times = np.arange(math.floor(t_end / dt) + 1) * dt
    last = max(t_end, times[-1])
    instants = {0.0, last}
    for start, hold in pulses:
        instants.update(t for t in (start, start + rise, start + hold) if 0.0 < t < last)
    breaks = sorted(instants)

    def conductance_on(a: float, b: float):
        mid = 0.5 * (a + b)
        for start, hold in pulses:
            if start <= mid < start + hold:
                if mid < start + rise:
                    return lambda t: (t - start) / (rise * r_on)
                return lambda t: 1.0 / r_on
        return lambda t: 0.0

    out = np.empty(len(times))
    v = float(v_start)
    for a, b in zip(breaks, breaks[1:]):
        g = conductance_on(a, b)
        inside = (times >= a) & (times < b)
        t_eval = np.append(times[inside], b)
        sol = solve_ivp(
            lambda t, y: ((sup - y) / r - y * g(t)) / c,
            (a, b),
            [v],
            method="DOP853",
            t_eval=t_eval,
            rtol=1e-12,
            atol=1e-12,
        )
        out[inside] = sol.y[0, :-1]
        v = float(sol.y[0, -1])
    out[times == last] = v
    return out
