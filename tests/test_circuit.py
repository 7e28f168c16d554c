import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import dawsn

from sagnacsim import (
    DriveCircuit,
    GateSchedule,
    Waveform,
    edge_time_10_90,
    recovery_fraction,
    simulate,
)
from sagnacsim import circuit as circuit_module
from sagnacsim.circuit import _dawson


def reference_circuit(mosfet_on_r=25.0, gate_rise_time=400e-12, supply=96.476):
    return DriveCircuit(
        supply_voltage=supply,
        recharge_r=20e3,
        total_c=50e-12,
        mosfet_on_r=mosfet_on_r,
        gate_rise_time=gate_rise_time,
        gate_delay=0.0,
    )


class TestDriveCircuit:
    def test_time_constants(self):
        c = reference_circuit()
        assert c.tau_recharge == pytest.approx(1e-6)
        assert c.tau_discharge == pytest.approx(25.0 * 20e3 / (25.0 + 20e3) * 50e-12)

    def test_on_resistance_ratio_enforced(self):
        with pytest.raises(ValueError, match="1%"):
            reference_circuit(mosfet_on_r=250.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            DriveCircuit(96.0, 20e3, -50e-12, 25.0, 400e-12)


class TestGateSchedule:
    def test_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            GateSchedule((1e-6, 1e-6), 1e-7)

    def test_no_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            GateSchedule((0.0, 0.5e-6), 1e-6)

    def test_periodic_builder(self):
        g = GateSchedule.periodic(100e3, 3, 1e-6, start=2e-6)
        np.testing.assert_allclose(g.on_times, (2e-6, 12e-6, 22e-6), rtol=1e-12)

    def test_nan_on_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GateSchedule((math.nan,), 1e-6)

    def test_infinite_on_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GateSchedule((math.inf,), 1e-6)

    def test_periodic_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="repetition rate"):
            GateSchedule.periodic(0.0, 3, 1e-6)


class TestSimulate:
    @pytest.mark.parametrize(
        "t_end, dt",
        [(-1.0, 1e-11), (0.0, 1e-11), (math.inf, 1e-11), (40e-9, math.nan), (40e-9, -1e-11)],
    )
    def test_grid_must_be_finite_and_positive(self, t_end, dt):
        with pytest.raises(ValueError, match="finite and positive"):
            simulate(reference_circuit(), GateSchedule((1e-9,), 1e-8), t_end, dt)

    def test_dt_precondition(self):
        c = reference_circuit()
        with pytest.raises(ValueError, match="too coarse"):
            simulate(c, GateSchedule((1e-6,), 1e-7), 2e-6, 1e-9)

    def test_grid_too_large_to_allocate(self):
        # 1e10 samples (80 GB) are refused before numpy is asked for them.
        with mock.patch.object(np, "empty", side_effect=AssertionError("grid allocated")):
            with pytest.raises(ValueError, match="allocate"):
                simulate(reference_circuit(), GateSchedule((1e-9,), 1e-8), 0.1, 1e-11)

    def test_grid_cap_boundary(self):
        dt = 2.0**-37  # t_end / dt below is exact
        gates = GateSchedule((1e-9,), 1e-8)
        with mock.patch.object(circuit_module, "_MAX_SAMPLES", 11):
            assert len(simulate(reference_circuit(), gates, 10 * dt, dt).samples) == 11
            with pytest.raises(ValueError, match="allocate"):
                simulate(reference_circuit(), gates, 11 * dt, dt)

    def test_recharge_matches_closed_form(self):
        c = reference_circuit()
        gates = GateSchedule((1.0,), 1e-6)  # gate far beyond the window
        w = simulate(c, gates, 5e-6, 1e-10, v_start=0.0)
        expected = c.supply_voltage * (1.0 - np.exp(-w.times / c.tau_recharge))
        np.testing.assert_allclose(w.samples, expected, rtol=1e-12, atol=1e-12)

    def test_five_tau_point(self):
        c = reference_circuit()
        w = simulate(c, GateSchedule((1.0,), 1e-6), 6e-6, 1e-10, v_start=0.0)
        k = int(round(5e-6 / 1e-10))
        assert w.samples[k] / c.supply_voltage == pytest.approx(1 - math.exp(-5), rel=1e-10)

    def test_discharge_matches_closed_form_for_fast_ramp(self):
        # With a negligible gate rise time the discharge is one exponential
        # toward the divider voltage with tau_d.
        c = reference_circuit(gate_rise_time=1e-12)
        gates = GateSchedule((0.0,), 40e-9)
        w = simulate(c, gates, 30e-9, 10e-12, v_start=c.supply_voltage)
        v_inf = c.on_state_voltage
        expected = v_inf + (c.supply_voltage - v_inf) * np.exp(-w.times / c.tau_discharge)
        assert np.max(np.abs(w.samples - expected)) / c.supply_voltage < 1e-3

    def test_voltage_fall_10_90(self):
        c = reference_circuit(gate_rise_time=1e-12)
        w = simulate(c, GateSchedule((2e-9,), 40e-9), 40e-9, 10e-12, v_start=c.supply_voltage)
        fall = edge_time_10_90(w, falling=True)
        assert fall == pytest.approx(math.log(9.0) * c.tau_discharge, rel=0.01)

    def test_monotone_segments(self):
        c = reference_circuit()
        gates = GateSchedule((2e-9,), 20e-9)
        w = simulate(c, gates, 60e-9, 10e-12, v_start=c.supply_voltage)
        t = w.times
        on_window = (t >= 2e-9) & (t < 2e-9 + 20e-9)
        assert np.all(np.diff(w.samples[on_window]) <= 1e-12)
        off_window = t >= 2e-9 + 20e-9 + 1e-10
        assert np.all(np.diff(w.samples[off_window]) >= -1e-12)

    def test_steady_state_periodicity(self):
        c = reference_circuit()
        rate = 200e3
        gates = GateSchedule.periodic(rate, 25, 1e-6)
        dt = 5e-11
        w = simulate(c, gates, 25 / rate, dt, v_start=c.supply_voltage)
        per = int(round(1 / rate / dt))
        a = w.samples[22 * per : 23 * per]
        b = w.samples[23 * per : 24 * per]
        assert np.max(np.abs(a - b)) < 1e-6 * c.supply_voltage

    def test_waveform_stays_in_range(self):
        c = reference_circuit()
        w = simulate(c, GateSchedule((5e-9,), 30e-9), 100e-9, 10e-12, v_start=c.supply_voltage)
        assert np.all(w.samples >= -0.01 * c.supply_voltage)
        assert np.all(w.samples <= 1.01 * c.supply_voltage)

    def test_energy_balance_during_discharge(self):
        # MOSFET dissipation over one discharge approximates the capacitor
        # energy drop; the recharge resistor contributes ~tau_d / tau_r.
        c = reference_circuit()
        gates = GateSchedule((0.0,), 40e-9)
        dt = 1e-12
        w = simulate(c, gates, 40e-9, dt, v_start=c.supply_voltage)
        t = w.times
        conductance = np.where(
            t < c.gate_rise_time,
            t / (c.gate_rise_time * c.mosfet_on_r),
            1.0 / c.mosfet_on_r,
        )
        dissipated = np.trapezoid(w.samples**2 * conductance, dx=dt)
        cap_drop = 0.5 * c.total_c * (w.samples[0] ** 2 - w.samples[-1] ** 2)
        assert dissipated == pytest.approx(cap_drop, rel=0.01)


class TestRecoveryFraction:
    def test_100khz(self):
        c = reference_circuit()
        assert recovery_fraction(c, 100e3, 0.0) == pytest.approx(1 - math.exp(-10), abs=1e-12)

    def test_slow_rate_limit(self):
        c = reference_circuit()
        assert recovery_fraction(c, 1e-3, 0.0) == pytest.approx(1.0)

    def test_ninety_percent_period(self):
        c = reference_circuit()
        hold = 1e-6
        period = math.log(10.0) * c.tau_recharge + hold
        assert recovery_fraction(c, 1.0 / period, hold) == pytest.approx(0.90, abs=1e-12)

    def test_period_must_exceed_hold(self):
        c = reference_circuit()
        with pytest.raises(ValueError, match="hold"):
            recovery_fraction(c, 1e6, 2e-6)

    def test_nan_hold_rejected(self):
        with pytest.raises(ValueError, match="hold duration"):
            recovery_fraction(reference_circuit(), 100e3, math.nan)

    def test_cross_validates_against_simulate(self):
        c = reference_circuit()
        rate, hold = 150e3, 20e-9
        gates = GateSchedule.periodic(rate, 25, hold)
        dt = 2e-11
        w = simulate(c, gates, 24.999 / rate, dt, v_start=c.supply_voltage)
        pre_pulse = w.samples[int(round(24 / rate / dt)) - 2]
        closed = recovery_fraction(c, rate, hold)
        assert pre_pulse / c.supply_voltage == pytest.approx(closed, abs=1e-3)


class TestEdgeTime:
    def test_exponential_decay(self):
        tau = 1e-9
        t = np.arange(0, 10e-9, tau / 100)
        w = Waveform(0.0, tau / 100, np.exp(-t / tau))
        assert edge_time_10_90(w, falling=True) == pytest.approx(math.log(9.0) * tau, rel=0.01)

    def test_linear_ramp(self):
        n = 1001
        w = Waveform(0.0, 1e-3, np.linspace(0.0, 1.0, n))
        total = (n - 1) * 1e-3
        assert edge_time_10_90(w, falling=False) == pytest.approx(0.8 * total, rel=1e-6)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(Waveform(0.0, 1e-3, np.ones(100)), falling=True)

    def test_wrong_direction_rejected(self):
        w = Waveform(0.0, 1e-3, np.linspace(0.0, 1.0, 100))
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(w, falling=True)

    def test_rising_exponential(self):
        tau = 2e-9
        t = np.arange(0, 20e-9, tau / 200)
        w = Waveform(0.0, tau / 200, 1.0 - np.exp(-t / tau))
        assert edge_time_10_90(w, falling=False) == pytest.approx(math.log(9.0) * tau, rel=0.01)


class TestWaveform:
    def test_dt_positive(self):
        with pytest.raises(ValueError):
            Waveform(0.0, 0.0, np.zeros(4))

    def test_finite_samples(self):
        with pytest.raises(ValueError):
            Waveform(0.0, 1e-9, np.array([0.0, np.nan]))

    def test_times(self):
        w = Waveform(1.0, 0.5, np.zeros(3))
        np.testing.assert_allclose(w.times, [1.0, 1.5, 2.0])


# Both sides of the branch boundaries at 0.2 and 10, and the extremes.
_DAWSON_GRID = np.concatenate([
    [0.0, 1e-300, 1e-12, 30.0, 1e3],
    np.nextafter([0.2, 0.2, 10.0, 10.0], [0.0, 1.0, 0.0, 20.0]),
    np.linspace(0.0, 12.0, 2401),
    np.geomspace(1e-12, 1e3, 1501),
])


class TestDawson:
    def test_matches_scipy_on_grid(self):
        x = np.concatenate([_DAWSON_GRID, -_DAWSON_GRID])
        np.testing.assert_allclose(_dawson(x), dawsn(x), rtol=1e-13, atol=0.0)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_scipy_on_finite_floats(self, x):
        np.testing.assert_allclose(_dawson([x]), dawsn([x]), rtol=1e-13, atol=0.0)


@st.composite
def transients(draw):
    """A driver, a gate train reaching into the window, and a grid of at most
    4000 samples."""
    on_r = draw(st.floats(5.0, 150.0))
    circuit = DriveCircuit(
        supply_voltage=draw(st.floats(1.0, 200.0)),
        recharge_r=20e3,
        total_c=50e-12,
        mosfet_on_r=on_r,
        gate_rise_time=on_r * 50e-12 * draw(st.floats(0.1, 3.0)),
        gate_delay=on_r * 50e-12 * draw(st.floats(0.0, 5.0)),
    )
    dt = on_r * 50e-12 / 10.0 * draw(st.floats(0.05, 0.95))
    t_end = dt * draw(st.floats(1.0, 4000.0))
    hold = circuit.gate_rise_time * draw(st.floats(1.01, 5.0))
    on_times = [t_end * draw(st.floats(0.0, 1.0))]
    for _ in range(draw(st.integers(0, 3))):
        on_times.append(on_times[-1] + hold * draw(st.floats(1.01, 3.0)))
    v_start = circuit.supply_voltage * draw(st.floats(-0.01, 1.01))
    return circuit, GateSchedule(tuple(on_times), hold), t_end, dt, v_start


@st.composite
def traces(draw):
    """2-60 samples: arbitrary floats, or values spanning 0..10 that often sit
    exactly on the 10% and 90% levels."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 5.0, 9.0, 10.0]), max_size=58))
    for extreme in (0.0, 10.0):
        values.insert(draw(st.integers(0, len(values))), extreme)
    return values


def reference_edge(w, falling):
    """Per-sample scan for the 10-90 edge; None where no edge exists."""
    v, t = list(w.samples), list(w.times)
    lo, hi = min(v), max(v)
    if hi <= lo:
        return None
    levels = [lo + 0.9 * (hi - lo), lo + 0.1 * (hi - lo)]
    if not falling:
        levels.reverse()
    k, crossings = 1, []
    for level in levels:
        while k < len(v) and not (
            v[k - 1] >= level > v[k] if falling else v[k - 1] <= level < v[k]
        ):
            k += 1
        if k == len(v):
            return None
        frac = (level - v[k - 1]) / (v[k] - v[k - 1])
        crossings.append(float(t[k - 1] + frac * (t[k] - t[k - 1])))
    return crossings[1] - crossings[0]


def check_simulate_grid(case):
    circuit, gates, t_end, dt, v_start = case
    w = simulate(circuit, gates, t_end, dt, v_start=v_start)
    assert len(w.samples) == math.floor(t_end / dt) + 1
    fine = simulate(circuit, gates, t_end, dt / 2, v_start=v_start)
    np.testing.assert_array_equal(fine.samples[::2], w.samples)
    step = 1.01 * circuit.supply_voltage * dt / circuit.tau_discharge
    assert np.all(np.abs(np.diff(w.samples)) <= step)


def check_edge_matches_per_sample_scan(t0, dt, samples, falling):
    w = Waveform(t0, dt, np.array(samples))
    want = reference_edge(w, falling)
    if want is None:
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(w, falling)
    else:
        assert edge_time_10_90(w, falling) == want


edge_cases = given(
    t0=st.floats(-1.0, 1.0),
    dt=st.floats(1e-12, 1.0),
    samples=traces(),
    falling=st.booleans(),
)


# Block sizes far below the default put segment ends, crossings and the final
# partial block on and around block edges.
SMALL_BLOCKS = [1, 2, 7]


def blocks_of(size):
    return mock.patch.object(circuit_module, "_BLOCK", size)


class TestTransientProperties:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=transients())
    def test_simulate_grid(self, case):
        check_simulate_grid(case)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=transients())
    def test_simulate_grid_in_small_blocks(self, block, case):
        with blocks_of(block):
            check_simulate_grid(case)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @edge_cases
    def test_edge_matches_per_sample_scan(self, t0, dt, samples, falling):
        check_edge_matches_per_sample_scan(t0, dt, samples, falling)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @settings(derandomize=True, deadline=None, max_examples=300)
    @edge_cases
    def test_edge_matches_per_sample_scan_in_small_blocks(self, block, t0, dt, samples, falling):
        with blocks_of(block):
            check_edge_matches_per_sample_scan(t0, dt, samples, falling)

    def test_small_blocks_give_the_same_samples(self):
        c = reference_circuit()
        gates = GateSchedule((2e-9, 62e-9, 122e-9), 30e-9)
        want = simulate(c, gates, 200e-9, 10e-12, v_start=c.supply_voltage).samples
        assert len(want) < circuit_module._BLOCK
        with blocks_of(7):
            got = simulate(c, gates, 200e-9, 10e-12, v_start=c.supply_voltage).samples
        assert np.array_equal(got, want)
