import decimal
import math
import warnings
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

from conftest import ode_oracle


def reference_circuit(mosfet_on_r=25.0, gate_rise_time=400e-12, supply=96.476):
    return DriveCircuit(
        supply_voltage=supply,
        recharge_r=20e3,
        total_c=50e-12,
        mosfet_on_r=mosfet_on_r,
        gate_rise_time=gate_rise_time,
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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((96.476, 20e3, 50e-12, 25.0, 1e-300), r"gate_rise_time = \S+ s is too"),
            ((96.476, 20e3, 50e-12, 25.0, 1e-320), r"gate_rise_time = \S+ s is too"),
            ((1.0, 1e302, 1e4, 1e299, 1e10), r"gate_rise_time = \S+ s is too"),
            ((1.0, 1e302, 1e10, 1e290, 1e-290), r"time constants recharge_r \* total_c"),
            ((1.0, 1e-130, 1e100, 1e-200, 1.0), r"time constants recharge_r \* total_c"),
        ],
        ids=["1e-300", "1e-320", "1e10", "tau_overflow", "tau_underflow"],
    )
    def test_overflowing_ramp_rate_rejected(self, args, message):
        # 1 / (2 C R_on t_rise) overflows at 1e-300, divides by an underflowed
        # 0 at 1e-320, and is 1 / inf = 0 when the product overflows. With a
        # finite ramp rate, R * C can still overflow, and R_on * R underflow
        # to a discharge time constant of 0.
        with pytest.raises(ValueError, match=message):
            DriveCircuit(*args)

    def test_overflowing_on_state_voltage_rejected(self):
        # supply * R_on overflows although the divider voltage itself would not.
        with pytest.raises(ValueError, match="on-state voltage"):
            reference_circuit(supply=1.5e308)

    def test_short_finite_ramp_rate_runs_without_warnings(self):
        c = reference_circuit(gate_rise_time=1e-290)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = simulate(c, GateSchedule((1e-9,), 10e-9), 5e-9, 1e-11, v_start=c.supply_voltage)
        assert w.samples[-1] < 0.1 * c.supply_voltage


class TestGateSchedule:
    def test_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            GateSchedule((1e-6, 1e-6), 1e-7)

    def test_no_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            GateSchedule((0.0, 0.5e-6), 1e-6)

    def test_periodic_builder(self):
        g = GateSchedule.periodic(100e3, 3, 1e-6)
        np.testing.assert_allclose(g.on_times, (0.0, 10e-6, 20e-6), rtol=1e-12)

    def test_needs_an_on_time(self):
        with pytest.raises(ValueError, match="at least one on time"):
            GateSchedule((), 1e-6)

    @pytest.mark.parametrize("hold", [0.0, -1e-9, math.nan])
    def test_hold_duration_must_be_positive(self, hold):
        with pytest.raises(ValueError, match="hold duration must be positive"):
            GateSchedule((1e-9,), hold)

    def test_nan_on_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GateSchedule((math.nan,), 1e-6)

    def test_infinite_on_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GateSchedule((math.inf,), 1e-6)

    def test_periodic_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="repetition rate"):
            GateSchedule.periodic(0.0, 3, 1e-6)

    @pytest.mark.parametrize(
        "count",
        [2.5, 3.0, True, np.True_, np.float64(3.0), "3", None],
        ids=["2.5", "3.0", "True", "np.True_", "np.float64", "str", "None"],
    )
    def test_periodic_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="pulse count must be an integer"):
            GateSchedule.periodic(1e5, count, 1e-6)

    @pytest.mark.parametrize(
        "count", [np.int64(3), np.int32(3), np.uint8(3)], ids=["int64", "int32", "uint8"]
    )
    def test_periodic_numpy_integer_count_accepted(self, count):
        assert GateSchedule.periodic(1e5, count, 1e-6) == GateSchedule.periodic(1e5, 3, 1e-6)

    def test_on_time_before_zero_rejected(self):
        with pytest.raises(ValueError, match="on_times must be non-negative"):
            GateSchedule((-1e-9,), 30e-9)

    def test_periodic_count_above_the_grid_cap_rejected(self):
        # Refused before the on times are built: range(count) is never walked.
        with mock.patch.object(circuit_module, "range", side_effect=AssertionError, create=True):
            with pytest.raises(ValueError, match="pulses exceed"):
                GateSchedule.periodic(1e5, circuit_module._MAX_SAMPLES + 1, 1e-6)

    def test_on_time_zero_starts_from_v_start(self):
        c = reference_circuit()
        w = simulate(c, GateSchedule((0.0,), 30e-9), 10e-9, 1e-11, v_start=c.supply_voltage)
        assert w.samples[0] == pytest.approx(c.supply_voltage, rel=1e-15)
        assert w.samples[-1] < 0.01 * c.supply_voltage


class TestSimulate:
    @pytest.mark.parametrize(
        "t_end, dt",
        [(-1.0, 1e-11), (0.0, 1e-11), (math.inf, 1e-11), (40e-9, math.nan), (40e-9, -1e-11)],
    )
    def test_grid_must_be_finite_and_positive(self, t_end, dt):
        with pytest.raises(ValueError, match="finite and positive"):
            simulate(reference_circuit(), GateSchedule((1e-9,), 1e-8), t_end, dt, v_start=0.0)

    def test_hold_must_exceed_rise_time(self):
        c = reference_circuit()
        with pytest.raises(ValueError, match="hold_duration must exceed the gate rise time"):
            simulate(c, GateSchedule((1e-9,), c.gate_rise_time), 5e-9, 1e-11, v_start=0.0)

    @pytest.mark.parametrize("fraction", [-0.02, 1.02, math.nan])
    def test_v_start_outside_range_rejected(self, fraction):
        c = reference_circuit()
        with pytest.raises(ValueError, match="v_start outside"):
            simulate(c, GateSchedule((1e-9,), 1e-8), 5e-9, 1e-11, v_start=fraction * c.supply_voltage)

    def test_dt_precondition(self):
        c = reference_circuit()
        with pytest.raises(ValueError, match="too coarse"):
            simulate(c, GateSchedule((1e-6,), 1e-7), 2e-6, 1e-9, v_start=0.0)

    def test_grid_too_large_to_allocate(self):
        # 1e10 samples (80 GB) are refused before numpy is asked for them.
        allocated = AssertionError("grid allocated")
        with mock.patch.object(np, "empty", side_effect=allocated), \
                mock.patch.object(np, "arange", side_effect=allocated):
            with pytest.raises(ValueError, match="allocate"):
                simulate(reference_circuit(), GateSchedule((1e-9,), 1e-8), 0.1, 1e-11, v_start=0.0)

    def test_grid_cap_boundary(self):
        dt = 2.0**-37  # t_end / dt below is exact
        gates = GateSchedule((1e-9,), 1e-8)
        with mock.patch.object(circuit_module, "_MAX_SAMPLES", 11):
            assert len(simulate(reference_circuit(), gates, 10 * dt, dt, v_start=0.0).samples) == 11
            with pytest.raises(ValueError, match="allocate"):
                simulate(reference_circuit(), gates, 11 * dt, dt, v_start=0.0)

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

    @pytest.mark.parametrize("rate", [0.0, -1e3, math.inf])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="repetition rate must be positive"):
            recovery_fraction(reference_circuit(), rate, 0.0)

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
        w = Waveform(tau / 100, np.exp(-t / tau))
        assert edge_time_10_90(w, falling=True) == pytest.approx(math.log(9.0) * tau, rel=0.01)

    def test_linear_ramp(self):
        n = 1001
        w = Waveform(1e-3, np.linspace(0.0, 1.0, n))
        total = (n - 1) * 1e-3
        assert edge_time_10_90(w, falling=False) == pytest.approx(0.8 * total, rel=1e-6)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(Waveform(1e-3, np.ones(100)), falling=True)

    def test_wrong_direction_rejected(self):
        w = Waveform(1e-3, np.linspace(0.0, 1.0, 100))
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(w, falling=True)

    def test_rising_exponential(self):
        tau = 2e-9
        t = np.arange(0, 20e-9, tau / 200)
        w = Waveform(tau / 200, 1.0 - np.exp(-t / tau))
        assert edge_time_10_90(w, falling=False) == pytest.approx(math.log(9.0) * tau, rel=0.01)


class TestWaveform:
    def test_dt_positive(self):
        with pytest.raises(ValueError):
            Waveform(0.0, np.zeros(4))

    @pytest.mark.parametrize("where", [0, 4, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finite_samples(self, value, where):
        samples = np.linspace(0.0, 1.0, 9)
        samples[where] = value
        with pytest.raises(ValueError, match="must be finite"):
            Waveform(1e-9, samples)

    def test_samples_are_read_only(self):
        data = np.linspace(0.0, 1.0, 5)
        w = Waveform(1e-9, data)
        with pytest.raises(ValueError, match="read-only"):
            w.samples[0] = 2.0
        assert data.flags.writeable  # the caller's array is left as it was

    def test_writing_the_callers_array_leaves_the_waveform_as_built(self):
        # The waveform keeps a copy, so its samples and their range cannot
        # drift apart when the caller reuses its array.
        data = np.zeros(100)
        w = Waveform(1e-3, data)
        data[:] = np.linspace(1.0, 0.0, 100)
        assert not w.samples.any() and w._range == (0.0, 0.0)
        with pytest.raises(ValueError, match="waveform is constant"):
            edge_time_10_90(w, falling=True)
        data = np.linspace(1.0, 0.0, 100)
        w = Waveform(1e-3, data)
        data[:] = 0.0
        assert edge_time_10_90(w, falling=True) == pytest.approx(0.8 * 99e-3, rel=1e-9)

    def test_empty_waveform_builds(self):
        assert len(Waveform(1e-9, np.array([])).samples) == 0

    def test_empty_waveform_has_no_edge(self):
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(Waveform(1e-9, np.array([])), falling=True)

    def test_times(self):
        w = Waveform(0.5, np.zeros(3))
        np.testing.assert_allclose(w.times, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("samples", [np.float64(1.0), np.zeros((3, 2))], ids=["0-D", "2-D"])
    def test_samples_not_1d_rejected(self, samples):
        # Without the check a 0-D waveform builds and its times raise
        # "len() of unsized object"; a 2-D one fails inside the edge finder.
        with pytest.raises(ValueError, match=r"samples must be 1-D, got shape \("):
            Waveform(1e-9, samples)


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
def transients(draw, samples=4000.0):
    """A driver, a gate train reaching into the window, and a grid of at most
    ``samples`` samples."""
    on_r = draw(st.floats(5.0, 150.0))
    circuit = DriveCircuit(
        supply_voltage=draw(st.floats(1.0, 200.0)),
        recharge_r=20e3,
        total_c=50e-12,
        mosfet_on_r=on_r,
        gate_rise_time=on_r * 50e-12 * draw(st.floats(0.1, 3.0)),
    )
    dt = on_r * 50e-12 / 10.0 * draw(st.floats(0.05, 0.95))
    t_end = dt * draw(st.floats(1.0, samples))
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
    assert w._range == (w.samples.min(), w.samples.max())
    fine = simulate(circuit, gates, t_end, dt / 2, v_start=v_start)
    np.testing.assert_array_equal(fine.samples[::2], w.samples)
    step = 1.01 * circuit.supply_voltage * dt / circuit.tau_discharge
    assert np.all(np.abs(np.diff(w.samples)) <= step)


def check_edge_matches_per_sample_scan(dt, samples, falling):
    w = Waveform(dt, np.array(samples))
    want = reference_edge(w, falling)
    if want is None:
        with pytest.raises(ValueError, match="no edge found"):
            edge_time_10_90(w, falling)
    else:
        assert edge_time_10_90(w, falling) == want


edge_cases = given(
    dt=st.floats(1e-12, 1.0),
    samples=traces(),
    falling=st.booleans(),
)


# Largest error of the gate off and on law, in ulps of max(|v0|, |target|),
# near the start of a segment: the law target + (v0 - target) exp(-(k dt -
# start) / tau) evaluated with one division per sample read 3.95 at most over
# 600 000 random draws.
RELAX_ULPS = 4


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
    @given(data=st.data())
    def test_simulate_grid_in_small_blocks(self, block, data):
        # simulate loops once per block, so blocks of 1 and 2 samples draw
        # grids a tenth as long; they still span hundreds of blocks.
        case = data.draw(transients(400.0 if block < 7 else 4000.0))
        with blocks_of(block):
            check_simulate_grid(case)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @edge_cases
    def test_edge_matches_per_sample_scan(self, dt, samples, falling):
        check_edge_matches_per_sample_scan(dt, samples, falling)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(case=transients())
    def test_simulate_matches_ode_oracle(self, case):
        circuit, gates, t_end, dt, v_start = case
        want = ode_oracle(circuit, gates, t_end, dt, v_start)
        got = simulate(circuit, gates, t_end, dt, v_start=v_start).samples
        assert np.max(np.abs(got - want)) <= 1e-9 * circuit.supply_voltage

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @settings(derandomize=True, deadline=None, max_examples=300)
    @edge_cases
    def test_edge_matches_per_sample_scan_in_small_blocks(self, block, dt, samples, falling):
        with blocks_of(block):
            check_edge_matches_per_sample_scan(dt, samples, falling)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        a=st.integers(0, 10**8 - 1),
        length=st.integers(1, 200),
        pad=st.integers(0, 9),
        dt=st.floats(1e-14, 1e-6),
        start_share=st.floats(0.0, 1.0),
        tau_scale=st.floats(1e-3, 1e3),
        v0=st.floats(-200.0, 200.0),
        target=st.floats(-200.0, 200.0),
    )
    def test_relax_in_place_is_bit_identical(self, a, length, pad, dt, start_share, tau_scale, v0, target):
        # A block evaluated in place, inside a larger array as in simulate,
        # gives the same bits as the out-of-place expression.
        b = a + length
        start = a * dt * start_share
        tau = tau_scale * (b * dt - start)
        want = target + (v0 - target) * np.exp((np.arange(a, b) - start / dt) * (-dt / tau))
        first = min(pad, a)
        grid = np.arange(a - first, b + pad, dtype=float)
        circuit_module._relax(target, tau, v0, grid[first : first + length], start, dt)
        assert np.array_equal(grid[first : first + length], want)
        # The neighbours of the block keep their indices.
        assert np.array_equal(grid[:first], np.arange(a - first, a))
        assert np.array_equal(grid[first + length :], np.arange(b, b + pad))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        dt=st.floats(1e-14, 1e-6),
        tau_steps=st.floats(1.0, 1e6),
        start_share=st.floats(0.0, 1.0),
        offset_share=st.floats(0.0, 3.0),
        v0=st.floats(-200.0, 200.0),
        target=st.floats(-200.0, 200.0),
    )
    def test_relax_is_within_ulps_of_the_closed_form(self, dt, tau_steps, start_share, offset_share, v0, target):
        # A segment starting within one tau of t = 0, sampled up to three tau
        # into it, stays within RELAX_ULPS ulps of max(|v0|, |target|) of
        # target + (v0 - target) exp(-(k dt - start) / tau) at 40 digits.
        tau = tau_steps * dt
        start = start_share * tau
        first = math.ceil(start / dt) + math.floor(offset_share * tau_steps)
        k = np.arange(first, first + 20, dtype=float)
        got = circuit_module._relax(target, tau, v0, k.copy(), start, dt)
        D = decimal.Decimal
        with decimal.localcontext(prec=40):
            want = [D(target) + (D(v0) - D(target)) * ((D(start) - D(int(j)) * D(dt)) / D(tau)).exp() for j in k]
            error = max(abs(D(float(g)) - w) for g, w in zip(got, want))
            assert error <= RELAX_ULPS * D(math.ulp(max(abs(v0), abs(target))))

    @pytest.mark.parametrize("block", [7, circuit_module._BLOCK])
    def test_index_fill_is_the_grid_arange(self, block):
        # With every segment's evaluator returning the indices it was given,
        # the output holds the indices each block was filled with: exactly
        # np.arange over the whole grid, across block and segment edges and a
        # partial last block.
        segments = circuit_module._segments

        def unevaluated(circuit, gates):
            return [(start, lambda v0, k, start, dt: k) for start, _ in segments(circuit, gates)]

        c = reference_circuit()
        gates = GateSchedule((2e-9, 62e-9, 122e-9), 30e-9)
        with blocks_of(block), mock.patch.object(circuit_module, "_segments", unevaluated):
            got = simulate(c, gates, 1.6e-6, 10e-12, v_start=0.0).samples
        want = np.arange(len(got), dtype=float)
        assert len(got) > circuit_module._BLOCK and len(got) % block
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_block_refused(self, value):
        # One bad sample in a middle block fails the whole simulation, though
        # the blocks after it are finite and the running range's builtin
        # min and max would drop a NaN.
        relax, calls = circuit_module._relax, []

        def poisoned(target, tau, v0, k, start, dt):
            out = relax(target, tau, v0, k, start, dt)
            calls.append(len(out))
            if len(calls) == 2:
                out[3] = value
            return out

        c = reference_circuit()
        gates = GateSchedule((2e-9,), 30e-9)
        with blocks_of(7), mock.patch.object(circuit_module, "_relax", poisoned):
            with pytest.raises(ValueError, match="must be finite"):
                simulate(c, gates, 40e-9, 10e-12, v_start=0.0)
        assert calls[:2] == [7, 7]

    def test_small_blocks_give_the_same_samples(self):
        c = reference_circuit()
        gates = GateSchedule((2e-9, 62e-9, 122e-9), 30e-9)
        want = simulate(c, gates, 200e-9, 10e-12, v_start=c.supply_voltage).samples
        assert len(want) < circuit_module._BLOCK
        with blocks_of(7):
            got = simulate(c, gates, 200e-9, 10e-12, v_start=c.supply_voltage).samples
        assert np.array_equal(got, want)
