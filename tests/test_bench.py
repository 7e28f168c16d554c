import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from sagnacsim import (
    DriveCircuit,
    Eom,
    GateSchedule,
    MeasurementRecord,
    MzSetup,
    SwitchingTrace,
    Waveform,
    build_default_loop,
    contrast_from_visibility,
    edge_time_10_90,
    fit_mosfet_on_r,
    fit_reference_imperfections,
    half_wave_voltage,
    insertion_loss,
    linear_state,
    LoopLayout,
    sweep_curve,
    switching_trace,
    table1_report,
    parse_config,
    simulate,
)
from sagnacsim import bench
from sagnacsim import circuit as circuit_module
from sagnacsim.bench import _brent

from conftest import (
    ode_oracle,
    oracle_fringe,
    random_imperfect_layout,
    random_state,
    random_unitary,
    reference_crystal,
)


@pytest.fixture(scope="module")
def crystal():
    return reference_crystal()


@pytest.fixture(scope="module")
def v_half(crystal):
    return half_wave_voltage(crystal)


@pytest.fixture(scope="module")
def ideal_setup(crystal):
    return MzSetup(loop=build_default_loop(crystal))


def diag_ref_setup(crystal, gamma, delta, background=0.0):
    return MzSetup(
        loop=build_default_loop(crystal),
        ref_arm=np.diag([1.0, np.exp(1j * delta)]),
        mode_overlap=gamma,
        background=background,
    )


class TestMzSetup:
    def test_gamma_bounds(self, crystal):
        with pytest.raises(ValueError):
            MzSetup(loop=build_default_loop(crystal), mode_overlap=1.2)

    def test_background_non_negative(self, crystal):
        with pytest.raises(ValueError):
            MzSetup(loop=build_default_loop(crystal), background=-0.1)

    def test_background_finite(self, crystal):
        with pytest.raises(ValueError, match="finite"):
            MzSetup(loop=build_default_loop(crystal), background=math.inf)

    def test_imbalance_positive(self, crystal):
        with pytest.raises(ValueError):
            MzSetup(loop=build_default_loop(crystal), arm_imbalance=0.0)

    def test_ref_arm_must_be_2x2(self, crystal):
        with pytest.raises(ValueError, match="2x2"):
            MzSetup(loop=build_default_loop(crystal), ref_arm=np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ref_arm_must_be_finite(self, crystal, bad):
        with pytest.raises(ValueError, match="ref_arm must be finite"):
            MzSetup(loop=build_default_loop(crystal), ref_arm=np.full((2, 2), bad))

    def test_setups_and_waveforms_compare_by_identity(self, ideal_setup):
        # Each holds an array, whose == is elementwise and cannot decide a
        # field-by-field comparison, so equality and hashing go by identity.
        wave = Waveform(1e-12, [0.0, 1.0])
        for item, twin in ((ideal_setup, replace(ideal_setup)), (wave, Waveform(1e-12, [0.0, 1.0]))):
            assert item == item and item != twin
            assert len({item, item, twin}) == 2
        trace = SwitchingTrace(wave, wave, 1e-9)
        assert trace == replace(trace) and hash(trace) == hash(replace(trace))


class TestMeasurementRecord:
    def test_stores_only_the_extrema_and_the_fit(self):
        assert [f.name for f in fields(MeasurementRecord)] == ["i_on", "i_off", "v_half_fit"]
        rec = MeasurementRecord(0.9, 0.1, 96.0)
        assert rec.visibility == (0.9 - 0.1) / (0.9 + 0.1)
        assert rec.contrast_ratio == 0.9 / 0.1
        assert rec.contrast_db == 10.0 * math.log10(0.9 / 0.1)

    def test_dark_minimum_gives_infinite_contrast(self):
        rec = MeasurementRecord(1.0, 0.0, 96.0)
        assert rec.visibility == 1.0
        assert rec.contrast_ratio == math.inf and rec.contrast_db == math.inf

    @pytest.mark.parametrize(
        "i_on, i_off, v_half_fit, message",
        [
            # An extrema case's id leaves out its valid fit of 96 V.
            pytest.param(i_on, i_off, 96.0, "need i_on >= i_off", id=f"{i_on}-{i_off}-need i_on >= i_off")
            for i_on, i_off in [
                (0.1, 0.9),
                (0.5, -0.1),
                (0.0, 0.0),  # visibility 0 / 0
                (math.nan, 0.1),
                (2e-12, -1e-12),  # i_off below the clamped background
                (math.inf, 0.0),  # visibility inf / inf
            ]
        ]
        + [(0.9, 0.1, fit, "need a finite v_half_fit > 0") for fit in (math.nan, math.inf, 0.0, -3.0)],
    )
    def test_invalid_extrema_rejected(self, i_on, i_off, v_half_fit, message):
        with pytest.raises(ValueError, match=message):
            MeasurementRecord(i_on, i_off, v_half_fit)


def reading(setup, state, voltage):
    """One fringe reading: the detected power of ``state`` at one drive voltage."""
    return float(bench._intensities(setup, [state], [voltage])[0, 0])


class TestMzIntensity:
    def test_bright_fringe(self, ideal_setup):
        assert reading(ideal_setup, linear_state(0.2), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_dark_fringe(self, ideal_setup, v_half):
        assert reading(ideal_setup, linear_state(0.2), v_half) == pytest.approx(0.0, abs=1e-12)

    def test_background_offset(self, crystal, v_half):
        setup = diag_ref_setup(crystal, 1.0, 0.0, background=0.25)
        assert reading(setup, linear_state(0.0), v_half) == pytest.approx(0.25, abs=1e-12)

    def test_ideal_cosine_response(self, ideal_setup, v_half):
        for frac in (0.0, 0.2, 0.5, 0.8, 1.0, 1.5):
            phi = math.pi * frac
            got = reading(ideal_setup, linear_state(1.0), frac * v_half)
            assert got == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-10)

    def test_partial_overlap_response(self, crystal, v_half):
        gamma = 0.95
        setup = diag_ref_setup(crystal, gamma, 0.0)
        for frac in (0.0, 0.3, 1.0):
            phi = math.pi * frac
            got = reading(setup, linear_state(0.0), frac * v_half)
            assert got == pytest.approx((1 + gamma * math.cos(phi)) / 2, abs=1e-10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda setup, s, v_half: sweep_curve(setup, s, 2 * v_half, 65),
            lambda setup, s, v_half: switching_trace(setup, s, *switch_parts(v_half), 12e-9, 10e-12),
        ],
        ids=["sweep_curve", "switching_trace"],
    )
    def test_non_finite_state_rejected(self, ideal_setup, v_half, call):
        # Without the check these return NaN or fail late on their NaN readings.
        with pytest.raises(ValueError, match="state must be finite"):
            call(ideal_setup, [math.nan, 0.0], v_half)

    def test_overflowing_state_power_rejected(self, ideal_setup, v_half):
        # A raw state is finite, but its power is not: the readings were NaN.
        with pytest.raises(ValueError, match="power overflows"):
            sweep_curve(ideal_setup, [1e200, 0.0], 2 * v_half, 65)
        # Finite state powers whose readings overflow: through the interference
        # sum, and through a strong reference arm. These read NaN with a warning.
        with pytest.raises(ValueError, match="power overflows"):
            sweep_curve(ideal_setup, [1e154, 0.0], 2 * v_half, 65)
        with pytest.raises(ValueError, match="power overflows"):
            sweep_curve(replace(ideal_setup, arm_imbalance=1e12), [1e150, 0.0], 2 * v_half, 65)

    def test_sweep_curve_matches_pointwise(self, ideal_setup, v_half):
        voltages, intensities = sweep_curve(ideal_setup, linear_state(0.3), 2 * v_half, 65)
        assert len(voltages) == len(intensities) == 65
        for v, i in zip(voltages[::16], intensities[::16]):
            assert i == pytest.approx(reading(ideal_setup, linear_state(0.3), v), abs=1e-12)
        # No ceiling sweeps to 2 * V_half, the same grid as the explicit one.
        default = sweep_curve(ideal_setup, linear_state(0.3), None, 65)
        np.testing.assert_array_equal(default[0], voltages)
        np.testing.assert_array_equal(default[1], intensities)


class TestFringeLawProperties:
    """The bench's closed-form fringe law against the oracle fringe, over
    generated imperfect layouts and imperfect interferometers."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(0.0, 1.0),
        background=st.floats(0.0, 2.0),
        imbalance=st.floats(0.05, 20.0),
        v_max_halves=st.floats(-3.0, 3.0),
        n=st.integers(0, 24),
    )
    def test_sweep_curve_matches_oracle(self, seed, gamma, background, imbalance, v_max_halves, n):
        rng = np.random.default_rng(seed)
        layout = random_imperfect_layout(rng)
        # A lossy reference arm that mixes H and V.
        ref_arm = rng.uniform(0.3, 1.0) * random_unitary(rng)
        setup = MzSetup(layout, ref_arm, gamma, background, imbalance)
        state = rng.uniform(0.5, 2.0) * random_state(rng)
        v_max = v_max_halves * half_wave_voltage(layout.crystal)
        voltages, intensities = sweep_curve(setup, state, v_max, n)
        assert len(intensities) == n
        np.testing.assert_allclose(intensities, oracle_fringe(setup, state, voltages), rtol=0, atol=1e-12)
        assert np.all(intensities >= background)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(0.0, 1.0),
        background=st.floats(0.0, 2.0),
        imbalance=st.floats(0.05, 20.0),
        v_max_halves=st.floats(2.0, 4.0),
        n=st.integers(64, 4001),
        angles=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
    )
    def test_table1_records_within_the_grid_bias(
        self, seed, gamma, background, imbalance, v_max_halves, n, angles
    ):
        # With no residual phase on the modulator's other axis each fringe is
        # c0 + |c1| cos(pi V / V_half + arg c1). The grid holds a sample within
        # half a step in phase of each exact extremum, which bounds the read
        # extrema, and the fitted spacing is off by at most one step.
        rng = np.random.default_rng(seed)
        layout = random_imperfect_layout(rng)
        path = tuple(
            replace(e, residual_orthogonal_phase=0.0) if isinstance(e, Eom) else e
            for e in layout.cw_path
        )
        layout = LoopLayout(layout.pbs, path)
        setup = MzSetup(layout, rng.uniform(0.3, 1.0) * random_unitary(rng), gamma, background, imbalance)
        v_half = half_wave_voltage(layout.crystal)
        v_max = v_max_halves * v_half
        step = v_max / (n - 1)
        fringes = []
        for angle in angles:
            # I(0) = c0 + Re c1, I(V_half / 2) = c0 - Im c1, I(V_half) = c0 - Re c1.
            bright, quarter, dark = oracle_fringe(setup, linear_state(angle), [0.0, v_half / 2, v_half])
            c0 = (bright + dark) / 2.0
            c1 = complex((bright - dark) / 2.0, c0 - quarter)
            assume(abs(c1) >= 1e-6 * c0)
            fringes.append((c0 - background, abs(c1)))
        records = table1_report(setup, angles, v_max, n)
        for record, (middle, amplitude) in zip(records, fringes):
            bound = amplitude * (1.0 - math.cos(math.pi * step / v_half / 2.0)) + 1e-12
            assert abs(record.i_on - (middle + amplitude)) <= bound
            assert abs(record.i_off - (middle - amplitude)) <= bound
            assert abs(record.v_half_fit - v_half) <= step

    @pytest.mark.parametrize("background", [0.0, 1e-3, 0.25])
    def test_dark_fringe_never_reads_below_background(self, crystal, v_half, background):
        # The exact law reaches the background at the ideal dark fringe.
        # Unclamped, its rounding read 5.5e-17 below a 1e-3 background at 120
        # degrees, and a negative corrected reading gives a negative contrast.
        setup = MzSetup(build_default_loop(crystal), background=background)
        for angle in np.linspace(0.0, math.pi, 7):
            intensities = sweep_curve(setup, linear_state(angle), 4 * v_half, 2001)[1]
            assert background <= intensities.min() <= background + 1e-15


class TestSweepRecords:
    """The linear sweeps of ``table1_report`` and ``sweep_curve``: their
    records, the fringe laws they read and their grid preconditions."""

    def test_ideal_record(self, ideal_setup, v_half):
        rec = table1_report(ideal_setup, [0.0], 2 * v_half, 2001)[0]
        assert rec.visibility == pytest.approx(1.0, abs=1e-9)
        step = 2 * v_half / 2000
        assert rec.v_half_fit == pytest.approx(v_half, abs=step)
        assert rec.i_on >= rec.i_off >= 0.0

    def test_gamma_sets_visibility(self, crystal, v_half):
        setup = diag_ref_setup(crystal, 0.95, 0.0)
        rec = table1_report(setup, [0.0], 2 * v_half, 4097)[0]
        assert rec.visibility == pytest.approx(0.95, abs=1e-6)

    def test_table_row_echo(self, crystal, v_half):
        rec = table1_report(diag_ref_setup(crystal, 0.961, 0.0), [0.0], 2 * v_half, 4097)[0]
        assert rec.visibility == pytest.approx(0.961, abs=1e-6)
        rec45 = table1_report(
            diag_ref_setup(crystal, 0.956, math.radians(24.0)), [math.pi / 4], 2 * v_half, 4097
        )[0]
        assert rec45.visibility == pytest.approx(0.956 * math.cos(math.radians(12.0)), abs=1e-5)

    def test_diagonal_imperfection_law(self, crystal, v_half):
        gamma, delta = 0.9, 0.7
        setup = diag_ref_setup(crystal, gamma, delta)
        rec = table1_report(setup, [math.pi / 4], 2 * v_half, 4097)[0]
        assert rec.visibility == pytest.approx(gamma * abs(math.cos(delta / 2)), abs=1e-6)
        # 0 and 90 degree inputs stay at gamma exactly
        for angle in (0.0, math.pi / 2):
            rec_b = table1_report(setup, [angle], 2 * v_half, 4097)[0]
            assert rec_b.visibility == pytest.approx(gamma, abs=1e-6)

    def test_background_invariance(self, crystal, v_half):
        bare = table1_report(diag_ref_setup(crystal, 0.9, 0.4), [0.6], 2 * v_half, 1001)[0]
        offset = table1_report(
            diag_ref_setup(crystal, 0.9, 0.4, background=0.37), [0.6], 2 * v_half, 1001
        )[0]
        assert offset.visibility == pytest.approx(bare.visibility, abs=1e-12)

    def test_visibility_bounded_by_gamma(self, crystal, v_half):
        rng = np.random.default_rng(55)
        for _ in range(50):
            gamma = rng.uniform(0.1, 1.0)
            delta = rng.uniform(-math.pi, math.pi)
            setup = diag_ref_setup(crystal, gamma, delta)
            rec = table1_report(setup, [rng.uniform(0, math.pi)], 2 * v_half, 513)[0]
            assert rec.visibility <= gamma + 1e-9

    def test_flat_fringe_rejected(self, ideal_setup, v_half):
        # With no mode overlap nothing interferes: the detected power is flat.
        with pytest.raises(ValueError, match="sweep too short"):
            table1_report(replace(ideal_setup, mode_overlap=0.0), [0.0], 2 * v_half, 1001)

    def test_range_preconditions(self, ideal_setup, v_half):
        with pytest.raises(ValueError, match="sweep range"):
            table1_report(ideal_setup, [0.0], 1.2 * v_half, 1001)
        with pytest.raises(ValueError, match="64"):
            table1_report(ideal_setup, [0.0], 2 * v_half, 32)

    @pytest.mark.parametrize("v_max", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda setup, v_max: sweep_curve(setup, linear_state(0.0), v_max, 65),
            lambda setup, v_max: table1_report(setup, v_max=v_max, n=65),
        ],
        ids=["sweep_curve", "table1_report"],
    )
    def test_non_finite_ceiling_rejected(self, ideal_setup, call, v_max):
        # np.linspace would warn and fill the grid with NaN or infinity.
        with pytest.raises(ValueError, match="v_max must be finite"):
            call(ideal_setup, v_max)

    @pytest.mark.parametrize(
        "call",
        [
            lambda setup, n: sweep_curve(setup, linear_state(0.0), None, n),
            lambda setup, n: table1_report(setup, n=n),
        ],
        ids=["sweep_curve", "table1_report"],
    )
    def test_grid_cap_boundary(self, ideal_setup, call):
        # The sweeps share the driver's grid cap; past it, no grid is allocated.
        with mock.patch.object(circuit_module, "_MAX_SAMPLES", 100):
            call(ideal_setup, 100)
            with mock.patch.object(np, "linspace", side_effect=AssertionError("grid allocated")):
                with pytest.raises(ValueError, match="allocate"):
                    call(ideal_setup, 101)

    @pytest.mark.parametrize(
        "n", [65.0, -5, True, np.True_, "65", None],
        ids=["float", "negative", "bool", "numpy_bool", "str", "None"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda setup, n: sweep_curve(setup, linear_state(0.0), None, n),
            lambda setup, n: table1_report(setup, n=n),
        ],
        ids=["sweep_curve", "table1_report"],
    )
    def test_sample_count_must_be_a_non_negative_integer(self, ideal_setup, call, n):
        # These raised numpy's TypeError or its own message, or read True as 1.
        with mock.patch.object(np, "linspace", side_effect=AssertionError("grid allocated")):
            with pytest.raises(ValueError, match="sample count n must be a non-negative integer"):
                call(ideal_setup, n)

    def test_numpy_and_zero_sample_counts_accepted(self, ideal_setup):
        voltages, intensities = sweep_curve(ideal_setup, linear_state(0.0), None, np.int64(65))
        assert len(voltages) == len(intensities) == 65
        assert table1_report(ideal_setup, n=np.int64(65)) == table1_report(ideal_setup, n=65)
        voltages, intensities = sweep_curve(ideal_setup, linear_state(0.0), None, 0)
        assert len(voltages) == len(intensities) == 0
        with pytest.raises(ValueError, match="at least 64"):
            table1_report(ideal_setup, n=0)


def loop_extrema_spacing(voltages, values):
    """The extrema spacing with each flat spot's sign carried by a loop."""
    signs = np.sign(np.diff(values))
    for i in range(1, len(signs)):
        if signs[i] == 0:
            signs[i] = signs[i - 1]
    flips = np.nonzero(signs[1:] * signs[:-1] < 0)[0] + 1
    if len(flips) >= 2:
        return float(np.median(np.diff(voltages[flips])))
    return float(abs(voltages[int(np.argmax(values))] - voltages[int(np.argmin(values))]))


class TestExtremaSpacing:
    @pytest.mark.parametrize("kind", ["ties", "plateaus", "leading_flat"])
    def test_matches_sign_carrying_loop(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(2, 61))
            if kind == "ties":
                values = rng.integers(0, 4, n).astype(float)
            else:
                levels = rng.normal(size=n)
                values = np.repeat(levels, rng.integers(1, 6, n))[:n]
            if kind == "leading_flat":
                values[: rng.integers(1, n + 1)] = values[0]
            voltages = np.cumsum(rng.uniform(0.1, 1.0, n))
            assert bench._extrema_spacing(voltages, values) == loop_extrema_spacing(voltages, values)


class TestContrast:
    def test_paper_rows(self):
        ratio, db = contrast_from_visibility(0.961)
        assert ratio == pytest.approx(50.28, abs=0.01)
        assert db == pytest.approx(17.01, abs=0.01)
        ratio, db = contrast_from_visibility(0.933)
        assert ratio == pytest.approx(28.85, abs=0.01)
        assert db == pytest.approx(14.60, abs=0.01)

    def test_zero_visibility(self):
        assert contrast_from_visibility(0.0) == (1.0, 0.0)

    def test_monotone(self):
        values = [contrast_from_visibility(v)[0] for v in np.linspace(0.0, 0.99, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_infinite_contrast_distinct(self):
        assert contrast_from_visibility(1.0) == (math.inf, math.inf)

    def test_domain(self):
        with pytest.raises(ValueError):
            contrast_from_visibility(-0.1)
        with pytest.raises(ValueError):
            contrast_from_visibility(1.5)

    def test_round_trip_with_inverse(self):
        for ratio in (1.5, 5.0, 36.7, 500.0):
            r2, _ = contrast_from_visibility((ratio - 1.0) / (ratio + 1.0))
            assert r2 == pytest.approx(ratio, rel=1e-12)


class TestInsertionLoss:
    def test_one_db(self):
        assert insertion_loss([0.794]) == pytest.approx(1.0, abs=2e-3)

    def test_lossless(self):
        assert insertion_loss([1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_lossless_reads_plus_zero(self):
        # -10 log10(1) is -0.0, which a report prints as "-0".
        assert math.copysign(1.0, insertion_loss([1.0])) == 1.0
        assert math.copysign(1.0, insertion_loss([1.0, 1.0])) == 1.0

    def test_two_coatings(self):
        assert insertion_loss([0.977, 0.977]) == pytest.approx(0.202, abs=1e-3)

    def test_additive_in_db(self):
        # The product of the second pair underflows to 0; its loss is 4000 dB.
        for a, b in [(0.9, 0.8), (1e-200, 1e-200)]:
            assert insertion_loss([a, b]) == pytest.approx(
                insertion_loss([a]) + insertion_loss([b]), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            insertion_loss([0.0])
        with pytest.raises(ValueError):
            insertion_loss([1.2])


def switch_parts(v_half, mosfet_on_r=25.0, rise=400e-12):
    circuit = DriveCircuit(
        supply_voltage=v_half,
        recharge_r=20e3,
        total_c=50e-12,
        mosfet_on_r=mosfet_on_r,
        gate_rise_time=rise,
        gate_delay=0.0,
    )
    gates = GateSchedule((2e-9,), 30e-9)
    return circuit, gates


class TestSwitchingTrace:
    def test_ideal_ratio_to_discharge_constant(self, ideal_setup, v_half):
        # For a pure exponential discharge the intensity thresholds map
        # through phi = pi e^{-t/tau}: 10-90 time = 1.3565 tau_d. A large
        # recharge resistor keeps the divider floor negligible.
        circuit = DriveCircuit(v_half, 200e3, 50e-12, 25.0, 1e-12)
        gates = GateSchedule((2e-9,), 30e-9)
        result = switching_trace(ideal_setup, linear_state(0.7), circuit, gates, 40e-9, 10e-12)
        assert result.optical_10_90 / circuit.tau_discharge == pytest.approx(1.3565, abs=0.005)

    def test_overlap_rescales_but_keeps_edge(self, crystal, v_half):
        circuit, gates = switch_parts(v_half)
        full = switching_trace(
            diag_ref_setup(crystal, 1.0, 0.0), linear_state(0.0), circuit, gates, 40e-9, 10e-12
        )
        partial = switching_trace(
            diag_ref_setup(crystal, 0.8, 0.0), linear_state(0.0), circuit, gates, 40e-9, 10e-12
        )
        assert partial.optical_10_90 == pytest.approx(full.optical_10_90, rel=1e-9)
        assert max(partial.intensity.samples) < max(full.intensity.samples)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_small_blocks_give_the_same_trace(self, crystal, v_half, block):
        setup = diag_ref_setup(crystal, 0.9, 0.4, background=0.01)
        circuit, gates = switch_parts(v_half)
        args = (setup, linear_state(0.6), circuit, gates, 12e-9, 10e-12)
        want = switching_trace(*args)
        want_table = table1_report(setup)
        with mock.patch.object(circuit_module, "_BLOCK", block):
            got = switching_trace(*args)
            got_table = table1_report(setup)
        assert np.array_equal(got.intensity.samples, want.intensity.samples)
        assert got.optical_10_90 == want.optical_10_90
        assert got_table == want_table

    def test_memory_bounded_per_sample(self, ideal_setup, v_half):
        # The returned voltage and intensity take 16 B per sample; mapping the
        # voltage block by block keeps the rest to one block's temporaries.
        circuit, gates = switch_parts(v_half)
        args = (ideal_setup, linear_state(0.0), circuit, gates, 1e-5, 10e-12)
        switching_trace(*args)
        tracemalloc.start()
        try:
            result = switching_trace(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(result.intensity.samples)
        assert n >= 10**6
        assert peak / n <= 32

    def test_simulate_memory_bounded_per_sample(self, v_half):
        # The returned voltage takes 8 B per sample; the blocks are evaluated
        # in place in it, and the waveform takes its range with no temporary.
        circuit, gates = switch_parts(v_half)
        args = (circuit, gates, 2e-5, 10e-12, 0.0)
        simulate(*args)
        tracemalloc.start()
        try:
            result = simulate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(result.samples)
        assert n >= 2 * 10**6
        assert peak / n <= 8.1

    def test_ode_oracle_gives_the_fitted_edge(self):
        # The oracle's voltage, mapped through the fitted bench, switches in
        # the 1.6 ns that the on-resistance was fitted to.
        scene = parse_config(
            (Path(__file__).parents[1] / "demos" / "configs" / "fitted.ini").read_text()
        )
        setup, state, gates, tr = scene.mz_setup(), scene.input_state(), scene.gate_schedule(), scene.trace
        r_on = fit_mosfet_on_r(setup, state, scene.drive_circuit(), gates, tr.t_end, tr.dt, 1.6e-9)
        circuit = replace(scene.drive_circuit(), mosfet_on_r=r_on)
        voltage = ode_oracle(circuit, gates, tr.t_end, tr.dt, circuit.supply_voltage)
        intensity = Waveform(tr.dt, bench._intensities(setup, [state], np.asarray(voltage))[0])
        edge = edge_time_10_90(intensity, falling=False)
        want = switching_trace(setup, state, circuit, gates, tr.t_end, tr.dt).optical_10_90
        assert edge == pytest.approx(want, abs=1e-12)
        assert edge == pytest.approx(1.6e-9, abs=1e-12)

    def test_fit_mosfet_on_r(self, ideal_setup, v_half):
        circuit, gates = switch_parts(v_half)
        fitted = fit_mosfet_on_r(
            ideal_setup, linear_state(0.0), circuit, gates, 40e-9, 10e-12, 1.6e-9
        )
        assert 15.0 < fitted < 35.0
        check = switching_trace(
            ideal_setup,
            linear_state(0.0),
            DriveCircuit(v_half, 20e3, 50e-12, fitted, 400e-12),
            gates,
            40e-9,
            10e-12,
        )
        assert check.optical_10_90 == pytest.approx(1.6e-9, abs=0.05e-9)


class TestBrent:
    @pytest.fixture(scope="class")
    def fitted_scene(self):
        text = (Path(__file__).parents[1] / "demos" / "configs" / "fitted.ini").read_text()
        cfg = parse_config(text)
        return cfg.mz_setup(), cfg.drive_circuit()

    @pytest.mark.parametrize("target", [1.2e-9, 1.6e-9, 2.5e-9, 4e-9])
    def test_fit_matches_brentq(self, fitted_scene, target, monkeypatch):
        setup, circuit = fitted_scene
        args = (setup, linear_state(0.0))
        grid = (GateSchedule((2e-9,), 30e-9), 40e-9, 10e-12)
        calls = []

        def counted(*a):
            calls.append(a[2].mosfet_on_r)
            return switching_trace(*a)

        monkeypatch.setattr(bench, "switching_trace", counted)
        fitted = fit_mosfet_on_r(*args, circuit, *grid, target)
        fit_calls = len(calls)
        root = brentq(
            lambda r: counted(*args, replace(circuit, mosfet_on_r=r), *grid).optical_10_90 - target,
            5.0, 150.0, xtol=1e-3,
        )
        assert abs(fitted - root) <= 1e-3
        assert fit_calls <= len(calls) - fit_calls

    @pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.6e-9])
    def test_bad_target_edge_rejected_before_any_trace(self, fitted_scene, target, monkeypatch):
        # A NaN target ran two full traces, then failed in _brent on NaN values.
        setup, circuit = fitted_scene
        traced = mock.Mock(wraps=switching_trace)
        monkeypatch.setattr(bench, "switching_trace", traced)
        with pytest.raises(ValueError, match="target_edge must be a finite positive time"):
            fit_mosfet_on_r(
                setup, linear_state(0.0), circuit, GateSchedule((2e-9,), 30e-9), 40e-9, 10e-12, target
            )
        assert not traced.called

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-3)

    def test_endpoint_root(self):
        assert _brent(lambda x: x - 2.0, 2.0, 5.0, 1e-3) == 2.0

    @pytest.mark.parametrize(
        "f, xtol, converges",
        [
            (lambda x: (x - 1.234) ** 5, 1e-9, True),  # flat root: interpolation steps too short
            (lambda x: math.atan(1e6 * (x - 1.234)), 1e-9, True),  # step: interpolation overshoots
            (lambda x: (x - 1.234) ** 3, 1e-12, False),  # the bracket stalls above xtol
        ],
        ids=["quintic", "arctan_step", "cubic_no_convergence"],
    )
    def test_bisection_fallbacks_match_brentq(self, f, xtol, converges):
        # These reach both bisection fallbacks and the 100-iteration refusal,
        # which the fit's smooth edge-time curve never takes.
        def run(solver):
            evaluated = []

            def counted(x):
                evaluated.append(x)
                return f(x)

            if converges:
                return solver(counted, 0.0, 10.0, xtol), evaluated
            with pytest.raises(RuntimeError, match="100 iterations"):
                solver(counted, 0.0, 10.0, xtol)
            return None, evaluated

        root, evaluated = run(_brent)
        assert (root, evaluated) == run(lambda g, a, b, t: brentq(g, a, b, xtol=t))
        if not converges:
            assert len(evaluated) == 102  # the two ends and 100 steps


class TestTable1Report:
    def test_ideal_rows(self, ideal_setup, v_half):
        records = table1_report(ideal_setup)
        assert len(records) == 3
        for rec in records:
            assert rec.visibility == pytest.approx(1.0, abs=1e-9)
            assert rec.v_half_fit == pytest.approx(records[0].v_half_fit, abs=1e-9)

    @pytest.mark.parametrize("v_max_halves, n", [(None, 2001), (2.0, 64), (3.7, 777)])
    def test_stacked_angles_equal_one_at_a_time(self, crystal, v_half, v_max_halves, n):
        v_max = None if v_max_halves is None else v_max_halves * v_half
        angles = (0.0, 0.3, math.pi / 4, math.pi / 2, 2.5)
        for setup in (
            MzSetup(loop=build_default_loop(crystal)),
            diag_ref_setup(crystal, 0.93, math.radians(24.0), background=0.02),
            MzSetup(build_default_loop(crystal, fr_angle=math.radians(41.0)), arm_imbalance=0.7),
            # A reference arm that mixes H and V: a matrix-matrix product over
            # the stacked states rounds unlike ref_arm @ s for one state.
            MzSetup(build_default_loop(crystal), ref_arm=[[0.9, 0.3j], [0.2, 0.8 * np.exp(0.4j)]]),
        ):
            sweep_max = 2.0 * v_half if v_max is None else v_max
            want = [table1_report(setup, [a], sweep_max, n)[0] for a in angles]
            assert table1_report(setup, angles, v_max, n) == want

    def test_sweep_shorter_than_one_fringe_period_refused(self, crystal, v_half):
        # At fringe phase 0.6 pi a 0..1.5 V_half sweep holds one interior
        # extremum, and the spacing fell back to the sweep's end point: the
        # fit read 0.9 V_half. One full period always holds both extrema.
        setup = MzSetup(build_default_loop(crystal), ref_arm=np.exp(0.6j * math.pi) * np.eye(2))
        for halves in (1.5, 1.75, 1.999):
            with pytest.raises(ValueError, match="need one fringe period"):
                table1_report(setup, v_max=halves * v_half)
        for rec in table1_report(setup, v_max=2.0 * v_half):
            assert rec.v_half_fit == pytest.approx(v_half, rel=1e-3)

    def test_no_angles_give_no_records(self, ideal_setup):
        assert table1_report(ideal_setup, []) == []

    def test_range_preconditions(self, ideal_setup, v_half):
        with pytest.raises(ValueError, match="sweep range"):
            table1_report(ideal_setup, v_max=1.2 * v_half)
        with pytest.raises(ValueError, match="64"):
            table1_report(ideal_setup, n=32)

    def test_memory_bounded_per_sample(self):
        # The sweep grid and the corrected readings take 32 B per sample at
        # three angles; mapping the grid block by block keeps the loop's
        # temporaries to one block.
        setup = parse_config(
            (Path(__file__).parents[1] / "demos" / "configs" / "fitted.ini").read_text()
        ).mz_setup()
        n = 10**6
        table1_report(setup, n=n)
        tracemalloc.start()
        try:
            table1_report(setup, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 100

    def test_imperfect_pattern(self, crystal):
        setup = diag_ref_setup(crystal, 0.956, math.radians(24.0))
        records = table1_report(setup)
        vis = [r.visibility for r in records]
        assert vis[1] < vis[0] and vis[1] < vis[2]
        assert vis[0] == pytest.approx(0.956, abs=1e-4)
        assert vis[2] == pytest.approx(0.956, abs=1e-4)


class TestFitReferenceImperfections:
    def test_recovers_model(self, crystal, v_half):
        gamma, delta = fit_reference_imperfections(0.961, 0.933, 0.947)
        assert gamma == pytest.approx(0.954, abs=1e-12)
        assert gamma * math.cos(delta / 2) == pytest.approx(0.933, abs=1e-12)
        setup = diag_ref_setup(crystal, gamma, delta)
        rec = table1_report(setup, [math.pi / 4], 2 * v_half, 4097)[0]
        assert rec.visibility == pytest.approx(0.933, abs=1e-5)

    def test_rejects_excess_45(self):
        with pytest.raises(ValueError, match="model"):
            fit_reference_imperfections(0.90, 0.95, 0.90)

    @pytest.mark.parametrize("vis_45", [-0.5, math.nan])
    def test_rejects_45_below_zero_or_nan(self, vis_45):
        # acos would give delta = nan, or a delta whose gamma |cos(delta / 2)|
        # does not reproduce a negative visibility.
        with pytest.raises(ValueError, match=r"45 degree visibility must lie in \[0, gamma"):
            fit_reference_imperfections(0.9, vis_45, 0.9)

    def test_rejects_zero_mode_overlap(self):
        with pytest.raises(ValueError, match="mode overlap out of range"):
            fit_reference_imperfections(0.0, 0.5, 0.0)
