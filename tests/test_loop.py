import dataclasses
import gc
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagnacsim import (
    H,
    V,
    CrystalSpec,
    Eom,
    FaradayRotator,
    HalfWavePlate,
    LossElement,
    Mirror,
    Pbs,
    build_default_loop,
    device_matrix,
    half_wave_voltage,
    independence_scan,
    linear_state,
    scaled_identity_infidelity,
    trace_ports,
)
from sagnacsim import loop as loop_module
from sagnacsim.config import parse_config
from sagnacsim.loop import LoopLayout

from conftest import (
    oracle_device_matrix,
    random_imperfect_layout,
    random_state,
    reference_crystal,
)


@pytest.fixture(scope="module")
def crystal():
    return reference_crystal()


@pytest.fixture(scope="module")
def v_half(crystal):
    return half_wave_voltage(crystal)


@pytest.fixture()
def ideal(crystal):
    return build_default_loop(crystal)


class TestBuildDefaultLoop:
    def test_shape(self, ideal):
        assert len(ideal.cw_path) == 5
        assert ideal.cw_path[2] is ideal.eom

    def test_zero_faraday_angle_still_builds(self, crystal):
        layout = build_default_loop(crystal, fr_angle=0.0)
        assert len(layout.cw_path) == 5

    def test_invalid_crystal_propagates(self):
        with pytest.raises(ValueError):
            CrystalSpec(length=20e-3, thickness=0.0, wavelength=633e-9, n_e=2.2, r33=30e-12)

    def test_exactly_one_eom_required(self, crystal):
        with pytest.raises(ValueError, match="exactly one Eom"):
            LoopLayout(pbs=Pbs(), cw_path=(HalfWavePlate(0.1),))
        eom = Eom(crystal)
        with pytest.raises(ValueError, match="exactly one Eom"):
            LoopLayout(pbs=Pbs(), cw_path=(eom, eom))

    def test_crystal_is_the_modulators(self, ideal):
        assert [f.name for f in dataclasses.fields(ideal) if f.init] == ["pbs", "cw_path"]
        assert ideal.crystal is ideal.eom.crystal

    def test_unknown_rotated_beam_rejected(self, crystal):
        with pytest.raises(ValueError, match="rotated_beam"):
            build_default_loop(crystal, rotated_beam="x")


class TestCompiledLayout:
    """A layout compiles once, at construction, into read-only parts."""

    @pytest.mark.parametrize(
        "element, error, message",
        [(Pbs(), ValueError, "no single transfer matrix"), (object(), TypeError, "unknown optical element")],
    )
    def test_element_without_matrix_fails_at_construction(self, crystal, element, error, message):
        with pytest.raises(error, match=message):
            LoopLayout(Pbs(), (HalfWavePlate(0.1), element, Eom(crystal)))

    def test_compiled_parts_are_read_only(self, ideal):
        assert not ideal._parts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ideal._parts[0, 0, 0, 0] = 0.0

    def test_repeated_evaluations_make_no_element_matrix_call(self, crystal, v_half):
        counted = mock.Mock(wraps=loop_module.element_matrix)
        with mock.patch.object(loop_module, "element_matrix", counted):
            layout = build_default_loop(crystal, fr_angle=math.radians(40.0))
            assert counted.call_count == 4  # four elements, one matrix each
            counted.reset_mock()
            voltages = np.linspace(0.0, 2 * v_half, 11)
            for _ in range(3):
                device_matrix(layout, voltages)
                device_matrix(layout, v_half)
                trace_ports(layout, H, v_half)
                independence_scan(layout, voltages)
        assert counted.call_count == 0

    def test_equality_hash_and_replace_ignore_the_parts(self, crystal, ideal):
        twin = build_default_loop(crystal)
        assert twin == ideal and hash(twin) == hash(ideal)
        assert "_parts" not in repr(ideal)
        same = dataclasses.replace(ideal, pbs=Pbs())
        assert same == ideal and same._parts is not ideal._parts
        assert np.array_equal(same._parts, ideal._parts)
        degraded = dataclasses.replace(ideal, pbs=Pbs(extinction_t=0.2))
        assert degraded != ideal
        assert not np.array_equal(degraded._parts, ideal._parts)

    @pytest.mark.parametrize("port", ["B", "A"])
    def test_batch_equals_port_slice_of_trace_ports(self, v_half, port):
        # Port B is the device: its batch is trace_ports' first state bit for
        # bit. Port A has no batch; its state is the oracle's port A.
        rng = np.random.default_rng(107)
        index = "BA".index(port)
        for _ in range(10):
            layout = random_imperfect_layout(rng)
            voltages = rng.uniform(-2 * v_half, 2 * v_half, size=9)
            batch = device_matrix(layout, voltages)
            for v, m in zip(voltages, batch):
                traced = np.column_stack([trace_ports(layout, basis, v)[index] for basis in (H, V)])
                if port == "B":
                    assert np.array_equal(m, traced)
                else:
                    np.testing.assert_allclose(traced, oracle_device_matrix(layout, v, "A"), atol=1e-12)

    @pytest.mark.parametrize("voltages", [[0.0], [0.0, 50.0]])
    def test_trace_ports_refuses_more_than_one_voltage(self, ideal, voltages):
        # Two voltages would come back as (both ports at 0 V, both at 50 V),
        # labelled (port B, port A). The non-finite state shows that the
        # refusal comes before anything is evaluated.
        with pytest.raises(ValueError, match=rf"one drive voltage, got shape \({len(voltages)},\)"):
            trace_ports(ideal, [math.nan, 0.0], np.array(voltages))


class TestTrace:
    """A state traced through the loop: ``device_matrix(layout, V) @ s``."""

    def test_identity_at_zero_volts(self, ideal):
        rng = np.random.default_rng(101)
        for _ in range(50):
            s = random_state(rng)
            out = device_matrix(ideal, 0.0) @ s
            # same state up to (here: zero) global phase
            np.testing.assert_allclose(out, s, atol=1e-12)

    def test_half_wave_global_phase(self, ideal, v_half):
        s = linear_state(math.pi / 4)
        out = device_matrix(ideal, v_half) @ s
        np.testing.assert_allclose(out, np.exp(1j * math.pi) * s, atol=1e-10)

    def test_relative_phase_unchanged(self, ideal, v_half):
        s = np.array([0.6, 0.8j])
        out = device_matrix(ideal, v_half) @ s
        np.testing.assert_allclose(out[1] / out[0], s[1] / s[0], atol=1e-10)

    def test_linearity(self, ideal, v_half):
        rng = np.random.default_rng(102)
        for v in (0.0, 0.37 * v_half, v_half):
            m = device_matrix(ideal, v)
            for _ in range(20):
                s = random_state(rng)
                np.testing.assert_allclose(trace_ports(ideal, s, v)[0], m @ s, atol=1e-12)

    def test_random_states_gain_only_global_phase(self, ideal, v_half):
        rng = np.random.default_rng(106)
        for _ in range(1000):
            s = random_state(rng)
            v = rng.uniform(0.0, 2 * v_half)
            expected = np.exp(1j * math.pi * v / v_half) * s
            assert np.max(np.abs(device_matrix(ideal, v) @ s - expected)) < 1e-10

    def test_power_conserved_and_port_a_dark(self, ideal, v_half):
        rng = np.random.default_rng(103)
        for _ in range(50):
            s = random_state(rng)
            v = rng.uniform(0, 2 * v_half)
            port_b, port_a = trace_ports(ideal, s, v)
            total = np.sum(np.abs(port_b) ** 2) + np.sum(np.abs(port_a) ** 2)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert np.sum(np.abs(port_a) ** 2) < 1e-20


class TestDeviceMatrix:
    def test_zero_volts_identity(self, ideal):
        m = device_matrix(ideal, 0.0)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)

    def test_half_wave_minus_identity(self, ideal, v_half):
        np.testing.assert_allclose(device_matrix(ideal, v_half), -np.eye(2), atol=1e-10)

    def test_quarter_wave_phase(self, ideal, v_half):
        np.testing.assert_allclose(
            device_matrix(ideal, v_half / 2), 1j * np.eye(2), atol=1e-10
        )

    def test_batch_matches_pointwise(self, v_half):
        rng = np.random.default_rng(104)
        for _ in range(10):
            layout = random_imperfect_layout(rng)
            voltages = rng.uniform(-2 * v_half, 2 * v_half, size=7)
            batch = device_matrix(layout, voltages)
            for v, m in zip(voltages, batch):
                np.testing.assert_allclose(m, device_matrix(layout, v), atol=1e-13)

    def test_memory_bounded_per_voltage(self, ideal, v_half):
        # The returned stack takes 64 B per voltage and the two phase factors
        # 32 B; filling the stack column by column adds one 16 B column. The
        # 0.1 B covers the call's fixed Python objects, some 2 kB.
        voltages = np.linspace(-v_half, 3 * v_half, 10**5)
        device_matrix(ideal, voltages)
        tracemalloc.start()
        try:
            device_matrix(ideal, voltages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(voltages) <= 112.1


class TestImperfections:
    def test_faraday_error_gives_common_loss_only(self, crystal, v_half):
        # With the plates still at 22.5 deg, a rotator angle error leaks the
        # same power from both beams into port A: the device matrix stays
        # proportional to the identity at every voltage. Closed form for the
        # surviving amplitude: cos^2(2w) + e^{i phi} sin^2(2w), w = hwp + fr/2.
        layout = build_default_loop(crystal, fr_angle=math.radians(40.0))
        w2 = 2 * (math.radians(22.5) + math.radians(40.0) / 2)
        for v in (0.0, 0.5 * v_half, v_half):
            phi = math.pi * v / v_half
            expected = math.cos(w2) ** 2 + np.exp(1j * phi) * math.sin(w2) ** 2
            m = device_matrix(layout, v)
            np.testing.assert_allclose(m, expected * np.eye(2), atol=1e-12)
            assert scaled_identity_infidelity(m) < 1e-12
        _, port_a = trace_ports(layout, linear_state(0.3), v_half)
        assert np.sum(np.abs(port_a) ** 2) == pytest.approx(1 - abs(
            math.cos(w2) ** 2 - math.sin(w2) ** 2) ** 2, abs=1e-12)

    def test_joint_angle_errors_break_independence(self, crystal, v_half):
        layout = build_default_loop(
            crystal, fr_angle=math.radians(40.0), hwp_angle=math.radians(20.0)
        )
        m = device_matrix(layout, v_half)
        assert scaled_identity_infidelity(m) > 1e-5

    def test_unequal_extinction_polarization_dependent(self, crystal):
        layout = build_default_loop(crystal, pbs=Pbs(extinction_t=0.2, extinction_r=0.0))
        m = device_matrix(layout, 0.0)
        np.testing.assert_allclose(m, np.diag([1.0, 1 - 2 * 0.2**2]), atol=1e-12)
        assert scaled_identity_infidelity(m) > 1e-4


class TestIndependenceScan:
    def test_empty_list_rejected(self, ideal):
        with pytest.raises(ValueError, match="non-empty"):
            independence_scan(ideal, [])

    @pytest.mark.parametrize(
        "voltages", [5.0, [[0.0, 1.0], [2.0, 3.0]], np.zeros((2, 2, 2))], ids=["0-D", "2-D", "3-D"]
    )
    def test_voltages_not_1d_rejected(self, ideal, voltages):
        # Without the check numpy's own errors leak through ("diff requires
        # input that is at least one dimensional", "cannot reshape array").
        with pytest.raises(ValueError, match="1-D voltage list, got shape"):
            independence_scan(ideal, voltages)

    def test_columns_equal_their_rows(self, crystal, v_half):
        layout = build_default_loop(crystal, fr_angle=math.radians(40.0))
        points = independence_scan(layout, np.linspace(-v_half, 2 * v_half, 31))
        for k in (0, 15, 30):
            row = points[k]
            assert points.voltage[k] == row.voltage
            assert points.global_phase[k] == row.global_phase
            assert points.infidelity[k] == row.infidelity
            assert points.port_a_power[k] == row.port_a_power

    def test_long_scan_builds_no_object_per_voltage(self, ideal, v_half):
        # One tracked object per voltage would fill the young generation
        # about a hundred times over and start full collections.
        voltages = np.linspace(0.0, 2 * v_half, 100_001)
        gc.disable()
        try:
            before = gc.get_count()[0]
            points = independence_scan(ideal, voltages)
            grown = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert len(points) == len(voltages)
        assert grown < 1000

    def test_ideal_phase_law(self, ideal, v_half):
        voltages = np.linspace(0.0, 2 * v_half, 41)
        points = independence_scan(ideal, voltages)
        for p in points:
            expected = math.pi * p.voltage / v_half
            assert p.global_phase == pytest.approx(expected, abs=1e-9)
            assert p.infidelity < 1e-10
            assert p.port_a_power < 1e-20

    def test_three_point_example(self, ideal, v_half):
        points = independence_scan(ideal, [0.0, v_half / 2, v_half])
        phases = [p.global_phase for p in points]
        np.testing.assert_allclose(phases, [0.0, math.pi / 2, math.pi], atol=1e-10)

    def test_step_of_half_wave_voltage_rejected(self, ideal, v_half):
        # A step of V_half moves the phase by pi, so unwrapping aliases: 101
        # samples over 0..100 V_half would read a slope near 0.005 rad/V
        # instead of pi / V_half = 0.033 rad/V.
        for voltages in (np.linspace(0.0, 100 * v_half, 101), [0.0, -v_half], [v_half, 0.0]):
            with pytest.raises(ValueError, match="half-wave voltage"):
                independence_scan(ideal, voltages)
        points = independence_scan(ideal, [0.0, 0.999 * v_half, 0.5 * v_half])
        assert points[1].global_phase == pytest.approx(0.999 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("angle", ["hwp_angle", "fr_angle"])
    def test_dark_output_port_still_scans(self, crystal, v_half, angle):
        # With either angle at 0 the output port goes dark at V_half (its
        # Frobenius norm falls to about 3e-16) and all light returns to port
        # A; a law for ||M||_F^2 there cancels to 0 or below and is refused
        # as the zero matrix.
        layout = build_default_loop(crystal, **{angle: 0.0})
        points = independence_scan(layout, np.linspace(0.0, 2 * v_half, 4001))
        for name in points.dtype.names:
            assert np.all(np.isfinite(points[name])), name
        assert np.all((points.infidelity >= 0.0) & (points.infidelity <= 1.0))
        assert points.port_a_power.max() == pytest.approx(1.0, abs=1e-12)

    def test_one_phase_factor_evaluation_and_one_stack(self, crystal, v_half):
        layout = build_default_loop(crystal, fr_angle=math.radians(40.0))
        voltages = np.linspace(0.0, 2 * v_half, 11)
        factors = mock.Mock(wraps=layout.eom.phase_factors)
        stack = mock.Mock(wraps=loop_module._stack)
        law = mock.Mock(wraps=loop_module._power_law)
        with mock.patch.object(Eom, "phase_factors", lambda eom, v: factors(v)), \
                mock.patch.object(loop_module, "_stack", stack), \
                mock.patch.object(loop_module, "_power_law", law):
            independence_scan(layout, voltages)
        assert factors.call_count == 1
        # The output port's parts only: port A's power comes from its law.
        assert stack.call_count == 1 and np.shape(stack.call_args.args[1]) == (2, 2, 2)
        assert law.call_count == 1 and law.call_args.args[2] == 0.0

    def test_port_a_power_with_complex_axis_dependent_parts(self, crystal, v_half):
        # <A_H, A_V> is real for every layout the element catalogue builds, so
        # hand-built parts are needed to reach the law's imaginary cross term.
        rng = np.random.default_rng(24)
        layout = build_default_loop(crystal)
        parts = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        parts.setflags(write=False)
        object.__setattr__(layout, "_parts", parts)
        a_h, a_v = parts[:, 1]  # port A's parts
        assert abs(np.vdot(a_h, a_v).imag) >= 0.1
        voltages = np.linspace(-2 * v_half, 2 * v_half, 41)
        f_h, f_v = layout.eom.phase_factors(voltages)
        port_a = np.multiply.outer(f_h, a_h) + np.multiply.outer(f_v, a_v)
        expected = 0.5 * np.sum(np.abs(port_a) ** 2, axis=(1, 2))
        points = independence_scan(layout, voltages)
        np.testing.assert_allclose(points.port_a_power, expected, rtol=0.0, atol=1e-12)

    def test_faraday_error_infidelity_voltage_independent(self, crystal, v_half):
        layout = build_default_loop(crystal, fr_angle=math.radians(40.0))
        points = independence_scan(layout, np.linspace(0, 2 * v_half, 21))
        infidelities = [p.infidelity for p in points]
        assert max(infidelities) < 1e-10  # pure common loss, no polarization error
        assert max(p.port_a_power for p in points) > 1e-3  # but real leakage


class TestNonFiniteVoltage:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda layout, v: trace_ports(layout, linear_state(0.3), v),
            device_matrix,
            lambda layout, v: device_matrix(layout, [0.0, v, 1.0]),
            # without the check, every unwrapped phase after a NaN row is NaN too
            lambda layout, v: independence_scan(layout, [0.0, v, 1.0]),
        ],
        ids=["trace_ports", "device_matrix", "device_matrix_batch", "independence_scan"],
    )
    def test_every_entry_point_rejects(self, ideal, call, bad):
        with pytest.raises(ValueError, match="finite"):
            call(ideal, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [trace_ports])
    def test_every_entry_point_rejects_a_non_finite_state(self, ideal, call, bad):
        # Without the check it returns NaN.
        with pytest.raises(ValueError, match="state must be finite"):
            call(ideal, [bad, 0.0], 0.0)

    @pytest.mark.parametrize(
        "call", [device_matrix, independence_scan], ids=["device_matrix_batch", "independence_scan"]
    )
    def test_finite_voltage_whose_phase_overflows(self, call):
        # pi * 1e308 / V_half overflows; it must raise, not warn and return NaN.
        path = Path(__file__).resolve().parents[1] / "demos/configs/fitted.ini"
        layout = parse_config(path.read_text()).loop_layout()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="modulator phase must be finite"):
                call(layout, [1e308])


class TestEomPlacement:
    def test_sliding_past_commuting_neighbors_changes_nothing(self, crystal, v_half):
        # The midpoint position matters for beam timing, not for the static
        # matrix: moving the modulator past a mirror (which commutes with it)
        # leaves the device matrix untouched.
        eom = Eom(crystal)
        mirror = Mirror(0.7)
        hwp, fr = HalfWavePlate(math.pi / 8), FaradayRotator(math.pi / 4)
        centered = LoopLayout(Pbs(), (hwp, fr, mirror, eom, hwp, fr))
        shifted = LoopLayout(Pbs(), (hwp, fr, eom, mirror, hwp, fr))
        for v in (0.0, 0.4 * v_half, v_half):
            np.testing.assert_allclose(
                device_matrix(centered, v), device_matrix(shifted, v), atol=1e-12
            )


class TestOracleEquivalence:
    def test_ideal_layout(self, ideal, v_half):
        for v in (0.0, 0.3 * v_half, v_half, 1.7 * v_half):
            np.testing.assert_allclose(
                device_matrix(ideal, v), oracle_device_matrix(ideal, v), atol=1e-12
            )

    def test_random_imperfect_layouts(self, v_half):
        rng = np.random.default_rng(105)
        for _ in range(25):
            layout = random_imperfect_layout(rng)
            v = rng.uniform(-2 * v_half, 2 * v_half)
            oracle = oracle_device_matrix(layout, v)
            np.testing.assert_allclose(device_matrix(layout, v), oracle, atol=1e-12)
            np.testing.assert_allclose(device_matrix(layout, [v])[0], oracle, atol=1e-12)
            # Port A, the input side, is read only as leakage.
            oracle_a = oracle_device_matrix(layout, v, "A")
            port_a = np.column_stack([trace_ports(layout, basis, v)[1] for basis in (H, V)])
            np.testing.assert_allclose(port_a, oracle_a, atol=1e-12)
            assert independence_scan(layout, [v]).port_a_power[0] == pytest.approx(
                0.5 * np.linalg.norm(oracle_a) ** 2, abs=1e-12
            )


class TestLoopProperties:
    """Invariants of generated imperfect layouts at both ports."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
    )
    def test_compiled_form_matches_oracle(self, seed, fractions):
        v_half = half_wave_voltage(reference_crystal())
        layout = random_imperfect_layout(np.random.default_rng(seed))
        voltages = np.array(fractions) * v_half
        batch = device_matrix(layout, voltages)
        # One scan per voltage: the drawn lists may step by V_half or more,
        # which a single scan rejects as aliasing.
        points = [independence_scan(layout, [v])[0] for v in voltages]
        transmission = math.prod(
            el.transmission for el in layout.cw_path if isinstance(el, LossElement)
        )
        for v, m, point in zip(voltages, batch, points):
            oracle = oracle_device_matrix(layout, v)
            np.testing.assert_allclose(m, device_matrix(layout, v), atol=1e-13)
            np.testing.assert_allclose(m, oracle, atol=1e-12)
            assert point.infidelity == pytest.approx(scaled_identity_infidelity(oracle), abs=1e-12)
            oracle_a = oracle_device_matrix(layout, v, "A")
            assert point.port_a_power == pytest.approx(
                0.5 * np.linalg.norm(oracle_a) ** 2, abs=1e-12
            )
            for basis in np.eye(2, dtype=complex):
                port_b, port_a = trace_ports(layout, basis, v)
                np.testing.assert_allclose(port_a, oracle_a @ basis, atol=1e-12)
                total = np.sum(np.abs(port_b) ** 2) + np.sum(np.abs(port_a) ** 2)
                assert total == pytest.approx(transmission, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(-2.0, 2.0),
        steps=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=11),
    )
    def test_scan_rows_match_oracle_and_one_voltage_scans(self, seed, start, steps):
        # A multi-voltage scan, each step below V_half. Every row equals the
        # oracle, and bit for bit the scan of its voltage alone: no row may
        # depend on its neighbours or on the block it falls in.
        v_half = half_wave_voltage(reference_crystal())
        layout = random_imperfect_layout(np.random.default_rng(seed))
        voltages = (start + np.cumsum([0.0, *steps])) * v_half
        points = independence_scan(layout, voltages)
        for k, v in enumerate(voltages):
            oracle = oracle_device_matrix(layout, float(v))
            oracle_a = oracle_device_matrix(layout, float(v), "A")
            assert points.infidelity[k] == pytest.approx(scaled_identity_infidelity(oracle), abs=1e-12)
            assert points.port_a_power[k] == pytest.approx(0.5 * np.linalg.norm(oracle_a) ** 2, abs=1e-12)
            alone = independence_scan(layout, [v])
            assert points.infidelity[k] == alone.infidelity[0]
            assert points.port_a_power[k] == alone.port_a_power[0]
