import math
import warnings

import numpy as np
import pytest

from sagnacsim import (
    CrystalSpec,
    Eom,
    FaradayRotator,
    HalfWavePlate,
    LoopLayout,
    LossElement,
    Mirror,
    Pbs,
    element_matrix,
    half_wave_voltage,
    rotation,
    trace_ports,
)

from conftest import random_state, reference_crystal


class TestCrystalSpec:
    def test_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            CrystalSpec(length=20e-3, thickness=-1e-3, wavelength=633e-9, n_e=2.2, r33=30e-12)
        with pytest.raises(ValueError):
            CrystalSpec(length=20e-3, thickness=1e-3, wavelength=0.0, n_e=2.2, r33=30e-12)

    def test_rejects_short_crystal(self):
        with pytest.raises(ValueError, match="length"):
            CrystalSpec(length=1e-3, thickness=2e-3, wavelength=633e-9, n_e=2.2, r33=30e-12)

    @pytest.mark.parametrize(
        "n_e, r33",
        [
            (1e-200, 30e-12),  # n_e**3 underflows to 0: V_half would be infinite
            (1e-110, 30e-12),
            (1e200, 30e-12),  # n_e**3 overflows: V_half would be 0
            (2.2, 1e-320),  # V_half overflows to inf
        ],
    )
    def test_rejects_degenerate_half_wave_voltage(self, n_e, r33):
        with pytest.raises(ValueError, match="half-wave voltage must be finite and positive"):
            CrystalSpec(length=20e-3, thickness=1e-3, wavelength=633e-9, n_e=n_e, r33=r33)


class TestHalfWaveVoltage:
    def test_reference_geometry(self):
        # lambda d / (L r33 n_e^3) with the documented literature constants,
        # evaluated by hand: 6.328e-10 / 6.559168e-12 V.
        assert half_wave_voltage(reference_crystal()) == pytest.approx(96.476, abs=1e-3)

    def test_doubling_length_halves(self):
        c = reference_crystal()
        c2 = CrystalSpec(c.length * 2, c.thickness, c.wavelength, c.n_e, c.r33)
        assert half_wave_voltage(c2) == pytest.approx(half_wave_voltage(c) / 2, rel=1e-14)

    def test_doubling_thickness_doubles(self):
        c = reference_crystal()
        c2 = CrystalSpec(c.length, c.thickness * 2, c.wavelength, c.n_e, c.r33)
        assert half_wave_voltage(c2) == pytest.approx(half_wave_voltage(c) * 2, rel=1e-14)

    def test_homogeneous_scaling(self):
        c = reference_crystal()
        k = 3.7
        ck = CrystalSpec(k * c.length, k * c.thickness, k * c.wavelength, c.n_e, c.r33)
        assert half_wave_voltage(ck) == pytest.approx(k * half_wave_voltage(c), rel=1e-14)


class TestElementMatrices:
    def test_hwp_at_zero(self):
        np.testing.assert_allclose(
            element_matrix(HalfWavePlate(0.0)), np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_fr45_same_lab_sense_both_directions(self):
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        out = element_matrix(FaradayRotator(math.pi / 4)) @ np.array([1, 0])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_eom_at_half_wave_voltage(self):
        crystal = reference_crystal()
        m = np.diag(Eom(crystal, axis="V").phase_factors(half_wave_voltage(crystal)))
        np.testing.assert_allclose(m, np.diag([1.0, -1.0]), atol=1e-12)

    def test_eom_axis_h_and_residual(self):
        crystal = reference_crystal()
        eom = Eom(crystal, axis="H", residual_orthogonal_phase=0.002)
        v = 50.0
        m = np.diag(eom.phase_factors(v))
        assert m[0, 0] == pytest.approx(np.exp(1j * math.pi * v / half_wave_voltage(crystal)))
        assert m[1, 1] == pytest.approx(np.exp(1j * 0.002 * v))

    @pytest.mark.parametrize(
        "residual, voltage",
        [
            (0.0, 1e308),  # pi * V / V_half overflows
            (0.0, -1e308),
            (1e10, 1e300),  # only the residual phase overflows
        ],
    )
    def test_eom_phase_overflow_rejected(self, residual, voltage):
        eom = Eom(reference_crystal(), residual_orthogonal_phase=residual)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (voltage, np.array([0.0, voltage])):
                with pytest.raises(ValueError, match="modulator phase must be finite"):
                    eom.phase_factors(v)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda x: HalfWavePlate(x), "axis angle must be finite"),
            (lambda x: FaradayRotator(x), "rotation angle must be finite"),
            (lambda x: Eom(reference_crystal(), residual_orthogonal_phase=x), "residual phase rate must be finite"),
            (lambda x: Mirror(x), "phase offset must be finite"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_angle_or_phase_rejected(self, build, message, value):
        with pytest.raises(ValueError, match=message):
            build(value)

    @pytest.mark.parametrize("transmission", [0.0, -0.1, 1.5, math.nan])
    def test_loss_transmission_outside_unit_interval_rejected(self, transmission):
        with pytest.raises(ValueError, match="transmission must lie in"):
            LossElement(transmission)

    def test_mirror_and_loss(self):
        np.testing.assert_allclose(
            element_matrix(Mirror(0.5)), np.exp(0.5j) * np.eye(2), atol=1e-15
        )
        np.testing.assert_allclose(
            element_matrix(LossElement(0.64)), 0.8 * np.eye(2), atol=1e-15
        )

    def test_pbs_has_no_matrix(self):
        with pytest.raises(ValueError, match="no single transfer matrix"):
            element_matrix(Pbs())

    def test_eom_has_no_fixed_matrix(self):
        with pytest.raises(ValueError, match="phase_factors"):
            element_matrix(Eom(reference_crystal()))

    def test_all_non_loss_elements_unitary(self):
        rng = np.random.default_rng(11)
        crystal = reference_crystal()
        for _ in range(300):
            elements = [
                HalfWavePlate(rng.uniform(-math.pi, math.pi)),
                FaradayRotator(rng.uniform(-math.pi, math.pi)),
                Eom(crystal, axis="V", residual_orthogonal_phase=rng.uniform(-0.1, 0.1)),
                Mirror(rng.uniform(-math.pi, math.pi)),
            ]
            v = rng.uniform(-200, 200)
            for el in elements:
                if isinstance(el, Eom):  # its matrix at v
                    m = np.diag(el.phase_factors(v))
                else:
                    m = element_matrix(el)
                assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


class TestReciprocity:
    def test_hwp_round_trip_is_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            hwp = HalfWavePlate(rng.uniform(-math.pi, math.pi))
            round_trip = element_matrix(hwp) @ element_matrix(hwp)
            np.testing.assert_allclose(round_trip, np.eye(2), atol=1e-12)

    def test_fr_round_trip_is_double_rotation(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            theta = rng.uniform(-math.pi, math.pi)
            fr = FaradayRotator(theta)
            round_trip = element_matrix(fr) @ element_matrix(fr)
            np.testing.assert_allclose(round_trip, rotation(2 * theta), atol=1e-12)

    def test_pair_direction_dependent_rotation(self):
        # Rotator then plate preserves the H and V lines (a 0 degree basis
        # rotation); plate then rotator exchanges them (90 degrees).
        fr = element_matrix(FaradayRotator(math.pi / 4))
        hwp = element_matrix(HalfWavePlate(math.pi / 8))
        fr_first = hwp @ fr
        hwp_first = fr @ hwp
        assert abs(fr_first[0, 1]) < 1e-12 and abs(fr_first[1, 0]) < 1e-12
        assert abs(fr_first[0, 0]) == pytest.approx(1.0)
        assert abs(hwp_first[0, 0]) < 1e-12 and abs(hwp_first[1, 1]) < 1e-12
        assert abs(hwp_first[0, 1]) == pytest.approx(1.0)


def split_and_recombine(pbs: Pbs, s) -> tuple[np.ndarray, np.ndarray]:
    """(port B, port A) after the splitter's split and recombination alone:
    a loop whose path holds only the modulator, at 0 V."""
    return trace_ports(LoopLayout(pbs, (Eom(reference_crystal()),)), s, 0.0)


class TestPbs:
    def test_ideal_round_trip(self):
        rng = np.random.default_rng(32)
        pbs = Pbs()
        for _ in range(100):
            s = random_state(rng)
            np.testing.assert_allclose(split_and_recombine(pbs, s)[0], s, atol=1e-12)

    def test_extinction_round_trip_second_order(self):
        eps = 0.05
        pbs = Pbs(extinction_t=eps, extinction_r=eps)
        s = np.array([0.6, 0.8], dtype=complex)
        out = split_and_recombine(pbs, s)[0]
        np.testing.assert_allclose(out, (1 - 2 * eps**2) * s, atol=1e-14)
        power_deficit = 1.0 - np.sum(np.abs(out) ** 2)
        assert power_deficit == pytest.approx(4 * eps**2, rel=0.01)

    def test_combine_conserves_power_across_ports(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            pbs = Pbs(extinction_t=rng.uniform(0, 0.29), extinction_r=rng.uniform(0, 0.29))
            b, a = split_and_recombine(pbs, random_state(rng))
            total = np.sum(np.abs(b) ** 2) + np.sum(np.abs(a) ** 2)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_first_order_leakage_reaches_port_a(self):
        # Each component's leakage amplitude, 2 eps sqrt(1 - eps^2) of it,
        # returns to port A, to the last bit.
        rng = np.random.default_rng(34)
        for _ in range(1000):
            eps_t, eps_r = rng.uniform(0, 0.29), rng.uniform(0, 0.29)
            s = random_state(rng)
            port_a = split_and_recombine(Pbs(eps_t, eps_r), s)[1]
            expected = [2 * eps_r * math.sqrt(1 - eps_r**2) * s[0],
                        2 * eps_t * math.sqrt(1 - eps_t**2) * s[1]]
            np.testing.assert_array_equal(port_a, expected)

    def test_extinction_bounds(self):
        with pytest.raises(ValueError):
            Pbs(extinction_t=0.3)
        with pytest.raises(ValueError):
            Pbs(extinction_r=-0.01)
