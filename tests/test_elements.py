import math
import warnings

import numpy as np
import pytest

from sagnacsim import (
    CrystalSpec,
    Eom,
    FaradayRotator,
    HalfWavePlate,
    LossElement,
    Mirror,
    Pbs,
    element_matrix,
    half_wave_voltage,
    is_unitary,
    pbs_combine,
    pbs_combine_ports,
    pbs_split,
    rotation,
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
        for direction in ("forward", "backward"):
            out = element_matrix(FaradayRotator(math.pi / 4), direction) @ np.array([1, 0])
            np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_eom_at_half_wave_voltage(self):
        crystal = reference_crystal()
        m = element_matrix(Eom(crystal, axis="V"), drive_voltage=half_wave_voltage(crystal))
        np.testing.assert_allclose(m, np.diag([1.0, -1.0]), atol=1e-12)

    def test_eom_axis_h_and_residual(self):
        crystal = reference_crystal()
        eom = Eom(crystal, axis="H", residual_orthogonal_phase=0.002)
        v = 50.0
        m = element_matrix(eom, drive_voltage=v)
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

    def test_mirror_and_loss(self):
        np.testing.assert_allclose(
            element_matrix(Mirror(0.5)), np.exp(0.5j) * np.eye(2), atol=1e-15
        )
        np.testing.assert_allclose(
            element_matrix(LossElement(0.64)), 0.8 * np.eye(2), atol=1e-15
        )

    def test_pbs_has_no_matrix(self):
        with pytest.raises(ValueError, match="pbs_split"):
            element_matrix(Pbs())

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            element_matrix(Mirror(), direction="sideways")

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
                for direction in ("forward", "backward"):
                    assert is_unitary(element_matrix(el, direction, v), tol=1e-12)


class TestReciprocity:
    def test_hwp_round_trip_is_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            hwp = HalfWavePlate(rng.uniform(-math.pi, math.pi))
            round_trip = element_matrix(hwp, "forward") @ element_matrix(hwp, "backward")
            np.testing.assert_allclose(round_trip, np.eye(2), atol=1e-12)

    def test_fr_round_trip_is_double_rotation(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            theta = rng.uniform(-math.pi, math.pi)
            fr = FaradayRotator(theta)
            round_trip = element_matrix(fr, "forward") @ element_matrix(fr, "backward")
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


class TestPbs:
    def test_ideal_split_h(self):
        t, r = pbs_split(Pbs(), np.array([1.0, 0.0]))
        np.testing.assert_allclose(t, [1, 0], atol=1e-15)
        np.testing.assert_allclose(r, [0, 0], atol=1e-15)

    def test_ideal_split_45(self):
        t, r = pbs_split(Pbs(), np.array([1.0, 1.0]) / math.sqrt(2))
        assert np.sum(np.abs(t) ** 2) == pytest.approx(0.5)
        assert np.sum(np.abs(r) ** 2) == pytest.approx(0.5)

    def test_extinction_leakage_power(self):
        beta = 0.8
        t, _ = pbs_split(Pbs(extinction_t=0.1), np.array([0.6, beta]))
        assert abs(t[1]) ** 2 == pytest.approx(0.01 * beta**2, rel=1e-12)

    def test_split_conserves_power(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            pbs = Pbs(extinction_t=rng.uniform(0, 0.29), extinction_r=rng.uniform(0, 0.29))
            s = random_state(rng)
            t, r = pbs_split(pbs, s)
            assert np.sum(np.abs(t) ** 2) + np.sum(np.abs(r) ** 2) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_ideal_round_trip(self):
        rng = np.random.default_rng(32)
        pbs = Pbs()
        for _ in range(100):
            s = random_state(rng)
            np.testing.assert_allclose(pbs_combine(pbs, *pbs_split(pbs, s)), s, atol=1e-12)

    def test_extinction_round_trip_second_order(self):
        eps = 0.05
        pbs = Pbs(extinction_t=eps, extinction_r=eps)
        s = np.array([0.6, 0.8], dtype=complex)
        out = pbs_combine(pbs, *pbs_split(pbs, s))
        np.testing.assert_allclose(out, (1 - 2 * eps**2) * s, atol=1e-14)
        power_deficit = 1.0 - np.sum(np.abs(out) ** 2)
        assert power_deficit == pytest.approx(4 * eps**2, rel=0.01)

    def test_combine_conserves_power_across_ports(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            pbs = Pbs(extinction_t=rng.uniform(0, 0.29), extinction_r=rng.uniform(0, 0.29))
            x, y = random_state(rng), random_state(rng)
            b, a = pbs_combine_ports(pbs, x, y)
            total = np.sum(np.abs(b) ** 2) + np.sum(np.abs(a) ** 2)
            assert total == pytest.approx(2.0, abs=1e-12)

    def test_extinction_bounds(self):
        with pytest.raises(ValueError):
            Pbs(extinction_t=0.3)
        with pytest.raises(ValueError):
            Pbs(extinction_r=-0.01)
