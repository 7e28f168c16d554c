"""The loop's column-wise grid evaluators against the plain broadcast numpy
expressions of the same quantities, bit for bit.

``Eom.phase_factors``, ``loop._stack``, ``loop._power_law`` and
``polarization._canonical_phases`` each fill contiguous columns with few
temporaries. Each must return exactly the bits of the obvious expression
written out here: a complex ``np.exp`` of the complex phase, summed
``np.multiply.outer`` products, the power law over broadcast rows, and an
``argmax`` over the tie mask. Bits are compared as unsigned integers, so a
signed zero or a last-place difference fails.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sagnacsim import CrystalSpec, Eom, half_wave_voltage
from sagnacsim import loop as loop_module
from sagnacsim import polarization as polarization_module
from sagnacsim.config import parse_config

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# Signed zeros, subnormals, the smallest normals and |V| up to 1e6.
EDGE_VOLTAGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308)
VOLTAGE = st.one_of(
    st.sampled_from(EDGE_VOLTAGES),
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),
)
RATE = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-0.05, 0.05))


@pytest.fixture(scope="module")
def fitted_layout():
    path = Path(__file__).resolve().parents[1] / "demos" / "configs" / "fitted.ini"
    return parse_config(path.read_text()).loop_layout()


def bits(a) -> np.ndarray:
    """The raw bits of a float or complex array or scalar."""
    return np.atleast_1d(np.asarray(a)).view(np.uint64)


def same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(bits(a), bits(b))


@st.composite
def modulators(draw) -> Eom:
    # Thicknesses from 10 um to 19 mm move V_half over three decades.
    thickness = draw(st.floats(1e-5, 1.9e-2))
    crystal = CrystalSpec(
        length=20e-3, thickness=thickness, wavelength=632.8e-9, n_e=2.20, r33=30.8e-12
    )
    return Eom(crystal, axis=draw(st.sampled_from("HV")), residual_orthogonal_phase=draw(RATE))


def voltage_arrays(min_dims: int):
    return hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=min_dims, max_dims=2, max_side=9), elements=VOLTAGE
    )


def broadcast_phase_factors(eom: Eom, voltages: np.ndarray):
    """(f_H, f_V) as complex exponentials of complex phases, for voltages of
    one dimension or more."""
    driven = np.exp(1j * math.pi * voltages / half_wave_voltage(eom.crystal))
    residual = np.exp(1j * eom.residual_orthogonal_phase * voltages)
    return (residual, driven) if eom.axis == "V" else (driven, residual)


class TestPhaseFactors:
    @PROPERTY
    @given(eom=modulators(), voltages=voltage_arrays(min_dims=1))
    def test_equal_complex_exp(self, eom, voltages):
        for got, want in zip(eom.phase_factors(voltages), broadcast_phase_factors(eom, voltages)):
            assert same_bits(got, want)

    @PROPERTY
    @given(eom=modulators(), voltages=st.lists(VOLTAGE, min_size=1, max_size=20))
    def test_scalar_equals_batch(self, eom, voltages):
        # A Python float gives the bits of the same voltage in an array, as a
        # numpy scalar.
        batch = eom.phase_factors(np.array(voltages))
        for i, v in enumerate(voltages):
            for got, want in zip(eom.phase_factors(v), batch):
                assert isinstance(got, np.complex128)
                assert same_bits(got, want[i])

    def test_scalar_equals_batch_on_the_fitted_scene(self, fitted_layout):
        # On the fitted crystal, Python's complex division of pi V by V_half
        # differs from numpy's multiply by the reciprocal in 1 to 7 ulp at
        # about a fifth of these voltages.
        eom = fitted_layout.eom
        voltages = np.random.default_rng(38).uniform(-300.0, 300.0, 2000)
        batch = eom.phase_factors(voltages)
        for i, v in enumerate(voltages.tolist()):
            for got, want in zip(eom.phase_factors(v), batch):
                assert same_bits(got, want[i])


class TestStack:
    @PROPERTY
    @given(
        eom=modulators(),
        voltages=voltage_arrays(min_dims=0),
        seed=st.integers(0, 2**32 - 1),
        both_ports=st.booleans(),
    )
    def test_equal_summed_outer_products(self, eom, voltages, seed, both_ports):
        rng = np.random.default_rng(seed)
        shape = (2, 2, 2, 2) if both_ports else (2, 2, 2)
        parts = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        factor_h, factor_v = eom.phase_factors(voltages)
        want = np.multiply.outer(factor_h, parts[0]) + np.multiply.outer(factor_v, parts[1])
        assert same_bits(loop_module._stack((factor_h, factor_v), parts), want)


def broadcast_power_law(coefficients, factors, floor: float) -> np.ndarray:
    """The power law over rows broadcast against 1-D factors."""
    constant, k_hv, k_h, k_v = np.asarray(coefficients, dtype=complex).reshape(-1, 4).T[..., None]
    factor_h, factor_v = factors
    hr, hi, vr, vi = factor_h.real, factor_h.imag, factor_v.real, factor_v.imag
    g_re, g_im = hr * vr + hi * vi, hr * vi - hi * vr
    out = (
        constant.real
        + (k_hv.real * g_re - k_hv.imag * g_im)
        + (k_h.real * hr - k_h.imag * hi)
        + (k_v.real * vr - k_v.imag * vi)
    )
    return np.maximum(out, floor, out=out)


class TestPowerLaw:
    @PROPERTY
    @given(
        eom=modulators(),
        voltages=st.lists(VOLTAGE, min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        floor=st.sampled_from((0.0, -math.inf, 0.25)),
    )
    def test_equal_broadcast_rows(self, eom, voltages, seed, rows, floor):
        # Each row's K_h and K_v are zero with even odds, as in the scan's
        # port-A row.
        rng = np.random.default_rng(seed)
        coefficients = rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
        coefficients[:, 0] = np.abs(coefficients[:, 0])
        coefficients[rng.random(rows) < 0.5, 2:] = 0.0
        factors = eom.phase_factors(np.array(voltages))
        got = loop_module._power_law(coefficients, factors, floor)
        assert same_bits(got, broadcast_power_law(coefficients, factors, floor))

    def test_equal_on_the_scan_row_with_zero_terms(self, fitted_layout):
        # The scan's port-A row: (power, <A_H, A_V>, 0, 0) with floor 0.
        factors = fitted_layout.eom.phase_factors(np.linspace(-200.0, 400.0, 2001))
        row = (0.5, 0.25 - 0.125j, 0.0, 0.0)
        got = loop_module._power_law(row, factors, 0.0)
        assert same_bits(got, broadcast_power_law(row, factors, 0.0))


def argmax_pivots(squared: np.ndarray) -> np.ndarray:
    """The first entry in row-major order whose squared modulus ties the
    row's largest within the pivot tolerance, as an argmax over the mask."""
    mags = squared.reshape(len(squared), 4)
    top = mags.max(axis=1)
    return np.argmax(mags >= (top * (1.0 - polarization_module._PIVOT_TIE) ** 2)[:, None], axis=1)


class TestPivot:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        tied=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_equal_argmax_over_the_tie_mask(self, seed, n, tied):
        # Entries drawn as the row's top, a hair below it inside or outside
        # the 1e-12 tolerance, or well below it.
        rng = np.random.default_rng(seed)
        top = rng.uniform(0.1, 2.0, size=(n, 1))
        offsets = rng.choice([0.0, 1e-13, 1.9e-12, 2.1e-12, 1e-11, 0.5], size=(n, 4))
        offsets[:, np.array(tied)] = rng.choice([0.0, 1e-13, 1.9e-12], size=(n, int(sum(tied))))
        squared = (top * (1.0 - offsets)).reshape(n, 2, 2)
        ms = np.sqrt(squared) * np.exp(1j * rng.uniform(-math.pi, math.pi, size=(n, 2, 2)))
        phases, pivot_index = polarization_module._canonical_phases(ms, squared)
        want = argmax_pivots(squared)
        assert np.array_equal(pivot_index, want)
        pivots = ms.reshape(n, 4)[np.arange(n), want]
        assert same_bits(phases, np.where(np.angle(pivots) == -math.pi, math.pi, np.angle(pivots)))

    def test_a_row_without_a_tie_keeps_index_0(self):
        # A NaN top ties nothing; the mask's argmax then reads entry 0.
        squared = np.array([[[1.0, np.nan], [2.0, 0.5]], [[0.5, 2.0], [2.0, 1.0]]])
        ms = squared.astype(complex)
        assert np.array_equal(polarization_module._canonical_phases(ms, squared)[1], [0, 1])
        assert np.array_equal(argmax_pivots(squared), [0, 1])
