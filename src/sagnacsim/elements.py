"""Catalogue of loop optics: wave plates, Faraday rotators, the electro-optic
crystal, mirrors, scalar loss, and the polarizing beam splitter.

Direction convention. All transfer matrices are expressed in one shared lab
transverse basis (H, V), for both propagation directions through the loop.
Under this convention a reciprocal element's backward matrix is the transpose
of its forward one, which for every reciprocal element here (symmetric or
diagonal matrices) is the forward matrix itself. The Faraday rotator is the
non-reciprocal exception by physics rather than by bookkeeping: its rotation
sense is fixed in the lab, so its matrix is also identical for both
directions, and a backward-then-forward round trip composes to rot(2 theta)
instead of the identity. Direction dependence of a chain therefore enters
purely through traversal order, which is what makes the rotator / wave-plate
pair act as a direction-dependent polarization rotator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import rotation

__all__ = [
    "CrystalSpec",
    "Eom",
    "FaradayRotator",
    "HalfWavePlate",
    "LossElement",
    "Mirror",
    "Pbs",
    "element_matrix",
    "half_wave_voltage",
]

@dataclass(frozen=True)
class CrystalSpec:
    """Electro-optic crystal geometry and material constants.

    length: propagation length L in meters; thickness: electrode gap d in
    meters; wavelength in meters; n_e: extraordinary refractive index;
    r33: electro-optic coefficient in m/V. The aspect ratio L > d keeps the
    half-wave voltage low.
    """

    length: float
    thickness: float
    wavelength: float
    n_e: float
    r33: float

    def __post_init__(self):
        for name in ("length", "thickness", "wavelength", "n_e", "r33"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"CrystalSpec.{name} must be finite and positive, got {value}")
        if not self.length > self.thickness:
            raise ValueError(
                f"crystal length ({self.length}) must exceed thickness ({self.thickness})"
            )
        # Extreme but finite constants can overflow or underflow n_e**3 or
        # the products around it.
        try:
            v_half = half_wave_voltage(self)
        except ZeroDivisionError:
            v_half = math.inf
        except OverflowError:
            v_half = 0.0
        if not (math.isfinite(v_half) and v_half > 0.0):
            raise ValueError(f"crystal half-wave voltage must be finite and positive, got {v_half}")


def half_wave_voltage(crystal: CrystalSpec) -> float:
    """Voltage for a pi phase shift: lambda * d / (L * r33 * n_e^3).

    Linear in the thickness d, inverse-linear in the length L.
    """
    return (
        crystal.wavelength
        * crystal.thickness
        / (crystal.length * crystal.r33 * crystal.n_e**3)
    )


@dataclass(frozen=True)
class HalfWavePlate:
    """Reciprocal retarder reflecting polarization about its axis angle (rad)."""

    axis_angle: float

    def __post_init__(self):
        if not math.isfinite(self.axis_angle):
            raise ValueError("half-wave plate axis angle must be finite")


@dataclass(frozen=True)
class FaradayRotator:
    """Magneto-optic rotator; rotation angle (rad) keeps its lab sense for
    both propagation directions."""

    rotation: float

    def __post_init__(self):
        if not math.isfinite(self.rotation):
            raise ValueError("Faraday rotation angle must be finite")


@dataclass(frozen=True)
class Eom:
    """Electro-optic phase modulator aligned with one lab axis.

    Applies phase pi * V / V_half on ``axis`` ("H" or "V") and
    ``residual_orthogonal_phase`` * V (rad/volt, default 0) on the other
    axis. Inside the loop both beams arrive aligned with the driven axis, so
    the residual matters only for imperfection studies.
    """

    crystal: CrystalSpec
    axis: str = "V"
    residual_orthogonal_phase: float = 0.0

    def __post_init__(self):
        if self.axis not in ("H", "V"):
            raise ValueError(f"Eom axis must be 'H' or 'V', got {self.axis!r}")
        if not math.isfinite(self.residual_orthogonal_phase):
            raise ValueError("Eom residual phase rate must be finite")

    def phase_factors(self, voltage):
        """Phase factors (f_H, f_V) of the H and V axes at ``voltage``, a
        scalar or an array; every phase, pi * V / V_half and the residual,
        must be finite. A scalar gives numpy scalars with the bits of the
        same voltage in an array.

        Each factor is cos(theta) + i sin(theta) of a real phase theta, with
        the bits of numpy's complex exp(1j * k * V) for the rate k. numpy's
        complex product 1j * k * V has the imaginary part (k + 0.0) V + 0.0 k,
        so -0 becomes +0 unless k carries a minus sign, and a real part of
        +-0, for which exp returns exactly cos + i sin. The driven phase is
        (pi V + 0.0) * (1 / V_half): numpy divides a complex array by a real
        one by multiplying with the reciprocal. A residual rate of +0.0
        gives the factor 1 + 0j, which is exp(+0j)."""
        voltage = np.asarray(voltage, dtype=float)
        rate = 1j * self.residual_orthogonal_phase
        # A finite voltage can still overflow its phase, so the phases are
        # checked, not the voltage alone.
        with np.errstate(over="ignore", invalid="ignore"):
            driven = (math.pi * voltage + 0.0) * (1.0 / half_wave_voltage(self.crystal))
            residual = rate.imag * voltage + rate.real
        finite = np.isfinite(driven) & np.isfinite(residual)
        if not finite.all():
            bad = voltage[~finite].ravel()[0]
            raise ValueError(f"modulator phase must be finite, got drive voltage {bad}")
        driven = _unit_phasors(driven)
        if rate == 0 and math.copysign(1.0, rate.real) > 0.0:  # the phase is +0 everywhere
            residual = np.ones(voltage.shape, dtype=complex)[()]
        else:
            residual = _unit_phasors(residual)
        return (residual, driven) if self.axis == "V" else (driven, residual)


def _unit_phasors(phases):
    """cos + i sin of real ``phases``, written into one complex array (a
    numpy scalar for a scalar)."""
    out = np.empty(np.shape(phases), dtype=complex)
    np.cos(phases, out=out.real)
    np.sin(phases, out=out.imag)
    return out[()]


@dataclass(frozen=True)
class Pbs:
    """Polarizing beam splitter with unitary extinction leakage.

    extinction_t: amplitude of V leaking into the transmitted port;
    extinction_r: amplitude of H leaking into the reflected port. Leakage is
    modeled as a rotation by asin(eps) between the port subspaces, so power
    bookkeeping stays exact and loss is left to LossElement. The rotation
    acts as real weights (``_pbs_weights``): ``split[arm, j]`` carries input
    component j (H, V) into arm T, the transmitted (clockwise) beam, or arm
    R, the reflected one; ``combine[port, arm, j]`` carries component j of
    a returning arm into port B, the exit, or port A, the input side. Each
    subspace passes the rotation twice, so a bare split and recombination
    reaches port B scaled by 1 - 2 eps^2 and port A by 2 eps sqrt(1 - eps^2).
    """

    extinction_t: float = 0.0
    extinction_r: float = 0.0

    def __post_init__(self):
        for name in ("extinction_t", "extinction_r"):
            eps = getattr(self, name)
            if not (0.0 <= eps < 0.3):
                raise ValueError(f"Pbs.{name} must lie in [0, 0.3), got {eps}")


def _pbs_weights(pbs: Pbs) -> tuple[np.ndarray, np.ndarray]:
    """The splitter's weights (``split``, ``combine``), indexed as in the
    ``Pbs`` docstring. The beam that left through one port re-enters on
    the other side, so arm T returns on the reflected side and arm R on the
    transmitted side."""
    st, sr = pbs.extinction_t, pbs.extinction_r
    ct, cr = math.sqrt(1.0 - st**2), math.sqrt(1.0 - sr**2)
    split = np.array([[cr, st], [sr, ct]])
    combine = np.array([[[cr, -st], [-sr, ct]], [[sr, ct], [cr, st]]])
    return split, combine


@dataclass(frozen=True)
class Mirror:
    """Ideal mirror contributing a common phase offset (rad)."""

    phase_offset: float

    def __post_init__(self):
        if not math.isfinite(self.phase_offset):
            raise ValueError("mirror phase offset must be finite")


@dataclass(frozen=True)
class LossElement:
    """Polarization-independent power loss; transmission in (0, 1]."""

    transmission: float

    def __post_init__(self):
        if not (0.0 < self.transmission <= 1.0):
            raise ValueError(f"transmission must lie in (0, 1], got {self.transmission}")


def element_matrix(element) -> np.ndarray:
    """Lab-frame transfer matrix of ``element``.

    Both propagation directions share this matrix (see the convention
    above): direction enters only through traversal order. The Eom has no
    fixed matrix: its matrix at drive voltage V is diag(Eom.phase_factors(V)).
    """
    if isinstance(element, HalfWavePlate):
        c = math.cos(2.0 * element.axis_angle)
        s = math.sin(2.0 * element.axis_angle)
        return np.array([[c, s], [s, -c]], dtype=complex)
    if isinstance(element, FaradayRotator):
        return rotation(element.rotation)
    if isinstance(element, Mirror):
        return np.exp(1j * element.phase_offset) * np.eye(2, dtype=complex)
    if isinstance(element, LossElement):
        return math.sqrt(element.transmission) * np.eye(2, dtype=complex)
    if isinstance(element, Pbs):
        raise ValueError("a Pbs has no single transfer matrix; a LoopLayout splits and recombines its beams")
    if isinstance(element, Eom):
        raise ValueError("an Eom has no fixed transfer matrix; use diag(Eom.phase_factors(V))")
    raise TypeError(f"unknown optical element {element!r}")

