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
    "pbs_combine",
    "pbs_combine_ports",
    "pbs_split",
]

_DIRECTIONS = ("forward", "backward")


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
        must be finite."""
        # A finite voltage can still overflow its phase, so the phases are
        # checked, not the voltage alone.
        with np.errstate(over="ignore", invalid="ignore"):
            driven = 1j * math.pi * voltage / half_wave_voltage(self.crystal)
            residual = 1j * self.residual_orthogonal_phase * voltage
        finite = np.isfinite(driven) & np.isfinite(residual)
        if not finite.all():
            bad = np.asarray(voltage)[~finite].ravel()[0]
            raise ValueError(f"modulator phase must be finite, got drive voltage {bad}")
        driven, residual = np.exp(driven), np.exp(residual)
        return (residual, driven) if self.axis == "V" else (driven, residual)


@dataclass(frozen=True)
class Pbs:
    """Polarizing beam splitter with unitary extinction leakage.

    extinction_t: amplitude of V leaking into the transmitted port;
    extinction_r: amplitude of H leaking into the reflected port. Leakage is
    modeled as a rotation by asin(eps) between the port subspaces, so power
    bookkeeping stays exact and loss is left to LossElement.
    """

    extinction_t: float = 0.0
    extinction_r: float = 0.0

    def __post_init__(self):
        for name in ("extinction_t", "extinction_r"):
            eps = getattr(self, name)
            if not (0.0 <= eps < 0.3):
                raise ValueError(f"Pbs.{name} must lie in [0, 0.3), got {eps}")


@dataclass(frozen=True)
class Mirror:
    """Ideal mirror contributing a common phase offset (rad)."""

    phase_offset: float = 0.0

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


def element_matrix(element, direction: str = "forward", drive_voltage: float = 0.0) -> np.ndarray:
    """Lab-frame transfer matrix of ``element`` for the given direction.

    ``drive_voltage`` only affects the Eom. Per the shared-lab-basis
    convention above, reciprocal elements return transpose(forward) for the
    backward direction (a no-op for this symmetric/diagonal catalogue) and
    the Faraday rotator returns its forward matrix unchanged.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if isinstance(element, HalfWavePlate):
        c = math.cos(2.0 * element.axis_angle)
        s = math.sin(2.0 * element.axis_angle)
        m = np.array([[c, s], [s, -c]], dtype=complex)
    elif isinstance(element, FaradayRotator):
        return rotation(element.rotation)  # same lab sense both ways
    elif isinstance(element, Eom):
        m = np.diag(element.phase_factors(drive_voltage))
    elif isinstance(element, Mirror):
        m = np.exp(1j * element.phase_offset) * np.eye(2, dtype=complex)
    elif isinstance(element, LossElement):
        m = math.sqrt(element.transmission) * np.eye(2, dtype=complex)
    elif isinstance(element, Pbs):
        raise ValueError("a Pbs has no single transfer matrix; use pbs_split / pbs_combine")
    else:
        raise TypeError(f"unknown optical element {element!r}")
    return m.T if direction == "backward" else m


def pbs_split(pbs: Pbs, s) -> tuple[np.ndarray, np.ndarray]:
    """Split a state into (transmitted, reflected) port states.

    Ideal: transmitted = (alpha, 0), reflected = (0, beta). With extinction
    the leakage amplitudes cross over unitarily, so
    |transmitted|^2 + |reflected|^2 = |s|^2 exactly.
    """
    s = np.asarray(s, dtype=complex)
    ct = math.sqrt(1.0 - pbs.extinction_t**2)
    cr = math.sqrt(1.0 - pbs.extinction_r**2)
    transmitted = np.array([cr * s[0], pbs.extinction_t * s[1]])
    reflected = np.array([pbs.extinction_r * s[0], ct * s[1]])
    return transmitted, reflected


def pbs_combine_ports(pbs: Pbs, from_transmit_arm, from_reflect_arm) -> tuple[np.ndarray, np.ndarray]:
    """Recombine returning arm states into (exit port, input-side port).

    The beam that left through the transmitted port re-enters on the
    reflected side and vice versa, as in a loop. Each polarization subspace
    passes the same extinction rotation a second time, so an immediate
    split/combine round trip deviates from the identity at second order in
    the extinction amplitudes while conserving total power exactly.
    """
    x = np.asarray(from_transmit_arm, dtype=complex)
    y = np.asarray(from_reflect_arm, dtype=complex)
    st, sr = pbs.extinction_t, pbs.extinction_r
    ct = math.sqrt(1.0 - st**2)
    cr = math.sqrt(1.0 - sr**2)
    port_b = np.array([cr * x[0] - sr * y[0], ct * y[1] - st * x[1]])
    port_a = np.array([sr * x[0] + cr * y[0], st * y[1] + ct * x[1]])
    return port_b, port_a


def pbs_combine(pbs: Pbs, from_transmit_arm, from_reflect_arm) -> np.ndarray:
    """Exit-port state of ``pbs_combine_ports``; exact inverse of
    ``pbs_split`` for the ideal element."""
    return pbs_combine_ports(pbs, from_transmit_arm, from_reflect_arm)[0]
