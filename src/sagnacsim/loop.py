"""Sagnac-loop topology: split at the PBS, counter-propagate, recombine.

The clockwise beam is the PBS-transmitted (H) component and traverses
``cw_path`` in list order; the counter-clockwise beam is the reflected (V)
component and traverses the same elements, with the same lab-frame
matrices, in reverse. The default layout places a half-wave plate /
Faraday rotator pair on each side of the modulator crystal, oriented so the
clockwise beam meets the wave plate first on both sides. Each such pair
exchanges the H and V lines for the wave-plate-first direction and preserves
them for the rotator-first direction, so the clockwise beam is rotated by 90
degrees twice (H at the ports, V at the crystal) while the counter-clockwise
beam stays V throughout. Both components then pick up the same modulator
phase pi * V / V_half and leave through the exit port carrying it as a pure
global phase.

Each beam crosses the modulator once, so each output port is linear in the
modulator's two axis phase factors: M_port(V) = f_H(V) P_port,H + f_V(V) P_port,V.
``_compile`` finds the four fixed 2x2 parts (modulator axes H and V, ports B
and A) by tracing both arms with the modulator replaced by each axis
projector and weighting them with the beam splitter's split and combine
weights (``elements._pbs_weights``). A layout compiles once, when it is
constructed, and holds the parts read-only; so an element without a
transfer matrix fails there, and evaluating a layout builds no element
matrix. The device is port B, the exit port: a layout stores only its
splitter and its path, and port A, the input side, is read as leakage.
``device_matrix``, the one evaluator, stacks the phase factors at voltages
of any shape with port B's parts (``_stack``); ``device_matrix_batch`` is
the same function, kept for the benchmark until ROADMAP item 1.
``trace_ports`` stacks both ports' parts at one voltage. A power read
from the loop is C0 + Re(K_hv conj(f_H) f_V + K_h f_H + K_v f_V) with fixed
coefficients; ``_power_law`` is its one evaluator, and both port A's power
in ``independence_scan`` and the bench's fringe (``bench._intensities``)
read it. ``independence_scan`` builds port B's stack and no port-A stack
(see its docstring). The state leaving port B is
``device_matrix(layout, V) @ state``.

The modulator sits at the midpoint index of the path; that placement matters
for the timing symmetry of the two beams in the physical device, not for the
static matrices computed here, and is therefore recommended but not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elements import (
    CrystalSpec,
    Eom,
    FaradayRotator,
    HalfWavePlate,
    Pbs,
    _pbs_weights,
    element_matrix,
    half_wave_voltage,
)
from .polarization import (
    _as_state,
    _canonical_phases,
    _scaled_identity_infidelities,
    _squared_moduli,
)

__all__ = [
    "LoopLayout",
    "build_default_loop",
    "device_matrix",
    "device_matrix_batch",
    "independence_scan",
    "trace_ports",
]

# The columns of an independence scan, one row per voltage.
_SCAN_FIELDS = ("voltage", "global_phase", "infidelity", "port_a_power")
# Modulator replaced by the projector onto its H, then its V axis.
_AXIS_PROJECTORS = (np.diag([1.0 + 0.0j, 0.0j]), np.diag([0.0j, 1.0 + 0.0j]))


@dataclass(frozen=True)
class LoopLayout:
    """One shared element list read in both directions.

    A layout stores its splitter ``pbs`` and its path ``cw_path``, as seen by
    the clockwise beam; the counter-clockwise beam reads it in reverse, with
    the same element matrices. The layout's ``crystal`` is its one
    modulator's. The compiled parts are not a field of equality, hashing or
    ``dataclasses.replace``: a replaced layout compiles anew.
    """

    pbs: Pbs
    cw_path: tuple
    _parts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cw_path", tuple(self.cw_path))
        eoms = [e for e in self.cw_path if isinstance(e, Eom)]
        if len(eoms) != 1:
            raise ValueError(f"cw_path must contain exactly one Eom, found {len(eoms)}")
        parts = _compile(self)
        parts.setflags(write=False)
        object.__setattr__(self, "_parts", parts)

    @property
    def crystal(self) -> CrystalSpec:
        return self.eom.crystal

    @property
    def eom(self) -> Eom:
        return next(e for e in self.cw_path if isinstance(e, Eom))


def build_default_loop(
    crystal: CrystalSpec,
    fr_angle: float = math.pi / 4,
    hwp_angle: float = math.pi / 8,
    pbs: Pbs | None = None,
    rotated_beam: str = "cw",
    eom_residual_phase: float = 0.0,
) -> LoopLayout:
    """Five-element loop with the modulator at the center (index 2).

    ``rotated_beam`` picks which counter-propagating component gets the
    double 90-degree rotation: "cw" (default) puts the wave plates ahead of
    the rotators for the clockwise beam and drives the crystal's V axis;
    "ccw" mirrors the pairs and drives H. The defaults fr_angle = 45 deg and
    hwp_angle = 22.5 deg realize the full rotation; other angle pairs are
    accepted and simply degrade the device, which is useful in negative
    tests. The same plate/rotator pair sits on both sides of the modulator;
    a layout with unequal pairs or another driven axis is a ``LoopLayout``
    built from its path. A scene's ``[loop]`` section sets only the two
    angles: the splitter's extinction, the residual modulator phase and the
    ``ccw`` orientation are arguments of this function alone.
    """
    if rotated_beam not in ("cw", "ccw"):
        raise ValueError(f"rotated_beam must be 'cw' or 'ccw', got {rotated_beam!r}")
    eom = Eom(crystal, axis="V" if rotated_beam == "cw" else "H",
              residual_orthogonal_phase=eom_residual_phase)
    pair = (HalfWavePlate(hwp_angle), FaradayRotator(fr_angle))
    if rotated_beam == "ccw":  # rotator ahead of the plate on both sides
        pair = pair[::-1]
    return LoopLayout(pbs or Pbs(), (*pair, eom, *pair))


def _compile(layout: LoopLayout) -> np.ndarray:
    """The loop's fixed parts, shape (Eom axis H/V, port B/A, 2, 2): part
    [a, p] is port p's transfer matrix with the Eom replaced by the
    projector onto axis a. Each arm's chain is traced with that projector,
    its columns scaled by the splitter's ``split`` weights and its rows by
    the ``combine`` weights (``elements._pbs_weights``); the two arms then
    add up in each port."""
    chain = [None if isinstance(el, Eom) else element_matrix(el) for el in layout.cw_path]
    split, combine = _pbs_weights(layout.pbs)
    arms = []
    for projector in _AXIS_PROJECTORS:
        cw, ccw = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        for m in chain:
            cw = (projector if m is None else m) @ cw
        for m in reversed(chain):
            ccw = (projector if m is None else m) @ ccw
        arms.append((cw, ccw))
    arms = np.array(arms) * split[:, None, :]  # (axis, arm, row, column)
    return (combine[..., None] * arms[:, None]).sum(axis=2)


def _stack(factors, parts) -> np.ndarray:
    """f_H P_H + f_V P_V for the phase factors ``factors`` = (f_H, f_V) and
    the parts ``parts`` = (P_H, P_V) of one port or of both."""
    factor_h, factor_v = factors
    part_h, part_v = parts
    # Summed into the first product: one temporary fewer, the same bits.
    out = np.multiply.outer(factor_h, part_h)
    out += np.multiply.outer(factor_v, part_v)
    return out


def _power_law(coefficients, factors, floor: float) -> np.ndarray:
    """C0 + Re(K_hv conj(f_H) f_V + K_h f_H + K_v f_V), shape (rows,) +
    f_H.shape, for the rows (C0, K_hv, K_h, K_v) of ``coefficients`` (C0
    real, the K complex) and the unit phase factors ``factors`` = (f_H, f_V):
    the power of any reading linear in the two factors, as each beam crosses
    the modulator once. Every product is taken in real parts: numpy's
    complex multiply rounds differently in its vectorized and its scalar
    loop, so a complex product would make a value depend on the array it
    falls in. The result is clamped at ``floor``, the exact law's least
    value, which rounding can undercut by about 1e-16 of the largest power;
    a NaN passes the clamp."""
    constant, k_hv, k_h, k_v = np.asarray(coefficients, dtype=complex).reshape(-1, 4).T[..., None]
    factor_h, factor_v = factors
    hr, hi, vr, vi = factor_h.real, factor_h.imag, factor_v.real, factor_v.imag
    g_re, g_im = hr * vr + hi * vi, hr * vi - hi * vr  # conj(f_H) f_V
    out = (
        constant.real
        + (k_hv.real * g_re - k_hv.imag * g_im)
        + (k_h.real * hr - k_h.imag * hi)
        + (k_v.real * vr - k_v.imag * vi)
    )
    return np.maximum(out, floor, out=out)


def trace_ports(layout: LoopLayout, state, drive_voltage: float) -> tuple[np.ndarray, np.ndarray]:
    """Propagate ``state`` through the loop; return (port B, port A) states.

    Port B is the exit port distinct from the input; for an ideal layout all
    light leaves there and the port A amplitude vanishes.
    """
    drive_voltage = np.asarray(drive_voltage, dtype=float)
    if drive_voltage.ndim:
        raise ValueError(f"trace_ports needs one drive voltage, got shape {drive_voltage.shape}")
    return tuple(_stack(layout.eom.phase_factors(drive_voltage), layout._parts) @ _as_state(state))


def device_matrix(layout: LoopLayout, voltages) -> np.ndarray:
    """Effective 2x2 transfer matrices of the loop at its exit port, port B,
    for drive voltages of any shape, shape voltages.shape + (2, 2).

    Columns are the outputs for H and V inputs; by linearity the output for
    any superposition is this matrix applied to it.
    """
    factors = layout.eom.phase_factors(np.asarray(voltages, dtype=float))
    return _stack(factors, layout._parts[:, 0])


# perfbench/workloads.py and selftest.py call this name until ROADMAP item 1.
device_matrix_batch = device_matrix


def independence_scan(layout: LoopLayout, voltages: Sequence[float]) -> np.recarray:
    """Phase and polarization-independence figures across a 1-D voltage list.

    One row per voltage, with the columns ``voltage``, ``global_phase`` (the
    unwrapped global phase of port B's device matrix), ``infidelity`` (the
    scale-invariant identity infidelity, zero for a pure global phase even
    when the layout leaks power) and ``port_a_power`` (the input-averaged
    power returned to port A, 0.5 * ||M_A||_F^2). Each column is also an
    attribute of the whole scan, as an array: ``points.infidelity.max()``.
    Hot code should read columns, not rows; reading one row builds a record.
    For the ideal default layout the phase is linear with slope pi / V_half
    and the infidelity vanishes. Consecutive voltages must differ by less
    than V_half, the step at which the phase moves by pi and unwrapping can
    no longer tell its direction.

    The phase factors are evaluated once. Port B's figures come from its
    stack of device matrices, the one ``device_matrix`` returns, with each
    entry's squared modulus taken once for both the pivot and the Frobenius
    norm. Port A's power needs no stack: with the port-A parts A_H, A_V,
    |f_H| = |f_V| = 1 and <X, Y> = sum conj(X) Y it is

      0.5 ||M_A||_F^2 = 0.5 (||A_H||^2 + ||A_V||^2) + Re(conj(f_H) f_V <A_H, A_V>),

    one row of ``_power_law`` with K_h = K_v = 0 and floor 0. Port B's
    columns stay on the stack: the same law for ||M||_F^2 cancels to 0 or
    below where port B goes dark (``build_default_loop(crystal,
    hwp_angle=0.0)`` at V_half), and a law for |tr M|^2 would lose half its
    digits to the square root where tr M vanishes.
    """
    voltages = np.asarray(voltages, dtype=float)
    if voltages.ndim != 1:
        raise ValueError(f"independence_scan needs a 1-D voltage list, got shape {voltages.shape}")
    if voltages.size == 0:
        raise ValueError("independence_scan needs a non-empty voltage list")
    factors = layout.eom.phase_factors(voltages)
    v_half = half_wave_voltage(layout.crystal)
    if np.any(np.abs(np.diff(voltages)) >= v_half):
        raise ValueError(f"voltage step reaches the half-wave voltage {v_half:g} V: phase aliases")
    matrices = _stack(factors, layout._parts[:, 0])
    squared = _squared_moduli(matrices)
    phases = np.unwrap(_canonical_phases(matrices, squared)[0])
    infidelities = _scaled_identity_infidelities(matrices, squared)
    part_h, part_v = layout._parts[:, 1].reshape(2, 4)  # port A's
    power = 0.5 * (np.vdot(part_h, part_h).real + np.vdot(part_v, part_v).real)
    leaks = _power_law((power, np.vdot(part_h, part_v), 0.0, 0.0), factors, 0.0)[0]
    return np.rec.fromarrays((voltages, phases, infidelities, leaks), names=_SCAN_FIELDS)
