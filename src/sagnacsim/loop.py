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
and A) by tracing the loop with the modulator replaced by each axis
projector. A layout compiles once, when it is constructed, and holds the
parts read-only; so an element without a transfer matrix fails there, and
evaluating a layout builds no element matrix. Every public entry point maps
its voltages through ``_evaluate``: ``device_matrix_batch`` for the layout's
output port only, ``trace_ports`` and ``independence_scan`` for both ports.

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
    element_matrix,
    half_wave_voltage,
    pbs_combine_ports,
    pbs_split,
)
from .polarization import (
    H,
    V,
    _as_normalized_state,
    _as_state,
    _canonical_phases,
    _scaled_identity_infidelities,
)

__all__ = [
    "LoopLayout",
    "build_default_loop",
    "device_matrix",
    "device_matrix_batch",
    "independence_scan",
    "trace",
    "trace_ports",
]

_PORTS = ("B", "A")
# The columns of an independence scan, one row per voltage.
_SCAN_FIELDS = ("voltage", "global_phase", "infidelity", "port_a_power")
# Modulator replaced by the projector onto its H, then its V axis.
_AXIS_PROJECTORS = (np.diag([1.0 + 0.0j, 0.0j]), np.diag([0.0j, 1.0 + 0.0j]))


@dataclass(frozen=True)
class LoopLayout:
    """One shared element list read in both directions.

    ``cw_path`` as seen by the clockwise beam; the counter-clockwise beam
    reads it in reverse, with the same element matrices. ``output_port``
    selects which recombined output ``trace`` returns: "B", the exit port
    distinct from the input (the default), or "A", the input-side return
    port. The layout's ``crystal`` is its one modulator's. The compiled
    parts are not a field of equality, hashing or ``dataclasses.replace``:
    a replaced layout compiles anew.
    """

    pbs: Pbs
    cw_path: tuple
    output_port: str = "B"
    _parts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cw_path", tuple(self.cw_path))
        eoms = [e for e in self.cw_path if isinstance(e, Eom)]
        if len(eoms) != 1:
            raise ValueError(f"cw_path must contain exactly one Eom, found {len(eoms)}")
        if self.output_port not in _PORTS:
            raise ValueError(f"output_port must be 'A' or 'B', got {self.output_port!r}")
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
    fr2_angle: float | None = None,
    hwp2_angle: float | None = None,
    eom_axis: str | None = None,
    output_port: str = "B",
) -> LoopLayout:
    """Five-element loop with the modulator at the center (index 2).

    ``rotated_beam`` picks which counter-propagating component gets the
    double 90-degree rotation: "cw" (default) puts the wave plates ahead of
    the rotators for the clockwise beam and drives the crystal's V axis;
    "ccw" mirrors the pairs and drives H. The defaults fr_angle = 45 deg and
    hwp_angle = 22.5 deg realize the full rotation; other angle pairs are
    accepted and simply degrade the device, which is useful in negative
    tests. ``fr2_angle`` / ``hwp2_angle`` set the pair after the modulator
    (default: the same angles as the first pair), and ``eom_axis`` overrides
    the driven axis that ``rotated_beam`` implies.
    """
    if rotated_beam not in ("cw", "ccw"):
        raise ValueError(f"rotated_beam must be 'cw' or 'ccw', got {rotated_beam!r}")
    if eom_axis is None:
        eom_axis = "V" if rotated_beam == "cw" else "H"
    eom = Eom(crystal, axis=eom_axis, residual_orthogonal_phase=eom_residual_phase)
    first = (HalfWavePlate(hwp_angle), FaradayRotator(fr_angle))
    second = (HalfWavePlate(hwp_angle if hwp2_angle is None else hwp2_angle),
              FaradayRotator(fr_angle if fr2_angle is None else fr2_angle))
    if rotated_beam == "ccw":  # rotator ahead of the plate on both sides
        first, second = first[::-1], second[::-1]
    return LoopLayout(pbs or Pbs(), (*first, eom, *second), output_port)


def _compile(layout: LoopLayout) -> np.ndarray:
    """The loop's fixed parts, shape (Eom axis H/V, port B/A, 2, 2): column j
    of part [a, p] is port p's output for basis input j with the Eom replaced
    by the projector onto axis a."""
    chain = [None if isinstance(el, Eom) else element_matrix(el) for el in layout.cw_path]
    splits = [pbs_split(layout.pbs, basis) for basis in (H, V)]
    parts = []
    for projector in _AXIS_PROJECTORS:
        cw, ccw = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        for m in chain:
            cw = (projector if m is None else m) @ cw
        for m in reversed(chain):
            ccw = (projector if m is None else m) @ ccw
        # Indexed (input column, port, row), turned to (port, row, column).
        columns = [pbs_combine_ports(layout.pbs, cw @ t, ccw @ r) for t, r in splits]
        parts.append(np.transpose(columns, (1, 2, 0)))
    return np.array(parts)


def _evaluate(layout: LoopLayout, voltages, port=slice(None)) -> np.ndarray:
    """Transfer matrices at ``voltages`` of one port (an index into (B, A)),
    shape voltages.shape + (2, 2), or of both, shape voltages.shape + (2, 2, 2)."""
    factor_h, factor_v = layout.eom.phase_factors(np.asarray(voltages, dtype=float))
    part_h, part_v = layout._parts[:, port]
    # Summed into the first product: one temporary fewer, the same bits.
    out = np.multiply.outer(factor_h, part_h)
    out += np.multiply.outer(factor_v, part_v)
    return out


def trace_ports(layout: LoopLayout, state, drive_voltage: float) -> tuple[np.ndarray, np.ndarray]:
    """Propagate ``state`` through the loop; return (port B, port A) states.

    Port B is the exit port distinct from the input; for an ideal layout all
    light leaves there and the port A amplitude vanishes.
    """
    return tuple(_evaluate(layout, drive_voltage) @ _as_state(state))


def trace(layout: LoopLayout, state, drive_voltage: float) -> np.ndarray:
    """State at the layout's output port for a normalized input state."""
    state = _as_normalized_state(state)
    return trace_ports(layout, state, drive_voltage)[_PORTS.index(layout.output_port)]


def device_matrix(layout: LoopLayout, drive_voltage: float) -> np.ndarray:
    """Effective 2x2 transfer matrix of the loop at one drive voltage.

    Columns are the traced outputs for H and V inputs; by linearity the trace
    of any superposition equals this matrix applied to it.
    """
    return device_matrix_batch(layout, drive_voltage)


def device_matrix_batch(layout: LoopLayout, voltages) -> np.ndarray:
    """Device matrices at the layout's output port for an array of voltages,
    shape voltages.shape + (2, 2)."""
    return _evaluate(layout, voltages, _PORTS.index(layout.output_port))


def independence_scan(layout: LoopLayout, voltages: Sequence[float]) -> np.recarray:
    """Phase and polarization-independence figures across a 1-D voltage list.

    One row per voltage, with the columns ``voltage``, ``global_phase`` (the
    unwrapped global phase of the device matrix), ``infidelity`` (the
    scale-invariant identity infidelity, zero for a pure global phase even
    when the layout leaks power) and ``port_a_power`` (the input-averaged
    power returned to port A, 0.5 * ||M_A||_F^2). Each column is also an
    attribute of the whole scan, as an array: ``points.infidelity.max()``.
    Hot code should read columns, not rows; reading one row builds a record.
    For the ideal default layout the phase is linear with slope pi / V_half
    and the infidelity vanishes. Consecutive voltages must differ by less
    than V_half, the step at which the phase moves by pi and unwrapping can
    no longer tell its direction.
    """
    voltages = np.asarray(voltages, dtype=float)
    if voltages.ndim != 1:
        raise ValueError(f"independence_scan needs a 1-D voltage list, got shape {voltages.shape}")
    if voltages.size == 0:
        raise ValueError("independence_scan needs a non-empty voltage list")
    ports = _evaluate(layout, voltages)
    v_half = half_wave_voltage(layout.crystal)
    if np.any(np.abs(np.diff(voltages)) >= v_half):
        raise ValueError(f"voltage step reaches the half-wave voltage {v_half:g} V: phase aliases")
    matrices = ports[:, _PORTS.index(layout.output_port)]
    phases = np.unwrap(_canonical_phases(matrices)[0])
    infidelities = _scaled_identity_infidelities(matrices)
    leaks = 0.5 * np.sum(np.abs(ports[:, 1]) ** 2, axis=(1, 2))
    return np.rec.fromarrays((voltages, phases, infidelities, leaks), names=_SCAN_FIELDS)
