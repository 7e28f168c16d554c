"""Complex 2-vector / 2x2 transfer-matrix arithmetic for polarized light.

Basis convention, used everywhere in this package: component 0 is the
horizontal (H) amplitude, component 1 the vertical (V) amplitude, both in a
fixed lab transverse frame. States are plain complex ndarrays of shape (2,),
transforms are complex ndarrays of shape (2, 2) acting by left
multiplication.

The central diagnostic is how close a transform is to a pure global phase
e^{i phi} * I. ``global_phase_decompose`` factors the phase out;
``identity_infidelity`` turns the residual into a scalar metric
1 - |tr(M)| / 2, which is zero exactly for phase * identity and grows to 1
for transforms that fully disturb the polarization.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "H",
    "V",
    "PhaseDecomposition",
    "apply",
    "compose",
    "global_phase_decompose",
    "identity_infidelity",
    "is_unitary",
    "linear_state",
    "normalize",
    "rotation",
    "scaled_identity_infidelity",
    "stokes",
]

_IDENTITY = np.eye(2, dtype=complex)

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
H.setflags(write=False)
V.setflags(write=False)


def _as_state(s) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.shape != (2,):
        raise ValueError(f"polarization state must have shape (2,), got {s.shape}")
    return s


def _as_transform(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"polarization transform must have shape (2, 2), got {m.shape}")
    return m


def linear_state(angle: float) -> np.ndarray:
    """Unit-norm linearly polarized state at ``angle`` radians from H."""
    return np.array([math.cos(angle), math.sin(angle)], dtype=complex)


def normalize(s) -> np.ndarray:
    """Rescale ``s`` to unit power, leaving its direction (and phase) alone.

    Raises ValueError for the zero state, which has no direction.
    """
    s = _as_state(s)
    norm = float(np.linalg.norm(s))
    if norm == 0.0:
        raise ValueError("unnormalizable: zero polarization state")
    return s / norm


def apply(t, s) -> np.ndarray:
    """Matrix-vector product t @ s."""
    return _as_transform(t) @ _as_state(s)


def compose(a, b) -> np.ndarray:
    """Transform product a @ b, with b acting first."""
    return _as_transform(a) @ _as_transform(b)


def rotation(theta: float) -> np.ndarray:
    """Rotation of the transverse plane by ``theta`` radians (H toward V)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def is_unitary(m, tol: float = 1e-12) -> bool:
    """Max-entry check of M^dagger M = I."""
    m = _as_transform(m)
    return bool(np.max(np.abs(m.conj().T @ m - _IDENTITY)) < tol)


class PhaseDecomposition(NamedTuple):
    """Factorization m = e^{i global_phase} * residual.

    Canonical form: the residual's largest-magnitude entry is real and
    positive (ties broken in row-major order), and global_phase lies in
    (-pi, pi] with the branch cut mapped to +pi.
    """

    global_phase: float
    residual: np.ndarray


def _canonical_phases(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical global phases of a stack (n, 2, 2) of nonzero transforms and
    the row-major index of each one's pivot entry (see ``PhaseDecomposition``)."""
    flat = ms.reshape(len(ms), 4)
    mags = np.abs(flat)
    top = mags.max(axis=1, keepdims=True)
    # first maximum in row-major order; magnitudes tied within floating-point
    # noise count as equal so the tie-break is stable
    pivot_index = np.argmax(mags >= top * (1.0 - 1e-12), axis=1)
    pivots = flat[np.arange(len(flat)), pivot_index]
    if np.any(pivots == 0):
        raise ValueError("cannot decompose the zero matrix")
    phases = np.angle(pivots)
    phases[phases == -math.pi] = math.pi
    return phases, pivot_index


def global_phase_decompose(m) -> PhaseDecomposition:
    """Split a transform into a global phase and a canonical residual.

    For m = e^{i phi} * I this returns (phi wrapped to (-pi, pi], I).
    Raises ValueError for the zero matrix, which carries no phase.
    """
    m = _as_transform(m)
    phases, pivot_index = _canonical_phases(m[None])
    phase, k = float(phases[0]), int(pivot_index[0])
    residual = m * cmath.exp(-1j * phase)
    residual.flat[k] = abs(m.flat[k])  # force exact canonical pivot
    return PhaseDecomposition(phase, residual)


def identity_infidelity(m) -> float:
    """Polarization-independence metric 1 - |tr(m)| / 2 for lossless m.

    Zero iff m = e^{i phi} * I; invariant under global phase. Requires a
    unitary input (max deviation of M^dagger M from I below 1e-9); lossy
    transforms must go through ``scaled_identity_infidelity`` instead.
    """
    m = _as_transform(m)
    dev = float(np.max(np.abs(m.conj().T @ m - _IDENTITY)))
    if dev >= 1e-9:
        raise ValueError(
            f"identity_infidelity requires a lossless transform (unitarity deviation {dev:.3e})"
        )
    val = 1.0 - abs(m[0, 0] + m[1, 1]) / 2.0
    return float(min(max(val, 0.0), 1.0))


def _scaled_identity_infidelities(ms: np.ndarray) -> np.ndarray:
    """``scaled_identity_infidelity`` of each transform in a stack, shape (n, 2, 2)."""
    fro = np.linalg.norm(ms, axis=(1, 2))
    if np.any(fro == 0.0):
        raise ValueError("cannot measure the zero matrix")
    val = 1.0 - np.abs(ms[:, 0, 0] + ms[:, 1, 1]) / (math.sqrt(2.0) * fro)
    return np.clip(val, 0.0, 1.0)


def scaled_identity_infidelity(m) -> float:
    """Scale-invariant distance from phase * identity: 1 - |tr m| / (sqrt(2) ||m||_F).

    Agrees with ``identity_infidelity`` on unitary input (where the Frobenius
    norm is sqrt(2)) and stays in [0, 1] for any nonzero transform by the
    Cauchy-Schwarz bound |tr m| <= sqrt(2) ||m||_F, with equality iff m is
    proportional to the identity. Used for lossy device matrices, where a
    common amplitude loss should not count as polarization dependence.
    """
    return float(_scaled_identity_infidelities(_as_transform(m)[None])[0])


def stokes(s) -> tuple[float, float, float, float]:
    """Stokes parameters (S0, S1, S2, S3) of a pure state.

    S0 = |a|^2 + |b|^2, S1 = |a|^2 - |b|^2, S2 = 2 Re(a* b), S3 = 2 Im(a* b);
    pure states satisfy S1^2 + S2^2 + S3^2 = S0^2.
    """
    s = _as_state(s)
    a, b = s[0], s[1]
    cross = a.conjugate() * b
    return (
        float(abs(a) ** 2 + abs(b) ** 2),
        float(abs(a) ** 2 - abs(b) ** 2),
        float(2.0 * cross.real),
        float(2.0 * cross.imag),
    )
