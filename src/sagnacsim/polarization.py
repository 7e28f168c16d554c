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
    "global_phase_decompose",
    "identity_infidelity",
    "linear_state",
    "normalize",
    "rotation",
    "scaled_identity_infidelity",
    "stokes",
]

_IDENTITY = np.eye(2, dtype=complex)
# Moduli within this relative distance of a transform's largest tie for its pivot.
_PIVOT_TIE = 1e-12

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
H.setflags(write=False)
V.setflags(write=False)


def _as_state(s) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.shape != (2,):
        raise ValueError(f"polarization state must have shape (2,), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"polarization state must be finite, got {s}")
    return s


def _norm(s: np.ndarray) -> float:
    """Euclidean norm of a state. No part is squared on the way, so it
    overflows or underflows only where the norm itself does."""
    return math.hypot(s[0].real, s[0].imag, s[1].real, s[1].imag)


def _largest_part(x: np.ndarray) -> float:
    """Largest |real| or |imaginary| part of the entries: a finite scale of a
    finite array, found without squaring anything."""
    return float(max(np.max(np.abs(x.real)), np.max(np.abs(x.imag))))


def _rescaled(x: np.ndarray) -> np.ndarray:
    """x over its largest part, so no part exceeds 1 (x itself if all are 0).
    Each part is divided on its own: numpy divides a complex array by the
    reciprocal of a real divisor, which overflows for a subnormal one."""
    top = _largest_part(x)
    return x.real / top + 1j * (x.imag / top) if top else x


def _as_transform(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"polarization transform must have shape (2, 2), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"polarization transform must be finite, got {m.tolist()}")
    return m


def linear_state(angle: float) -> np.ndarray:
    """Unit-norm linearly polarized state at ``angle`` radians from H."""
    if not math.isfinite(angle):
        raise ValueError(f"linear polarization angle must be finite, got {angle}")
    return np.array([math.cos(angle), math.sin(angle)], dtype=complex)


def normalize(s) -> np.ndarray:
    """Rescale ``s`` to unit power, leaving its direction (and phase) alone.

    Raises ValueError for the zero state, which has no direction.
    """
    s = _rescaled(_as_state(s))  # a state near the float limit has a norm past it
    norm = _norm(s)
    if norm == 0.0:
        raise ValueError("unnormalizable: zero polarization state")
    return s / norm


def rotation(theta: float) -> np.ndarray:
    """Rotation of the transverse plane by ``theta`` radians (H toward V)."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle theta must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _unitarity_deviation(m: np.ndarray) -> float:
    """Largest entry of |M^dagger M - I|. A part past 1e150 puts it past
    1e300; that answer is inf, without squaring the matrix."""
    if _largest_part(m) > 1e150:
        return math.inf
    return float(np.max(np.abs(m.conj().T @ m - _IDENTITY)))


class PhaseDecomposition(NamedTuple):
    """Factorization m = e^{i global_phase} * residual.

    Canonical form: the residual's largest-magnitude entry is real and
    positive (ties broken in row-major order), and global_phase lies in
    (-pi, pi] with the branch cut mapped to +pi.
    """

    global_phase: float
    residual: np.ndarray


def _squared_moduli(ms: np.ndarray) -> np.ndarray:
    """|m_jk|^2 of each entry, in real products. A part past 1e154 overflows
    and one below 1e-162 underflows, so a caller passes moderate entries: a
    rescaled transform's, or a loop's, which are at most 1."""
    squared = np.square(ms.real)
    squared += np.square(ms.imag)
    return squared


def _canonical_phases(ms: np.ndarray, squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical global phases of a stack (n, 2, 2) of nonzero transforms and
    the row-major index of each one's pivot entry (see ``PhaseDecomposition``).

    The one pivot rule ranks the entries on ``squared``: the stack's
    ``_squared_moduli`` when its entries are moderate, else those of each
    transform rescaled on its own. The phase is the pivot entry's own, taken
    from ``ms``."""
    flat = ms.reshape(len(ms), 4)
    mags = squared.reshape(len(ms), 4)
    # Column by column: numpy reduces a short last axis one row at a time.
    m0, m1, m2, m3 = mags.T
    top = np.maximum(np.maximum(m0, m1), np.maximum(m2, m3))
    # first maximum in row-major order; squared magnitudes tied within
    # floating-point noise count as equal so the tie-break is stable
    pivot_index = np.argmax(mags >= (top * (1.0 - _PIVOT_TIE) ** 2)[:, None], axis=1)
    pivots = flat[np.arange(len(flat)), pivot_index]
    if np.any(pivots == 0):
        raise ValueError("cannot decompose the zero matrix")
    phases = np.angle(pivots)
    phases[phases == -math.pi] = math.pi
    return phases, pivot_index


def global_phase_decompose(m) -> PhaseDecomposition:
    """Split a transform into a global phase and a canonical residual.

    For m = e^{i phi} * I this returns (phi wrapped to (-pi, pi], I).
    Raises ValueError for the zero matrix, which carries no phase, and for a
    matrix whose largest entry's modulus overflows a float.
    """
    m = _as_transform(m)
    # Ranked on the rescaled transform's squares: the largest lies in [1, 2],
    # so only entries far below it underflow. The phase and the residual come
    # from m's own entries.
    phases, pivot_index = _canonical_phases(m[None], _squared_moduli(_rescaled(m)[None]))
    phase, k = float(phases[0]), int(pivot_index[0])
    pivot = abs(m.flat[k])
    if pivot == math.inf:
        raise ValueError(f"cannot decompose: the pivot's modulus overflows a float, got {m.flat[k]}")
    residual = m * cmath.exp(-1j * phase)
    residual.flat[k] = pivot  # force exact canonical pivot
    return PhaseDecomposition(phase, residual)


def identity_infidelity(m) -> float:
    """Polarization-independence metric 1 - |tr(m)| / 2 for lossless m.

    Zero iff m = e^{i phi} * I; invariant under global phase. Requires a
    unitary input (max deviation of M^dagger M from I below 1e-9); lossy
    transforms must go through ``scaled_identity_infidelity`` instead.
    """
    m = _as_transform(m)
    dev = _unitarity_deviation(m)
    if dev >= 1e-9:
        raise ValueError(
            f"identity_infidelity requires a lossless transform (unitarity deviation {dev:.3e})"
        )
    val = 1.0 - abs(m[0, 0] + m[1, 1]) / 2.0
    return float(min(max(val, 0.0), 1.0))


def _scaled_identity_infidelities(ms: np.ndarray, squared: np.ndarray) -> np.ndarray:
    """``scaled_identity_infidelity`` of each transform in a stack of moderate
    entries, shape (n, 2, 2), given the stack's ``_squared_moduli``."""
    m0, m1, m2, m3 = squared.reshape(len(ms), 4).T
    fro = np.sqrt(m0 + m1 + m2 + m3)
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
    # The metric is scale-invariant, and rescaling keeps ||m||_F in range.
    ms = _rescaled(_as_transform(m))[None]
    return float(_scaled_identity_infidelities(ms, _squared_moduli(ms))[0])


def stokes(s) -> tuple[float, float, float, float]:
    """Stokes parameters (S0, S1, S2, S3) of a pure state.

    S0 = |a|^2 + |b|^2, S1 = |a|^2 - |b|^2, S2 = 2 Re(a* b), S3 = 2 Im(a* b);
    pure states satisfy S1^2 + S2^2 + S3^2 = S0^2. Raises ValueError for a
    state whose power S0 overflows a float.
    """
    s = _as_state(s)
    norm = _norm(s)
    power = norm * norm
    if power == math.inf:
        raise ValueError(f"polarization state power overflows a float, got norm {norm:g}")
    a, b = s[0], s[1]
    cross = a.conjugate() * b
    return (
        power,
        float(abs(a) ** 2 - abs(b) ** 2),
        float(2.0 * cross.real),
        float(2.0 * cross.imag),
    )
