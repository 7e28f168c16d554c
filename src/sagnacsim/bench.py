"""Mach-Zehnder test bench around the loop phase shifter.

The device sits in one arm, a reference transform (default identity) in the
other. Detected power for input state s at drive voltage V:

  I = background
      + 1/4 ||M_dev(V) s + gamma sqrt(b) M_ref s||^2
      + 1/8 (1 - gamma^2) (||M_dev(V) s||^2 + b ||M_ref s||^2)

where gamma in [0, 1] is a scalar mode-overlap factor for the wavefront
match of the two arms (only the overlapping fraction interferes; the
remainder adds incoherently) and b is the arm power imbalance. For the ideal
setup this reduces to (1 + cos(pi V / V_half)) / 2 + background. A diagonal
reference-arm phase diag(1, e^{i delta}) models imperfect polarization
compensation of the external interferometer: it leaves the 0 and 90 degree
fringe visibilities at gamma and pulls the 45 degree visibility down to
gamma |cos(delta / 2)|, the signature of losing the phase relationship
between the two polarization components.

The bench evaluates this formula in closed form. The device arm carries the
loop's exit port, port B: M_dev(V) = f_H(V) P_H + f_V(V) P_V with port B's
fixed parts P_H, P_V and unit phase factors |f_H| = |f_V| = 1, so with
a = P_H s, c = P_V s, r = gamma sqrt(b) M_ref s and
<x, y> = sum_j conj(x_j) y_j each reading is

  I(V) = C0 + Re(K_hv conj(f_H) f_V + K_h f_H + K_v f_V)
  C0   = background + 1/4 (|a|^2 + |c|^2 + |r|^2)
         + 1/8 (1 - gamma^2) (|a|^2 + |c|^2 + b |M_ref s|^2)
  K_hv = (1/2 + 1/4 (1 - gamma^2)) <a, c>,  K_h = 1/2 <r, a>,  K_v = 1/2 <r, c>

three coefficients and a constant per state, fixed before any voltage is
read, and no 2x2 matrix per voltage. ``loop._power_law``, the one evaluator
of this law, reads them; the scan's port-A power is another row of it. The
law's rounding error is absolute, about 1e-16 of the bright fringe, so a
reading near an exact dark fringe keeps fewer relative digits than its
absolute value suggests; a reading is never below ``background``, which
the exact law guarantees and the evaluator enforces.

Visibility is (I_on - I_off) / (I_on + I_off) after background subtraction;
the on/off contrast (1 + v) / (1 - v) is reported as a ratio and in dB.
Note that a visibility quoted rounded to three digits implies a contrast
ratio uncertain by more than its own last digit, so tabulated (visibility,
contrast) pairs need not be exactly consistent.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import circuit as _circuit
from .circuit import DriveCircuit, GateSchedule, Waveform, edge_time_10_90, simulate
from .elements import CrystalSpec, half_wave_voltage
from .loop import LoopLayout, _power_law
from .polarization import _as_state, linear_state

__all__ = [
    "MeasurementRecord",
    "MzSetup",
    "SwitchingTrace",
    "contrast_from_visibility",
    "fit_mosfet_on_r",
    "fit_reference_imperfections",
    "insertion_loss",
    "sweep_curve",
    "switching_trace",
    "table1_report",
]


@dataclass(frozen=True, eq=False)
class MzSetup:
    """Interferometer around a loop layout.

    ref_arm: 2x2 transform of the reference arm (identity by default);
    mode_overlap: wavefront-match factor gamma in [0, 1]; background: power
    offset added to every reading; arm_imbalance: reference-to-device arm
    power ratio. A setup holds an array, so equality and hashing go by
    identity.
    """

    loop: LoopLayout
    ref_arm: np.ndarray = None
    mode_overlap: float = 1.0
    background: float = 0.0
    arm_imbalance: float = 1.0

    def __post_init__(self):
        ref = np.eye(2, dtype=complex) if self.ref_arm is None else np.asarray(self.ref_arm, complex)
        if ref.shape != (2, 2):
            raise ValueError("ref_arm must be a 2x2 transform")
        if not np.all(np.isfinite(ref)):
            raise ValueError(f"ref_arm must be finite, got {ref.tolist()}")
        ref = ref.copy()
        ref.setflags(write=False)
        object.__setattr__(self, "ref_arm", ref)
        if not 0.0 <= self.mode_overlap <= 1.0:
            raise ValueError(f"mode_overlap must lie in [0, 1], got {self.mode_overlap}")
        if not (math.isfinite(self.background) and self.background >= 0.0):
            raise ValueError(f"background must be finite and non-negative, got {self.background}")
        if not (math.isfinite(self.arm_imbalance) and self.arm_imbalance > 0.0):
            raise ValueError(f"arm_imbalance must be positive, got {self.arm_imbalance}")


@dataclass(frozen=True)
class MeasurementRecord:
    """One fringe measurement: the background-corrected extrema, which give
    the visibility and contrast, and the fitted half-wave voltage."""

    i_on: float
    i_off: float
    v_half_fit: float

    def __post_init__(self):
        # Readings are clamped at the background, so corrected extrema are
        # >= 0 exactly; this check alone keeps the visibility in [0, 1].
        if not (0.0 <= self.i_off <= self.i_on < math.inf and self.i_on > 0.0):
            raise ValueError(
                f"need i_on >= i_off >= 0 and a finite i_on > 0, got {self.i_on}, {self.i_off}"
            )
        if not 0.0 < self.v_half_fit < math.inf:
            raise ValueError(f"need a finite v_half_fit > 0, got {self.v_half_fit}")

    @property
    def visibility(self) -> float:
        return (self.i_on - self.i_off) / (self.i_on + self.i_off)

    @property
    def contrast_ratio(self) -> float:
        return self.i_on / self.i_off if self.i_off > 0.0 else math.inf

    @property
    def contrast_db(self) -> float:
        return 10.0 * math.log10(self.contrast_ratio)


def _fringe_coefficients(setup: MzSetup, states: list[np.ndarray]) -> np.ndarray:
    """One row (C0, K_hv, K_h, K_v) per input state, in ``loop._power_law``'s
    layout, with complex K. Each row is worked out in Python scalars from its
    own state alone, so it does not depend on the states stacked with it."""
    part_h, part_v = setup.loop._parts[:, 0].tolist()  # port B's
    ref_arm = setup.ref_arm.tolist()
    gamma, imbalance = setup.mode_overlap, setup.arm_imbalance
    scale = gamma * math.sqrt(imbalance)
    partial = 1.0 - gamma**2

    def inner(x, y):  # sum_j conj(x_j) y_j
        return x[0].conjugate() * y[0] + x[1].conjugate() * y[1]

    rows = []
    for s0, s1 in (s.tolist() for s in states):
        a, c, ref = ((m[0][0] * s0 + m[0][1] * s1, m[1][0] * s0 + m[1][1] * s1)
                     for m in (part_h, part_v, ref_arm))
        r = (scale * ref[0], scale * ref[1])
        power_a, power_c, power_r, power_ref = (inner(x, x).real for x in (a, c, r, ref))
        constant = (
            setup.background
            + 0.25 * (power_a + power_c + power_r)
            + 0.125 * partial * (power_a + power_c + imbalance * power_ref)
        )
        k_hv = (0.5 + 0.25 * partial) * inner(a, c)
        k_h = 0.5 * inner(r, a)
        k_v = 0.5 * inner(r, c)
        rows.append((constant, k_hv, k_h, k_v))
    return np.array(rows, dtype=complex)


def _intensities(setup: MzSetup, states, voltages) -> np.ndarray:
    """Detected power of each input state at each drive voltage, shape
    (len(states), len(voltages)), by the fringe law of the module docstring.

    Per state, the constant and the three coefficients are fixed before any
    voltage is read; each block's readings are ``loop._power_law`` at its
    phase factors, clamped at ``background``. The voltages are walked in
    the driver's blocks, so the memory beyond the readings stays one block's
    worth; a reading that overflows a float is refused."""
    voltages = np.asarray(voltages, dtype=float)
    states = [_as_state(s) for s in states]
    out = np.empty((len(states), len(voltages)))
    block = _circuit._BLOCK
    eom = setup.loop.eom
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _fringe_coefficients(setup, states)
        for lo in range(0, len(voltages), block):
            factors = eom.phase_factors(voltages[lo : lo + block])
            out[:, lo : lo + block] = _power_law(coefficients, factors, setup.background)
    if not np.all(np.isfinite(out)):
        raise ValueError("detected power overflows a float: input state or reference arm too strong")
    return out


def _sweep_ceiling(crystal: CrystalSpec, v_max: float | None) -> float:
    """The top of a 0..v_max sweep: v_max, or 2 * V_half of the crystal when
    v_max is None. Refuses a ceiling that is not finite."""
    if v_max is None:
        v_half = half_wave_voltage(crystal)
        v_max = 2.0 * v_half
        if not math.isfinite(v_max):
            raise ValueError(f"the default sweep ceiling 2 * V_half overflows at V_half = {v_half:g} V")
    if not math.isfinite(v_max):
        raise ValueError(f"sweep ceiling v_max must be finite, got {v_max}")
    return v_max


def _sweep_grid(v_max: float, n: int) -> np.ndarray:
    """The n voltages 0..v_max of a sweep. Refuses an n that is not a
    non-negative integer, or more samples than the driver's grid cap, before
    anything is allocated."""
    if isinstance(n, bool) or not hasattr(n, "__index__") or n < 0:
        raise ValueError(f"the sample count n must be a non-negative integer, got {n!r}")
    if n > _circuit._MAX_SAMPLES:
        raise ValueError(f"n = {n} exceeds {_circuit._MAX_SAMPLES:g} samples; refusing to allocate the sweep")
    return np.linspace(0.0, v_max, n)


def sweep_curve(setup: MzSetup, state, v_max: float | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw fringe curve of a linear 0..v_max sweep: (voltages, intensities)."""
    voltages = _sweep_grid(_sweep_ceiling(setup.loop.crystal, v_max), n)
    return voltages, _intensities(setup, [state], voltages)[0]


def _extrema_spacing(voltages: np.ndarray, values: np.ndarray) -> float:
    """Voltage spacing between adjacent fringe extrema.

    Uses interior extrema (sign changes of the sampled derivative) when at
    least two exist, otherwise the spacing between the global extremes.
    """
    signs = np.sign(np.diff(values))
    # A flip is a nonzero slope sign that differs from the previous nonzero
    # one, so a flat spot between two slopes of opposite sign is one flip.
    steps = np.flatnonzero(signs)
    flips = steps[1:][signs[steps[1:]] != signs[steps[:-1]]]
    if len(flips) >= 2:
        # The median as np.median takes it (the mean of the two middle values
        # for an even count), without the numpy.ma import np.median costs.
        spacings = np.sort(np.diff(voltages[flips]))
        mid = len(spacings) // 2
        return float(spacings[mid] if len(spacings) % 2 else (spacings[mid - 1] + spacings[mid]) / 2)
    return float(abs(voltages[int(np.argmax(values))] - voltages[int(np.argmin(values))]))


def _record(voltages: np.ndarray, corrected: np.ndarray) -> MeasurementRecord:
    """Measurement record of a background-corrected fringe curve."""
    i_on = float(np.max(corrected))
    i_off = float(np.min(corrected))
    if i_on - i_off <= 1e-15 * max(i_on, 1.0):
        raise ValueError("flat fringe: the background-corrected readings do not vary")
    return MeasurementRecord(i_on, i_off, _extrema_spacing(voltages, corrected))


def contrast_from_visibility(visibility: float) -> tuple[float, float]:
    """On/off contrast (ratio, dB) implied by a fringe visibility.

    ratio = (1 + v) / (1 - v), monotone increasing on [0, 1]. A visibility
    of exactly 1 reads (inf, inf), as ``MeasurementRecord`` does for an
    exactly dark fringe.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    if visibility == 1.0:
        return math.inf, math.inf
    ratio = (1.0 + visibility) / (1.0 - visibility)
    return ratio, 10.0 * math.log10(ratio)


def insertion_loss(transmissions: Sequence[float]) -> float:
    """Total insertion loss in dB of a chain of power transmissions."""
    for t in transmissions:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"transmissions must lie in (0, 1], got {t}")
    # Summed per element in dB: a product of transmissions can underflow to
    # 0 where the loss is finite. 0.0 - keeps a lossless chain at +0 dB.
    return 0.0 - 10.0 * math.fsum(math.log10(t) for t in transmissions)


@dataclass(frozen=True)
class SwitchingTrace:
    """Time-domain switching result: drive voltage and detected intensity on
    a shared grid, plus the optical 10-90 transition time."""

    voltage: Waveform
    intensity: Waveform
    optical_10_90: float


def switching_trace(
    setup: MzSetup,
    state,
    circuit: DriveCircuit,
    gates: GateSchedule,
    t_end: float,
    dt: float,
) -> SwitchingTrace:
    """Drive the modulator and record the interferometer output over time.

    ``simulate`` builds the whole voltage waveform first, and
    ``_intensities`` then maps it pointwise through the interferometer
    response in the driver's block size. The optical switching time is the
    first 10-90 transition of the intensity (a rising edge when the crystal
    discharges from the half-wave voltage toward the bright fringe).
    """
    voltage = simulate(circuit, gates, t_end, dt, v_start=circuit.supply_voltage)
    intensity = Waveform(voltage.dt, _intensities(setup, [state], voltage.samples)[0])
    # Direction of the first switching edge, judged over the first conduction
    # window (the later recharge swings the trace back the other way).
    window_end = gates.on_times[0] + gates.hold_duration
    n = len(intensity.samples)
    k = bisect_left(range(n), min(window_end, t_end), key=lambda k: k * dt)
    rising = intensity.samples[min(max(k - 1, 1), n - 1)] >= intensity.samples[0]
    edge = edge_time_10_90(intensity, falling=not rising)
    return SwitchingTrace(voltage=voltage, intensity=intensity, optical_10_90=edge)


# On-resistance search range in ohms: it keeps R_on * C / 10 above the sample
# step and R_on below 1% of the recharge resistor.
_R_ON_BRACKET = (5.0, 150.0)


def fit_mosfet_on_r(
    setup: MzSetup,
    state,
    circuit: DriveCircuit,
    gates: GateSchedule,
    t_end: float,
    dt: float,
    target_edge: float,
) -> float:
    """MOSFET on-resistance that reproduces a target optical 10-90 time.

    One-dimensional root find over ``_R_ON_BRACKET``; the optical edge grows
    monotonically with the discharge time constant R_on * C.
    """
    if not (math.isfinite(target_edge) and target_edge > 0.0):
        raise ValueError(f"target_edge must be a finite positive time, got {target_edge}")

    def edge_error(r_on: float) -> float:
        trial = replace(circuit, mosfet_on_r=r_on)
        return switching_trace(setup, state, trial, gates, t_end, dt).optical_10_90 - target_edge

    return _brent(edge_error, *_R_ON_BRACKET, xtol=1e-3)


def _brent(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method (R. P. Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 4): inverse
    quadratic or secant steps where they shrink the bracket fast enough,
    bisection otherwise. Converges once the bracket is narrower than
    xtol + 4 eps |x|; raises ValueError unless f(a) and f(b) differ in sign,
    and RuntimeError after 100 iterations."""
    rtol = 4.0 * np.finfo(float).eps
    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise ValueError(f"f(a) and f(b) must differ in sign, got {f_pre} and {f_cur}")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(100):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre  # the bracket is [x_blk, x_cur]
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):  # keep the better estimate in x_cur
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")


def fit_reference_imperfections(
    vis_0deg: float, vis_45deg: float, vis_90deg: float
) -> tuple[float, float]:
    """Fit (gamma, delta) of the imperfection model to three visibilities.

    The 0 and 90 degree sweeps both read gamma, so gamma is their mean; the
    45 degree deficit fixes the reference-arm phase via
    vis_45 = gamma |cos(delta / 2)|.
    """
    gamma = 0.5 * (vis_0deg + vis_90deg)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"fitted mode overlap out of range: {gamma}")
    ratio = vis_45deg / gamma
    if ratio > 1.0:
        raise ValueError("45 degree visibility exceeds the 0/90 degree level; model cannot fit")
    if not ratio >= 0.0:
        raise ValueError(f"45 degree visibility must lie in [0, gamma = {gamma}], got {vis_45deg}")
    delta = 2.0 * math.acos(ratio)
    return gamma, delta


def table1_report(
    setup: MzSetup,
    input_angles: Sequence[float] = (0.0, math.pi / 4, math.pi / 2),
    v_max: float | None = None,
    n: int = 2001,
) -> list[MeasurementRecord]:
    """Fringe sweep per linear input polarization angle.

    The headline device characterization: one record per input angle with
    fitted half-wave voltage, visibility, and contrast. Requires v_max >=
    2x the crystal's nominal half-wave voltage, one full fringe period
    (None sweeps to exactly 2x), and n >= 64 samples, so the sweep holds a
    maximum and a minimum of the fringe whatever its phase. The background
    is subtracted before computing visibility; v_half_fit is the voltage
    spacing between adjacent extrema. The angles share one sweep grid, and
    each block of it goes through the loop once for all of them.
    """
    v_max = _sweep_ceiling(setup.loop.crystal, v_max)
    nominal = half_wave_voltage(setup.loop.crystal)
    if v_max < 2.0 * nominal:
        raise ValueError(
            f"sweep range {v_max:g} V too short; need one fringe period, 2 * V_half = {2.0 * nominal:g} V"
        )
    voltages = _sweep_grid(v_max, n)
    if n < 64:
        raise ValueError(f"need at least 64 sweep samples, got {n}")
    corrected = _intensities(setup, [linear_state(a) for a in input_angles], voltages)
    corrected -= setup.background
    return [_record(voltages, row) for row in corrected]
