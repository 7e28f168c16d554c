"""Transient simulation of the modulator driver: a MOSFET that discharges the
crystal capacitance through its on-resistance and a supply resistor that
recharges it toward the half-wave voltage.

The node equation is C dV/dt = (supply - V) / R - V * G(t) with the MOSFET
conductance G ramping linearly from 0 to 1/R_on over the gate rise time and
constant afterwards. Every segment is linear, so the waveform is evaluated
piecewise analytically with no stepping error:

  gate off:   V relaxes toward the supply with tau_r = R * C
  gate on:    V relaxes toward the divider supply * R_on / (R_on + R)
              with tau_d = (R_on || R) * C
  gate ramp:  integrating-factor solution; the exponential-of-quadratic
              integral is expressed through the Dawson function, which keeps
              the evaluation stable for arbitrarily long ramps.

The Dawson function is evaluated in numpy: a Taylor series near 0, the
asymptotic series far out, and in between the sampling-theorem sum of
G. B. Rybicki, "Dawson's integral and the sampling theorem", Computers in
Physics 3, 85 (1989).

The discharge is fast (tau_d ~ ns) while the recharge is slow (tau_r ~ us),
which is what limits the repetition rate of the switch.

Sample k of a waveform lies at time k * dt; the simulation and the edge
finder address samples by that grid index and never build an array of times.
Both walk the samples in fixed blocks that fit in a core's L2 cache.
``simulate``'s output starts empty, and its block walk is the only pass
over it: each block is filled with its grid indices k, turned in place into
the voltages, and checked and bounded (min, max) while it is still in cache.
A gate off or on block evaluates

  v = target + (v0 - target) * exp((k - start / dt) * (-dt / tau))

with start / dt and -dt / tau taken once per segment, so it divides no
sample and allocates nothing; a ramp block builds its offsets k * dt - start.
Each segment's end value, which starts the next segment, is the same law at
k = (end - start) / dt with start 0. On the grid dt / 2 a sample's index,
start / dt, dt / tau and (end - start) / dt are each scaled by an exact
power of two and k * dt is the same product, so sample 2k there has the
bits of sample k on the grid dt; and no sample depends on the block size.
A ``Waveform`` holds the range of its samples, taken when it is built; the
edge finder reads its levels from that range and searches block by block,
stopping at the first crossing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "DriveCircuit",
    "GateSchedule",
    "Waveform",
    "edge_time_10_90",
    "recovery_fraction",
    "simulate",
]


# Samples per block when walking a waveform: 256 KB of float64.
_BLOCK = 1 << 15
# The grid indices 0 .. _BLOCK - 1; simulate writes block a's indices as a + _INDEX.
_INDEX = np.arange(_BLOCK, dtype=float)
_INDEX.setflags(write=False)

# Largest transient grid: 10**8 samples (800 MB of float64), five times a
# 20-pulse, 200 us train at 10 ps.
_MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class DriveCircuit:
    """Driver parameters. ``supply_voltage`` is nominally the half-wave
    voltage; ``mosfet_on_r`` must be far below ``recharge_r`` (ratio < 0.01)
    or the on state cannot hold the crystal near 0 V."""

    supply_voltage: float
    recharge_r: float
    total_c: float
    mosfet_on_r: float
    gate_rise_time: float

    def __post_init__(self):
        for name in ("supply_voltage", "recharge_r", "total_c", "mosfet_on_r", "gate_rise_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"DriveCircuit.{name} must be finite and positive, got {value}")
        rate = _ramp_rate(self)
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(
                f"gate_rise_time = {self.gate_rise_time:g} s is too {'short' if rate else 'long'}: "
                f"the ramp rate 1 / (2 total_c mosfet_on_r gate_rise_time) = {rate:g} /s^2 "
                "must be finite and positive"
            )
        if not math.isfinite(self.on_state_voltage):
            raise ValueError(
                "the on-state voltage supply_voltage * mosfet_on_r / (mosfet_on_r + recharge_r) "
                f"overflows at supply_voltage = {self.supply_voltage:g} V"
            )
        for tau in (self.tau_recharge, self.tau_discharge):
            if not (math.isfinite(tau) and tau > 0.0):
                raise ValueError(
                    "the time constants recharge_r * total_c and (mosfet_on_r || recharge_r) * "
                    f"total_c must be finite and positive, got {self.tau_recharge:g} s and "
                    f"{self.tau_discharge:g} s"
                )
        if self.mosfet_on_r / self.recharge_r >= 0.01:
            raise ValueError(
                "mosfet_on_r must be below 1% of recharge_r "
                f"(got ratio {self.mosfet_on_r / self.recharge_r:.3g})"
            )

    @property
    def tau_recharge(self) -> float:
        return self.recharge_r * self.total_c

    @property
    def tau_discharge(self) -> float:
        parallel = self.mosfet_on_r * self.recharge_r / (self.mosfet_on_r + self.recharge_r)
        return parallel * self.total_c

    @property
    def on_state_voltage(self) -> float:
        """Divider voltage the crystal settles to while the MOSFET conducts."""
        return self.supply_voltage * self.mosfet_on_r / (self.mosfet_on_r + self.recharge_r)


@dataclass(frozen=True)
class GateSchedule:
    """Gate pulse train: conduction starts at each entry of ``on_times`` and
    lasts ``hold_duration`` (which must cover the rise). On times are
    non-negative: a simulation starts at t = 0 with the gate off."""

    on_times: tuple
    hold_duration: float

    def __post_init__(self):
        object.__setattr__(self, "on_times", tuple(float(t) for t in self.on_times))
        if not self.on_times:
            raise ValueError("GateSchedule needs at least one on time")
        if not all(math.isfinite(t) for t in self.on_times):
            raise ValueError(f"on_times must be finite, got {self.on_times}")
        if min(self.on_times) < 0.0:
            raise ValueError(f"on_times must be non-negative, got {self.on_times}")
        if not (math.isfinite(self.hold_duration) and self.hold_duration > 0.0):
            raise ValueError(f"hold duration must be positive, got {self.hold_duration}")
        for a, b in zip(self.on_times, self.on_times[1:]):
            if b <= a:
                raise ValueError("on_times must be strictly increasing")
            if b <= a + self.hold_duration:
                raise ValueError("gate pulses overlap after adding hold_duration")

    @classmethod
    def periodic(cls, repetition_rate: float, count: int, hold_duration: float):
        """``count`` pulses at ``repetition_rate``, the first at t = 0."""
        if isinstance(count, bool) or not hasattr(count, "__index__"):
            raise ValueError(f"the pulse count must be an integer, got {count!r}")
        if count > _MAX_SAMPLES:
            raise ValueError(f"{count} pulses exceed {_MAX_SAMPLES:g}; refusing to build the on times")
        if not (math.isfinite(repetition_rate) and repetition_rate > 0.0):
            raise ValueError(f"repetition rate must be finite and positive, got {repetition_rate}")
        period = 1.0 / repetition_rate
        return cls(tuple(i * period for i in range(count)), hold_duration)


def _finite_range(block: np.ndarray, previous: tuple | None = None) -> tuple:
    """(min, max) of a non-empty block of samples, folded into ``previous``,
    the range of the samples before it (None for the first block). Refuses a
    non-finite sample: min and max propagate NaN and reach +-inf, so checking
    the block's range checks every sample in it. The fold itself uses the
    builtin min and max, which would drop a NaN, so each block is checked."""
    lo, hi = float(block.min()), float(block.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("waveform samples must be finite")
    return (lo, hi) if previous is None else (min(previous[0], lo), max(previous[1], hi))


@dataclass(frozen=True, eq=False)
class Waveform:
    """Uniformly sampled trace (voltage or intensity) starting at t = 0.

    The samples must be a finite 1-D array. Their range (min, max) is taken
    once, when the waveform is built; an empty waveform has the range (0, 0).
    ``samples`` is a read-only copy of the array passed in, so no write to
    that array, or through ``samples``, can leave the range stale. Equality
    and hashing go by identity, as for any object holding an array."""

    dt: float
    samples: np.ndarray
    _range: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_range", _finite_range(samples) if samples.size else (0.0, 0.0))

    @classmethod
    def _owned(cls, dt: float, samples: np.ndarray, bounds: tuple) -> Waveform:
        """A waveform over ``samples``, an array the library built and holds no
        other reference to, with ``bounds`` its range from ``_finite_range``:
        no copy and no pass over the samples."""
        samples.setflags(write=False)
        waveform = object.__new__(cls)
        for name, value in (("dt", dt), ("samples", samples), ("_range", bounds)):
            object.__setattr__(waveform, name, value)
        return waveform

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.samples))


# Rybicki's sum: F(x) = pi^-1/2 sum over odd n of exp(-(x - n h)^2) / n, exact
# to ~exp(-(pi / 2h)^2) ~ 1e-27 at h = 0.2. Centred on x = n0 h + xp with n0
# the even integer nearest x / h, the offsets m = n - n0 are odd too, and the
# terms pair up as exp(-(m h)^2) (e^{2 xp m h} / (n0 + m) + e^{-2 xp m h} / (n0 - m)).
_DAWSON_H = 0.2
_DAWSON_M = np.arange(1.0, 40.0, 2.0)
_DAWSON_WEIGHTS = np.exp(-((_DAWSON_M * _DAWSON_H) ** 2)) / math.sqrt(math.pi)
_DAWSON_SHIFTS = 2.0 * _DAWSON_H * _DAWSON_M
# Series coefficients: Taylor (-2)^k / (2k + 1)!! in x^2, asymptotic (2k - 1)!!
# in 1 / (2 x^2); the first term left out is below 1e-16 on each branch.
_DAWSON_TAYLOR = np.cumprod([1.0] + [-2.0 / (2 * k + 1) for k in range(1, 9)])
_DAWSON_ASYMPTOTIC = np.cumprod([1.0] + [2.0 * k - 1 for k in range(1, 15)])


def _series(t: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] t^k, row by row."""
    return (t[:, None] ** np.arange(len(coefficients)) * coefficients).sum(axis=1)


def _dawson(x):
    """Dawson's integral F(x) = exp(-x^2) * integral_0^x exp(t^2) dt, elementwise.

    Taylor series for |x| < 0.2, Rybicki's sum up to 10, asymptotic beyond.
    Each value depends on its own input only, never on its array neighbours
    (row sums, no matrix products), so a sample is the same on every grid.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small, large = ax < 0.2, ax >= 10.0
    mid = ~(small | large)
    # count_nonzero is the cheapest emptiness test; a ramp is ~40 values, so
    # the fixed cost of each numpy call dominates.
    if np.count_nonzero(small):
        xs = ax[small]
        out[small] = xs * _series(xs * xs, _DAWSON_TAYLOR)
    if np.count_nonzero(mid):
        xm = ax[mid, None]
        n0 = 2.0 * np.rint(xm * (0.5 / _DAWSON_H))
        xp = xm - n0 * _DAWSON_H
        e = np.exp(xp * _DAWSON_SHIFTS)
        pairs = e / (n0 + _DAWSON_M) + 1.0 / (e * (n0 - _DAWSON_M))
        out[mid] = np.exp(-xp[:, 0] ** 2) * (pairs * _DAWSON_WEIGHTS).sum(axis=1)
    if np.count_nonzero(large):
        half_inv = 0.5 / ax[large]
        out[large] = half_inv * _series(2.0 * half_inv**2, _DAWSON_ASYMPTOTIC)
    return np.copysign(out, x)


def _ramp_rate(circuit: DriveCircuit) -> float:
    """q = 1 / (2 C R_on t_rise), the ramp's quadratic decay rate; inf when it
    overflows, 0 when it underflows."""
    product = 2.0 * circuit.total_c * circuit.mosfet_on_r * circuit.gate_rise_time
    return 1.0 / product if product > 0.0 else math.inf


def _relax(target: float, tau: float, v0: float, k: np.ndarray, start: float, dt: float) -> np.ndarray:
    """Gate off or fully on: V relaxes from v0 toward target with constant tau.

    Overwrites k, an array of grid indices, in place with
    target + (v0 - target) * exp((k - start / dt) * (-dt / tau)) and returns
    it. start / dt and -dt / tau are taken once per call, so no sample is
    divided."""
    k -= start / dt
    k *= -dt / tau
    np.exp(k, out=k)
    k *= v0 - target
    k += target
    return k


def _ramp(circuit: DriveCircuit, v0: float, k: np.ndarray, start: float, dt: float) -> np.ndarray:
    # dV/du = (supply/R - V (1/R + u / (R_on t_rise))) / C, u = k dt - start
    # V(u) = e^{-B} v0 + supply (p / sqrt(q)) (F(z1) - e^{-B} F(z0)), F = Dawson
    # with B = p u + q u^2, z0 = p / (2 sqrt(q)), z1 = z0 + sqrt(q) u.
    u = k * dt - start
    p = 1.0 / (circuit.recharge_r * circuit.total_c)
    q = _ramp_rate(circuit)
    sq = math.sqrt(q)
    z0 = p / (2.0 * sq)
    z1 = z0 + sq * u
    damp = np.exp(-(p * u + q * u**2))
    f = _dawson(np.append(z0, z1))
    return damp * v0 + circuit.supply_voltage * (p / sq) * (f[1:] - damp * f[0])


def _segments(circuit: DriveCircuit, gates: GateSchedule) -> list:
    """The driver's timeline: ``(start, evaluate)`` rows in time order, with
    ``evaluate(v0, k, start, dt)`` the voltage at the grid indices k (a float
    array) of the grid dt, for the segment that leaves v0 at ``start``; it
    may overwrite k, and the gate off and on rows do.

    Row 0 is the gate off from t = 0, then each pulse adds its ramp, on state
    and off state.
    """
    off = partial(_relax, circuit.supply_voltage, circuit.tau_recharge)
    on = partial(_relax, circuit.on_state_voltage, circuit.tau_discharge)
    ramp = partial(_ramp, circuit)
    rows = [(0.0, off)]
    for start in gates.on_times:
        rows += [(start, ramp), (start + circuit.gate_rise_time, on),
                 (start + gates.hold_duration, off)]
    return rows


def simulate(
    circuit: DriveCircuit,
    gates: GateSchedule,
    t_end: float,
    dt: float,
    v_start: float,
) -> Waveform:
    """Voltage across the modulator on a uniform grid from 0 to ``t_end``.

    ``dt`` must resolve the fast discharge edge: dt < R_on * C / 10. A grid
    of more than 10**8 samples is refused before anything is allocated. On
    times are non-negative, so the gate is off at t = 0 and the waveform
    starts from ``v_start``, which has no 0 V default.

    Beyond one block's temporaries in a gate ramp, the output is the only
    allocation, and it is written once: it starts empty, and each block is
    filled with its grid indices, overwritten in place with its voltages and
    checked and bounded while it is in cache, so the waveform's range needs
    no pass of its own. Each sample is a function of its grid index through
    per-segment scalars that scale by exact powers of two with dt, so
    halving dt keeps every other sample bit for bit.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if dt >= circuit.mosfet_on_r * circuit.total_c / 10.0:
        raise ValueError(
            f"dt = {dt:g} too coarse to resolve the discharge; "
            f"need dt < mosfet_on_r * total_c / 10 = {circuit.mosfet_on_r * circuit.total_c / 10.0:g}"
        )
    if gates.hold_duration <= circuit.gate_rise_time:
        raise ValueError("hold_duration must exceed the gate rise time")
    if not (-0.01 * circuit.supply_voltage <= v_start <= 1.01 * circuit.supply_voltage):
        raise ValueError("v_start outside the physical voltage range")

    if t_end / dt >= _MAX_SAMPLES:
        raise ValueError(
            f"t_end / dt = {t_end / dt:.3g} exceeds {_MAX_SAMPLES:g} samples; refusing to allocate the grid"
        )

    segments = [row for row in _segments(circuit, gates) if row[0] < t_end]

    grid = range(math.floor(t_end / dt) + 1)
    samples = np.empty(len(grid))
    bounds = None
    v0 = float(v_start)
    for (start, evaluate), (end, _) in zip(segments, segments[1:] + [(math.inf, None)]):
        lo = bisect_left(grid, start, key=lambda k: k * dt)
        hi = bisect_left(grid, end, key=lambda k: k * dt)
        for a in range(lo, hi, _BLOCK):
            block = samples[a : min(a + _BLOCK, hi)]
            np.add(_INDEX[: len(block)], a, out=block)
            block[...] = evaluate(v0, block, start, dt)
            bounds = _finite_range(block, bounds)
        # The segment's end value starts the next one (unused after the last
        # segment, where end is inf): the same law at the end's offset from
        # the start, in grid steps.
        v0 = float(evaluate(v0, np.array([(end - start) / dt]), 0.0, dt)[0])
    return Waveform._owned(dt, samples, bounds)


def recovery_fraction(circuit: DriveCircuit, repetition_rate: float, hold_duration: float) -> float:
    """Steady-state pre-pulse voltage as a fraction of the supply.

    Closed form 1 - exp(-t_recharge / tau_r) with t_recharge = period - hold,
    assuming each pulse discharges the crystal fully; the divider residual
    shifts this by less than mosfet_on_r / recharge_r. Cross-validated
    against ``simulate`` in the test suite.
    """
    if not (math.isfinite(repetition_rate) and repetition_rate > 0.0):
        raise ValueError(f"repetition rate must be positive, got {repetition_rate}")
    if not (math.isfinite(hold_duration) and hold_duration >= 0.0):
        raise ValueError(f"hold duration must be finite and non-negative, got {hold_duration}")
    period = 1.0 / repetition_rate
    if period <= hold_duration:
        raise ValueError(
            f"period {period:g} s must exceed the hold duration {hold_duration:g} s"
        )
    return 1.0 - math.exp(-(period - hold_duration) / circuit.tau_recharge)


def edge_time_10_90(waveform: Waveform, falling: bool) -> float:
    """Duration of the first 10%-to-90% transition of a monotone edge.

    Levels are taken at 10% and 90% of the waveform's full span, the range
    the waveform took when it was built, so finding them reads no sample.
    For a falling edge the 90% level must be crossed first; thresholds are
    located by linear interpolation between the bracketing samples. Raises
    ValueError("no edge found") when the waveform never spans both levels.
    """
    values = waveform.samples
    lo, hi = waveform._range
    if hi <= lo:
        raise ValueError("no edge found: waveform is constant")
    level_10 = lo + 0.1 * (hi - lo)
    level_90 = lo + 0.9 * (hi - lo)
    first, second = (level_90, level_10) if falling else (level_10, level_90)

    def crossing(start: int, level: float, which: str) -> tuple[int, float]:
        # First k >= max(start, 1) with the level between samples k-1 and k,
        # searched block by block so that the search ends with the first hit.
        n = len(values)
        for a in range(max(start, 1), n, _BLOCK):
            b = min(a + _BLOCK, n)
            prev, cur = values[a - 1 : b - 1], values[a:b]
            hits = (prev >= level) & (level > cur) if falling else (prev <= level) & (level < cur)
            k = a + int(np.argmax(hits))
            if hits[k - a]:
                break
        else:
            raise ValueError(f"no edge found: {which} threshold never crossed")
        t_prev = waveform.dt * (k - 1)
        t_k = waveform.dt * k
        frac = (level - values[k - 1]) / (values[k] - values[k - 1])
        return k, float(t_prev + frac * (t_k - t_prev))

    k, t_first = crossing(0, first, "first")
    return crossing(k, second, "second")[1] - t_first
