"""Line-oriented scene configuration: INI-style sections, ``key = value``
lines, ``#`` comments, and SI-suffixed numbers (p, n, u, m, k, M).

``parse_config`` is strict: unknown sections or keys and malformed numbers
fail with a diagnostic naming the line and key. A value outside its range
fails later, naming its section, when a ``SceneConfig`` method builds that
section's library object. ``render_config`` writes a canonical text that
parses back to an equal configuration.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, get_args, get_type_hints

import numpy as np

from .bench import MzSetup
from .circuit import DriveCircuit, GateSchedule
from .elements import CrystalSpec, LossElement, half_wave_voltage
from .loop import LoopLayout, build_default_loop
from .polarization import linear_state

__all__ = [
    "ConfigError",
    "SceneConfig",
    "parse_config",
    "render_config",
]

# Each SI suffix as a power of ten. The mantissa is scaled by the exact 10**k
# (divided by it for the negative ones), so '30n' parses to 30e-9 exactly.
_SI_EXPONENTS = {"p": -12, "n": -9, "u": -6, "m": -3, "k": 3, "M": 6}

# Largest [scan]/[sweep] sample count: 500 times the largest shipped value,
# and far below a request that would exhaust memory (1e10 samples is 80 GB).
_MAX_SCENE_SAMPLES = 10**6


class ConfigError(ValueError):
    """Configuration problem with a line/key diagnostic."""


def _parse_number(text: str) -> float:
    """Float with an optional SI suffix: '50p' -> 5e-11, '20k' -> 2e4."""
    text = text.strip()
    try:
        mantissa, exponent = float(text[:-1]), _SI_EXPONENTS[text[-1:]]
        value = mantissa * 10.0**exponent if exponent > 0 else mantissa / 10.0**-exponent
    except (ValueError, KeyError):
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"malformed number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"number must be finite, got {text!r}")
    return value


@dataclass(frozen=True)
class CrystalConfig:
    length_L: float
    thickness_d: float
    wavelength: float
    n_e: float
    r33: float


@dataclass(frozen=True)
class LoopConfig:
    fr_angle_deg: float = 45.0
    hwp_angle_deg: float = 22.5


@dataclass(frozen=True)
class MzConfig:
    mode_overlap: float = 1.0
    ref_phase_deg: float = 0.0
    background: float = 0.0
    arm_imbalance: float = 1.0


@dataclass(frozen=True)
class CircuitConfig:
    R: float
    C: float
    mosfet_on_R: float
    supply_voltage: Optional[float] = None
    gate_rise_time: float = 400e-12


@dataclass(frozen=True)
class ScanConfig:
    v_max: Optional[float] = None
    samples: int = 101


@dataclass(frozen=True)
class SweepConfig:
    v_max: Optional[float] = None
    samples: int = 1001


@dataclass(frozen=True)
class TraceConfig:
    t_end: float = 30e-9
    dt: float = 10e-12
    gate_on: float = 2e-9
    hold: float = 1e-6
    input_angle_deg: float = 0.0


@dataclass(frozen=True)
class RecoveryConfig:
    repetition_rate: float = 100e3
    hold: float = 0.0


@dataclass(frozen=True)
class LossConfig:
    transmissions: tuple


@dataclass(frozen=True)
class SceneConfig:
    """A parsed scene. A section with required keys is None when omitted;
    every other section then holds its defaults."""

    crystal: Optional[CrystalConfig] = None
    loop: LoopConfig = LoopConfig()
    mz: MzConfig = MzConfig()
    circuit: Optional[CircuitConfig] = None
    scan: ScanConfig = ScanConfig()
    sweep: SweepConfig = SweepConfig()
    trace: TraceConfig = TraceConfig()
    recovery: RecoveryConfig = RecoveryConfig()
    loss: Optional[LossConfig] = None

    @contextlib.contextmanager
    def _building(self, name: str):
        """Yield section ``name``, refused if missing. A ``ValueError`` inside
        becomes a ``ConfigError`` naming it; a ``ConfigError`` passes through."""
        section = getattr(self, name)
        if section is None:
            raise ConfigError(f"missing required section [{name}]")
        try:
            yield section
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None

    def crystal_spec(self) -> CrystalSpec:
        with self._building("crystal") as c:
            return CrystalSpec(c.length_L, c.thickness_d, c.wavelength, c.n_e, c.r33)

    def loop_layout(self) -> LoopLayout:
        """The paper's loop at the configured pair angles. Splitter
        extinction, a residual modulator phase and the ``ccw`` orientation
        are ``build_default_loop`` arguments of the library, not keys."""
        return build_default_loop(
            self.crystal_spec(),
            fr_angle=math.radians(self.loop.fr_angle_deg),
            hwp_angle=math.radians(self.loop.hwp_angle_deg),
        )

    def mz_setup(self) -> MzSetup:
        with self._building("mz") as mz:
            ref_arm = np.diag([1.0, np.exp(1j * math.radians(mz.ref_phase_deg))])
            return MzSetup(self.loop_layout(), ref_arm, mz.mode_overlap, mz.background, mz.arm_imbalance)

    def drive_circuit(self) -> DriveCircuit:
        with self._building("circuit") as cc:
            supply = cc.supply_voltage
            if supply is None:
                supply = half_wave_voltage(self.crystal_spec())
            return DriveCircuit(supply, cc.R, cc.C, cc.mosfet_on_R, cc.gate_rise_time)

    def gate_schedule(self) -> GateSchedule:
        with self._building("trace") as tr:
            return GateSchedule((tr.gate_on,), tr.hold)

    def input_state(self) -> np.ndarray:
        with self._building("trace") as tr:
            return linear_state(math.radians(tr.input_angle_deg))

    def loss_chain(self) -> tuple:
        """One ``LossElement`` per [loss] transmission."""
        with self._building("loss") as loss:
            return tuple(LossElement(t) for t in loss.transmissions)


def _kind(hint):
    """The type an annotation names, with Optional stripped."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


# The dataclasses are the one declaration of the format: SceneConfig's fields
# name the sections, and each section's fields name its keys and their kinds
# (tuple of numbers, int or float).
_SECTIONS = {name: _kind(hint) for name, hint in get_type_hints(SceneConfig).items()}
_KEY_KINDS = {
    name: {key: _kind(hint) for key, hint in get_type_hints(cls).items()}
    for name, cls in _SECTIONS.items()
}


def _convert(section: str, key: str, raw: str, lineno: int):
    kind = _KEY_KINDS[section][key]
    try:
        if kind is tuple:
            items = [part for part in raw.split(",") if part.strip()]
            if not items:
                raise ValueError("empty list")
            return tuple(_parse_number(part) for part in items)
        value = _parse_number(raw)
        if kind is int:
            if not (value.is_integer() and 1 <= value <= _MAX_SCENE_SAMPLES):
                raise ValueError(
                    f"must be a positive integer no larger than {_MAX_SCENE_SAMPLES}, got {raw.strip()!r}"
                )
            return int(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: key '{key}' in [{section}]: {exc}") from None


def parse_config(text: str) -> SceneConfig:
    """Parse configuration text into a SceneConfig.

    Defaults are filled in for omitted optional keys, and an omitted section
    without required keys ([loop], [mz], [scan], [sweep], [trace],
    [recovery]) takes all its defaults; required keys of a present section
    must appear. ``samples`` must be a positive integer no larger than
    1000000. Unknown sections/keys and duplicate keys are rejected with the
    offending line number.
    """
    raw_sections: dict[str, dict[str, object]] = {}
    current: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.endswith("]") and len(line) > 2):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in raw_sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            raw_sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_KINDS[current]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{current}]")
        if key in raw_sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
        raw_sections[current][key] = _convert(current, key, raw_value, lineno)

    built: dict[str, object] = {}
    for name, values in raw_sections.items():
        cls = _SECTIONS[name]
        required = {
            f.name for f in fields(cls) if f.default is MISSING and f.name not in values
        }
        if required:
            missing = ", ".join(sorted(required))
            raise ConfigError(f"section [{name}] is missing required key(s): {missing}")
        built[name] = cls(**values)
    return SceneConfig(**built)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return repr(float(value))


def render_config(config: SceneConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) equals c."""
    lines: list[str] = []
    for name in _SECTIONS:
        section = getattr(config, name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        for f in fields(section):
            value = getattr(section, f.name)
            if value is None:
                continue
            lines.append(f"{f.name} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)
