"""Command-line front end.

    sagnacsim <command> --config FILE --out FILE

Commands: device-matrix, independence-scan, table1, transient, recovery,
loss. Each computes a table, then writes it as a CSV report and prints a
one-line summary; a command that fails writes no CSV. Exit codes: 0 ok,
1 usage, 2 configuration error (a value refused while the scene builds its
objects, named by its section), 3 runtime/domain error (a refusal that needs
the run: sweep ceiling, time step, hold or repetition period). Output is
byte-identical across runs for identical inputs (fixed 12-significant-digit
float formatting, '\\n' line endings).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import bench as _bench
from .bench import insertion_loss, switching_trace, table1_report
from .circuit import recovery_fraction
from .config import ConfigError, SceneConfig, parse_config
from .elements import half_wave_voltage
from .loop import LoopLayout, device_matrix, independence_scan

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _scan_voltages(cfg: SceneConfig, layout: LoopLayout) -> np.ndarray:
    return _bench._sweep_grid(_bench._sweep_ceiling(layout.crystal, cfg.scan.v_max), cfg.scan.samples)


# What a runner returns: the CSV header, its rows and the summary line.
_Report = tuple[Sequence[str], Sequence[Sequence[float]], str]


def _run_device_matrix(cfg: SceneConfig) -> _Report:
    layout = cfg.loop_layout()
    voltages = _scan_voltages(cfg, layout)
    matrices = device_matrix(layout, voltages)
    rows = np.column_stack([voltages, matrices.reshape(-1, 4).view(float)]).tolist()
    header = ["voltage_V", "m00_re", "m00_im", "m01_re", "m01_im",
              "m10_re", "m10_im", "m11_re", "m11_im"]
    v_half = half_wave_voltage(layout.crystal)
    return header, rows, f"device-matrix: {len(voltages)} voltages, v_half={_fmt(v_half)} V"


def _run_independence_scan(cfg: SceneConfig) -> _Report:
    layout = cfg.loop_layout()
    points = independence_scan(layout, _scan_voltages(cfg, layout))
    worst = points.infidelity.max()
    header = ["voltage_V", "phase_rad_unwrapped", "infidelity", "portA_power"]
    return header, points.tolist(), f"independence-scan: {len(points)} voltages, max_infidelity={worst:.3e}"


def _run_table1(cfg: SceneConfig) -> _Report:
    angles_deg = (0.0, 45.0, 90.0)
    sweep = cfg.sweep
    records = table1_report(
        cfg.mz_setup(), [math.radians(a) for a in angles_deg], v_max=sweep.v_max, n=sweep.samples
    )
    rows = [
        [deg, r.v_half_fit, r.visibility, r.contrast_ratio, r.contrast_db]
        for deg, r in zip(angles_deg, records)
    ]
    summary = " ".join(
        f"{deg:g}deg={r.visibility:.4f}" for deg, r in zip(angles_deg, records)
    )
    header = ["pol_deg", "v_half_V", "visibility", "contrast_ratio", "contrast_db"]
    return header, rows, f"table1: visibility {summary}"


def _run_transient(cfg: SceneConfig) -> _Report:
    setup, circuit = cfg.mz_setup(), cfg.drive_circuit()
    gates, state = cfg.gate_schedule(), cfg.input_state()
    result = switching_trace(setup, state, circuit, gates, cfg.trace.t_end, cfg.trace.dt)
    times = result.voltage.times
    rows = np.column_stack([times, result.voltage.samples, result.intensity.samples]).tolist()
    return ["t_s", "v_V", "intensity"], rows, f"transient: optical_10_90={_fmt(result.optical_10_90)} s"


def _run_recovery(cfg: SceneConfig) -> _Report:
    circuit = cfg.drive_circuit()
    rec = cfg.recovery
    # One decade either side of the configured rate. recovery_fraction
    # refuses a period that does not exceed the hold: the table leaves those
    # rates out, and only the configured rate must fit, so the lower half of
    # the table fits too.
    low, high = rec.repetition_rate / 10, rec.repetition_rate * 10
    if not (low > 0.0 and math.isfinite(high)):
        raise ValueError(
            f"repetition_rate = {rec.repetition_rate:g} Hz: the table's decade bounds"
            f" {low:g} and {high:g} Hz must be finite and positive"
        )
    rates = np.geomspace(low, high, 61)
    rows = [[rate, recovery_fraction(circuit, rate, rec.hold)] for rate in rates if 1.0 / rate > rec.hold]
    fraction = recovery_fraction(circuit, rec.repetition_rate, rec.hold)
    return ["repetition_rate_hz", "recovery_fraction"], rows, f"recovery_fraction={fraction:.5f}"


def _run_loss(cfg: SceneConfig) -> _Report:
    transmissions = [element.transmission for element in cfg.loss_chain()]
    rows = [
        [float(i), t, insertion_loss(transmissions[: i + 1])]
        for i, t in enumerate(transmissions)
    ]
    return ["index", "transmission", "cumulative_db"], rows, f"insertion_loss_db={_fmt(rows[-1][2])}"


_RUNNERS = {
    "device-matrix": _run_device_matrix,
    "independence-scan": _run_independence_scan,
    "table1": _run_table1,
    "transient": _run_transient,
    "recovery": _run_recovery,
    "loss": _run_loss,
}
_COMMANDS = tuple(_RUNNERS)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sagnacsim", description="Sagnac-loop phase shifter simulator")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="scene configuration file")
    parser.add_argument("--out", required=True, help="output CSV path")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 2 after a usage error, 0 after --help
        return 1 if exc.code else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        header, rows, summary = _RUNNERS[args.command](cfg)
        _write_csv(args.out, header, rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
