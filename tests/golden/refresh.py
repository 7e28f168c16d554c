"""Golden-output manifest: the bytes every CLI run, demo and library entry
point writes.

    PYTHONPATH=src python tests/golden/refresh.py          # rewrite manifest.json
    PYTHONPATH=src python tests/golden/refresh.py --check  # print differences, exit 1 on any

The manifest holds the exit code and the SHA-256 of the CSV, stdout and
stderr of each of the 24 CLI runs (six commands x the two shipped configs x
as shipped / a ``small`` variant scene file with a 250 V sweep ceiling and a
35 ns trace at 5 ps steps), and of each demo's stdout, stderr and written
files, all run in process with every warning an error. Next to each CSV hash
sits a fingerprint (row count, header, and each column's min, max and sum as
``repr`` floats), so a broken hash names the column that moved. The library
slice holds the compiled parts of a fixed set of layouts as one SHA-256,
their ``device_matrix`` stacks and ``independence_scan`` records as two more,
the ``global_phase_decompose`` and ``scaled_identity_infidelity`` results
of a seeded corpus of transforms as two more, and the ``table1_report``,
``sweep_curve``, ``switching_trace`` and ``fit_mosfet_on_r`` results on both
configs, the ``sweep_curve`` fringes of a few seeded imperfect
interferometers and the ``simulate`` samples of a few seeded driver
transients, as ``repr`` floats or as an array's SHA-256 next to its min, max
and sum. The stamp records where the manifest was
written; rounding can differ elsewhere.
Rewriting the manifest changes what tier-1 checks: name each changed entry
and its reason in CHANGES.md.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import runpy
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from sagnacsim import (
    DriveCircuit,
    Eom,
    FaradayRotator,
    GateSchedule,
    HalfWavePlate,
    LoopLayout,
    LossElement,
    Mirror,
    MzSetup,
    Pbs,
    build_default_loop,
    device_matrix,
    fit_mosfet_on_r,
    global_phase_decompose,
    half_wave_voltage,
    independence_scan,
    linear_state,
    parse_config,
    render_config,
    rotation,
    scaled_identity_infidelity,
    simulate,
    sweep_curve,
    switching_trace,
    table1_report,
)
from sagnacsim.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).with_name("manifest.json")
CONFIGS = ("ideal.ini", "fitted.ini")
DEMOS = tuple(sorted(p.name for p in (ROOT / "demos").glob("*.py")))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(data: bytes) -> dict:
    """Row count, header and per-column (min, max, sum) of a numeric CSV."""
    header, *rows = [line.split(",") for line in data.decode("utf-8").splitlines()]
    columns = {}
    for name, values in zip(header, zip(*rows)):
        values = [float(v) for v in values]
        columns[name] = [repr(min(values)), repr(max(values)), repr(sum(values))]
    return {"rows": len(rows), "header": header, "columns": columns}


def _file_entry(path: Path) -> dict:
    data = path.read_bytes()
    entry = {"sha256": _sha(data)}
    if path.suffix == ".csv":
        entry["fingerprint"] = fingerprint(data)
    return entry


@contextlib.contextmanager
def _isolated(workdir: Path):
    """Run in ``workdir`` with stdout and stderr captured and every warning
    an error, as ``python -W error`` would."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            yield out, err
    finally:
        os.chdir(previous)


def run_cli(args: tuple, workdir: Path) -> dict:
    """Entry of one in-process CLI run, its CSV written in ``workdir``."""
    csv = workdir / "out.csv"
    with _isolated(workdir) as (out, err):
        code = main([*args, "--out", str(csv)])
    entry = {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "csv": None,
    }
    if csv.exists():
        entry["csv"] = _file_entry(csv)
        csv.unlink()
    return entry


def run_demo(script: str, workdir: Path) -> tuple[str, dict]:
    """A demo's printed text and its entry; it writes its files into the
    empty directory ``workdir``."""
    with _isolated(workdir) as (out, err):
        runpy.run_path(str(ROOT / "demos" / script), run_name="__main__")
    entry = {
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": {p.name: _file_entry(p) for p in sorted(workdir.iterdir())},
    }
    return out.getvalue(), entry


def cli_entries() -> dict:
    """Entries of the 24 CLI runs, keyed by command, config and grid."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        scenes = {}
        for config in CONFIGS:
            shipped = ROOT / "demos" / "configs" / config
            cfg = parse_config(shipped.read_text(encoding="utf-8"))
            small = replace(cfg, scan=replace(cfg.scan, v_max=250.0), sweep=replace(cfg.sweep, v_max=250.0),
                            trace=replace(cfg.trace, t_end=35e-9, dt=5e-12))
            scenes[config] = shipped
            scenes[f"{config} small"] = Path(tmp) / f"small_{config}"
            scenes[f"{config} small"].write_text(render_config(small), encoding="utf-8")
        for command in _COMMANDS:
            for name, path in scenes.items():
                entries[f"{command} {name}"] = run_cli((command, "--config", str(path)), Path(tmp))
    return entries


def _random_layout(rng: np.random.Generator, crystal) -> LoopLayout:
    """A layout of up to three wave plates, rotators, mirrors and losses on
    each side of the modulator; each extinction is zero half the time, and
    angles sit on a multiple of pi / 4 a quarter of the time."""

    def angle() -> float:
        return rng.integers(-4, 5) * math.pi / 4 if rng.random() < 0.25 else rng.uniform(-math.pi, math.pi)

    def element():
        kind = rng.integers(4)
        if kind == 0:
            return HalfWavePlate(angle())
        if kind == 1:
            return FaradayRotator(angle())
        if kind == 2:
            return Mirror(angle())
        return LossElement(rng.uniform(0.5, 1.0))

    pbs = Pbs(*(0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.29) for _ in range(2)))
    eom = Eom(crystal, axis=("H", "V")[rng.integers(2)])
    before = [element() for _ in range(rng.integers(4))]
    after = [element() for _ in range(rng.integers(4))]
    return LoopLayout(pbs, (*before, eom, *after))


def _array_entry(values: np.ndarray) -> dict:
    return {
        "sha256": _sha(values.tobytes()),
        "range": [repr(float(values.min())), repr(float(values.max())), repr(float(values.sum()))],
    }


def _transients(rng: np.random.Generator) -> dict:
    """Seeded driver transients, keyed by name: (circuit, gates, t_end, dt,
    v_start). Trains of 2-5 pulses, one train whose on times are shifted by
    up to five discharge time constants, one whose hold is less than 1%
    above the rise time, and one grid of 110 000 samples (on times shifted
    by up to two), more than three blocks of 32 768 and ending in a partial
    one."""
    cases = {}
    specs = [(f"train{k}", k, 0.0, rng.uniform(0.01, 2.0), 4000) for k in range(2, 6)]
    specs += [("gate_delay", 3, rng.uniform(0.5, 5.0), rng.uniform(0.01, 2.0), 4000),
              ("tight_hold", 3, 0.0, rng.uniform(0.001, 0.009), 4000),
              ("long_grid", 4, rng.uniform(0.0, 2.0), rng.uniform(0.01, 2.0), 110_000)]
    for name, pulses, shift, margin, n in specs:
        on_r = rng.uniform(5.0, 150.0)
        tau_on = on_r * 50e-12
        circuit = DriveCircuit(rng.uniform(1.0, 200.0), 20e3, 50e-12, on_r,
                               tau_on * rng.uniform(0.1, 3.0))
        dt = tau_on / 10.0 * rng.uniform(0.2, 0.95)
        t_end = dt * (n - 0.5)
        period = t_end / (pulses + 1)
        on_times = tuple(period * (i + rng.uniform(0.2, 0.8)) + tau_on * shift
                         for i in range(pulses))
        gates = GateSchedule(on_times, circuit.gate_rise_time * (1.0 + margin))
        cases[name] = (circuit, gates, t_end, dt, circuit.supply_voltage * rng.uniform(0.0, 1.0))
    return cases


def _imperfect_setups(rng: np.random.Generator, crystal) -> list:
    """Seeded interferometers around random layouts, each with a mode
    overlap below 1, a reference-arm phase diag(1, e^{i delta}), a
    background and an arm imbalance."""
    return [
        MzSetup(
            _random_layout(rng, crystal),
            np.diag([1.0, np.exp(1j * rng.uniform(-math.pi, math.pi))]),
            rng.uniform(0.5, 1.0),
            rng.uniform(0.0, 0.05),
            rng.uniform(0.5, 2.0),
        )
        for _ in range(4)
    ]


def _evaluator_entry(layouts: list, voltages: np.ndarray) -> dict:
    """One SHA-256 over the ``device_matrix`` stacks and one over the
    ``independence_scan`` record bytes of ``layouts`` at ``voltages``.

    A layout whose port B goes dark at some voltage is left out until
    ROADMAP item 5 decides what a dark port reports. Of the 1 004 layouts,
    six do: four random ones whose port B carries only rounding residue at
    every voltage, and the two defaults with hwp_angle = 0, dark at V_half.
    Each reads below 1e-28 of its throughput there and every other row above
    1e-12, so the floor of 1e-20 sits in a wide gap."""
    matrices, scans = hashlib.sha256(), hashlib.sha256()
    lit = 0
    for layout in layouts:
        stack = device_matrix(layout, voltages)
        port_power = np.square(np.abs(stack)).sum(axis=(1, 2))
        if port_power.min() < 1e-20 * np.square(np.abs(layout._parts)).sum():
            continue
        matrices.update(stack.tobytes())
        scans.update(independence_scan(layout, voltages).tobytes())
        lit += 1
    return {"layouts": lit, "device_matrix": matrices.hexdigest(), "independence_scan": scans.hexdigest()}


def _haar_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-random 2x2 unitaries e^{i alpha} [[a, -b*], [b, a*]], with
    (a, b) uniform on the unit sphere of C^2, built without LAPACK."""
    z = rng.normal(size=(n, 4))
    z /= np.sqrt(np.square(z).sum(axis=1))[:, None]
    a, b = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    u = np.stack([a, -b.conj(), b, a.conj()], axis=1).reshape(n, 2, 2)
    return u * np.exp(1j * rng.uniform(-math.pi, math.pi, n))[:, None, None]


def _polarization_matrices(rng: np.random.Generator) -> list:
    """A seeded corpus of 1 978 nonzero 2x2 transforms: rotations, diagonal
    phases and anti-diagonals at multiples of pi / 8, whose entries tie in
    modulus exactly or within an ulp; Haar unitaries at eleven scales from
    1e-300 to 1.7e308; Haar unitaries at two subnormal scales; and complex
    Gaussian matrices."""
    eighths = [cmath.exp(1j * k * math.pi / 8) for k in range(16)]
    matrices = [rotation(k * math.pi / 8) for k in range(16)]
    matrices += [np.diag([a, b]) for a in eighths for b in eighths]
    matrices += [np.array([[0.0, a], [b, 0.0]]) for a in eighths for b in eighths]
    for scale in (1e-300, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200, 1e300, 1e308, 1.7e308):
        matrices += list(_haar_unitaries(rng, 50) * scale)
    for scale in (5e-314, 1e-318):
        matrices += list(_haar_unitaries(rng, 200) * scale)
    matrices += list(rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2)))
    return matrices


def _polarization_entry(matrices: list) -> dict:
    """One SHA-256 over the ``global_phase_decompose`` phases and residuals
    of ``matrices`` and one over their ``scaled_identity_infidelity``."""
    decompositions = hashlib.sha256()
    for m in matrices:
        phase, residual = global_phase_decompose(m)
        decompositions.update(np.float64(phase).tobytes() + residual.tobytes())
    infidelities = np.array([scaled_identity_infidelity(m) for m in matrices])
    return {
        "matrices": len(matrices),
        "global_phase_decompose": decompositions.hexdigest(),
        "scaled_identity_infidelity": _sha(infidelities.tobytes()),
    }


def library_entries() -> dict:
    """Entries of the library's compiled parts and bench results."""
    scenes = {name: parse_config((ROOT / "demos" / "configs" / name).read_text(encoding="utf-8"))
              for name in CONFIGS}
    crystal = scenes["ideal.ini"].crystal_spec()
    rng = np.random.default_rng(2025)
    layouts = [_random_layout(rng, crystal) for _ in range(1000)]
    layouts += [
        build_default_loop(crystal, hwp_angle=math.radians(hwp), rotated_beam=beam)
        for beam in ("cw", "ccw") for hwp in (22.5, 0.0)
    ]
    parts = hashlib.sha256()
    for layout in layouts:
        parts.update(layout._parts.tobytes())
    entries = {"parts": {"layouts": len(layouts), "sha256": parts.hexdigest()}}
    entries["evaluators"] = _evaluator_entry(layouts, np.linspace(0.0, 2.0 * half_wave_voltage(crystal), 101))
    entries["sweep_curve"] = {
        f"setup{k} {angle}deg": _array_entry(sweep_curve(setup, linear_state(math.radians(angle)), None, 2001)[1])
        for k, setup in enumerate(_imperfect_setups(np.random.default_rng(28), crystal))
        for angle in (0, 45)
    }
    entries["polarization"] = _polarization_entry(_polarization_matrices(np.random.default_rng(30)))
    entries["simulate"] = {
        name: _array_entry(simulate(circuit, gates, t_end, dt, v_start=v_start).samples)
        for name, (circuit, gates, t_end, dt, v_start) in _transients(np.random.default_rng(26)).items()
    }
    for name, cfg in scenes.items():
        setup, circuit, gates, state = cfg.mz_setup(), cfg.drive_circuit(), cfg.gate_schedule(), cfg.input_state()
        entries[name] = {
            "table1": {
                str(n): [[repr(r.i_on), repr(r.i_off), repr(r.v_half_fit)]
                         for r in table1_report(setup, v_max=cfg.sweep.v_max, n=n)]
                for n in (64, 2001, 32769, 100003)
            },
            "sweep_curve": _array_entry(sweep_curve(setup, linear_state(math.pi / 4), None, 50001)[1]),
            "switching_trace": {},
            "fit_mosfet_on_r": repr(fit_mosfet_on_r(setup, state, circuit, gates, 40e-9, 10e-12, 1.6e-9)),
        }
        for t_end in (40e-9, 1e-6):
            result = switching_trace(setup, state, circuit, gates, t_end, 10e-12)
            entries[name]["switching_trace"][repr(t_end)] = {
                "voltage": _array_entry(result.voltage.samples),
                "intensity": _array_entry(result.intensity.samples),
                "edge": repr(result.optical_10_90),
            }
    return entries


def build() -> dict:
    """The whole manifest: the stamp, the CLI runs, the demos and the
    library entries."""
    demos = {}
    for script in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            demos[script] = run_demo(script, Path(tmp))[1]
    stamp = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}
    return {"stamp": stamp, "cli": cli_entries(), "demos": demos, "library": library_entries()}


def differences(expected, actual, where: str = "") -> list[str]:
    """One line per value of ``actual`` that differs from ``expected``. A
    CSV whose hash moved is reported by its fingerprint's moved columns."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if "fingerprint" in expected and "fingerprint" in actual and expected != actual:
            found = differences(expected["fingerprint"], actual["fingerprint"], where)
            return found or [f"{where}: sha256 {expected['sha256'][:12]} -> {actual['sha256'][:12]}"]
        found = []
        for key in sorted(expected.keys() | actual.keys()):
            if key not in actual or key not in expected:
                found.append(f"{where}/{key}: {'missing' if key not in actual else 'unexpected'}")
            else:
                found += differences(expected[key], actual[key], f"{where}/{key}")
        return found
    return [] if expected == actual else [f"{where}: {expected!r} -> {actual!r}"]


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    current = build()
    if sys.argv[1:] == ["--check"]:
        manifest = load()
        stamps = manifest.pop("stamp"), current.pop("stamp")
        found = differences(manifest, current)
        if found and stamps[0] != stamps[1]:
            found.append(f"written on {stamps[0]}, checked on {stamps[1]}")
        print("\n".join(found) or "no differences")
        sys.exit(1 if found else 0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    MANIFEST.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
