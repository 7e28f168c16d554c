"""The three benchmark workloads: seeded inputs, timed operations and checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned, like a researcher waiting on each
result. Work runs in rounds. A round has a fixed structure (which
operations, at which sizes), so every count the traced run takes per round
is the same for every round and every seed; the seed only draws the values
(layouts, voltages, hold times) and the order.

The library receives only the generated inputs. Outputs are checked after
the round, outside the timed region, against public functions and known
physics of the shipped scenes.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

from sagnacsim import bench, circuit, config, elements, loop, polarization

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {name: ROOT / "demos" / "configs" / f"{name}.ini" for name in ("ideal", "fitted")}

# Scans and tables at the fitted scene's sweep size: a 30 s run holds some 50
# rounds, so the op with 10 beyond it is a scan.
FULL = {"scan_n": 2001, "table1_n": 2001, "pulses": 20}
TINY = {"scan_n": 101, "table1_n": 101, "pulses": 2}

# The input polarizations of the CLI's and the demos' fringe table.
ANGLES = (0.0, math.pi / 4, math.pi / 2)
TOL = 1e-12
# Known results of the fitted scene (demos/configs/fitted.ini).
FITTED_VISIBILITY = (0.954, 0.933, 0.954)
FITTED_EDGE_S = 1.597e-9
FITTED_R_ON = 23.5
FITTED_RECOVERY = 0.99995
FIT_TARGET_EDGE_S = 1.6e-9
CHILD_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed call. ``voltages``: drive voltages it maps through the loop;
    ``trace_samples``: driver-waveform samples it produces; ``layout``: the
    loop layout it uses (None if it uses none), for the repeat share."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    voltages: int = 0
    trace_samples: int = 0
    layout: Hashable | None = None
    trace_file: Path | None = None


def load_scene(name: str) -> config.SceneConfig:
    return config.parse_config(CONFIGS[name].read_text(encoding="utf-8"))


def mz_setup(layout: loop.LoopLayout, mz: config.MzConfig) -> bench.MzSetup:
    ref = np.diag([1.0, np.exp(1j * math.radians(mz.ref_phase_deg))])
    return bench.MzSetup(
        loop=layout,
        ref_arm=ref,
        mode_overlap=mz.mode_overlap,
        background=mz.background,
        arm_imbalance=mz.arm_imbalance,
    )


def _samples(n: int) -> tuple[int, ...]:
    return (0, n // 2, n - 1)


def _power(state) -> float:
    return float(np.vdot(state, state).real)


def check_conservation(layout, voltage: float, transmission: float) -> None:
    """|B|^2 + |A|^2 equals the product of the loss transmissions."""
    for s in (polarization.H, polarization.V):
        port_b, port_a = loop.trace_ports(layout, s, voltage)
        total = _power(port_b) + _power(port_a)
        expect(abs(total - transmission) <= TOL, f"power {total} != {transmission} at {voltage} V")


def check_matrices(layout, voltages, matrices, transmission: float = 1.0) -> None:
    """Batch equals scalar ``device_matrix`` at sampled voltages."""
    expect(np.shape(matrices) == (len(voltages), 2, 2), "device matrix batch has the wrong shape")
    for k in _samples(len(voltages)):
        v = float(voltages[k])
        gap = np.max(np.abs(matrices[k] - loop.device_matrix(layout, v)))
        expect(gap <= TOL, f"batch differs from scalar by {gap:.3e} at {v} V")
        check_conservation(layout, v, transmission)


def check_scan(layout, voltages, points, ideal: bool, transmission: float = 1.0) -> None:
    """Scan points against the scalar path; for an ideal layout, the pure
    global phase with slope pi / V_half."""
    expect(len(points) == len(voltages), "scan length differs from the voltage list")
    if ideal:
        v_half = elements.half_wave_voltage(layout.crystal)
        worst = max(p.infidelity for p in points)
        expect(worst <= TOL, f"ideal layout infidelity {worst:.3e}")
        phases = np.array([p.global_phase for p in points])
        offset = phases - math.pi * np.asarray(voltages) / v_half
        expect(np.ptp(offset) <= 1e-9, f"phase not linear with slope pi/V_half ({np.ptp(offset):.3e})")
        expect(abs(math.remainder(offset[0], 2 * math.pi)) <= 1e-9, "phase offset is not 0 mod 2 pi")
    for k in _samples(len(voltages)):
        v, p = float(voltages[k]), points[k]
        m = loop.device_matrix(layout, v)
        gap = abs(p.infidelity - polarization.scaled_identity_infidelity(m))
        expect(gap <= TOL, f"infidelity differs from the scalar path by {gap:.3e}")
        phase = polarization.global_phase_decompose(m).global_phase
        expect(abs(np.exp(1j * p.global_phase) - np.exp(1j * phase)) <= 1e-9, "phase differs")
        leak = 0.5 * sum(_power(loop.trace_ports(layout, s, v)[1]) for s in (polarization.H, polarization.V))
        expect(abs(p.port_a_power - leak) <= TOL, "port A power differs from trace_ports")
        check_conservation(layout, v, transmission)


def check_table1(setup, angles, records, n: int, ideal: bool) -> None:
    """Records match the fringe curve at sampled angles. On an ideal loop the
    device adds a global phase only, so with mode overlap g and reference
    phase d the visibility at input angle a is g |cos^2 a + sin^2 a e^{i d}|,
    which gives the fitted triple at 0, 45 and 90 degrees."""
    v_half = elements.half_wave_voltage(setup.loop.crystal)
    expect(len(records) == len(angles), "table1 needs one record per angle")
    for k in _samples(len(angles)):
        r = records[k]
        _, curve = bench.sweep_curve(setup, polarization.linear_state(angles[k]), 2.0 * v_half, n)
        corrected = curve - setup.background
        expect(abs(r.i_on - corrected.max()) <= TOL and abs(r.i_off - corrected.min()) <= TOL,
               "fringe extrema differ from the sweep curve")
    for r in records:
        expect(abs(r.visibility - (r.i_on - r.i_off) / (r.i_on + r.i_off)) <= TOL, "visibility")
        expect(abs(r.v_half_fit - v_half) <= 0.05 * v_half, f"v_half_fit {r.v_half_fit}")
    if ideal:
        delta = np.angle(setup.ref_arm[1, 1])
        for a, r in zip(angles, records):
            want = setup.mode_overlap * abs(math.cos(a) ** 2 + math.sin(a) ** 2 * np.exp(1j * delta))
            expect(abs(r.visibility - want) <= 5e-4, f"visibility {r.visibility} != {want} at {a} rad")


class ScanBatch:
    """The CLI's loop commands, warm, over a small seeded pool of layouts
    that repeat."""

    in_process = True
    POOL = 6

    def __init__(self, seed: int, sizes: dict):
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes
        scene = load_scene("fitted")
        crystal = scene.crystal_spec()
        self.v_half = elements.half_wave_voltage(crystal)
        self.pool = [loop.build_default_loop(crystal), loop.build_default_loop(crystal, rotated_beam="ccw")]
        for i in range(self.POOL - 2):
            self.pool.append(loop.build_default_loop(
                crystal,
                fr_angle=math.radians(45.0 + self.rng.normal(0.0, 2.0)),
                hwp_angle=math.radians(22.5 + self.rng.normal(0.0, 1.0)),
                pbs=elements.Pbs(self.rng.uniform(0.0, 0.05), self.rng.uniform(0.0, 0.05)),
                rotated_beam=("cw", "ccw")[i % 2],
                eom_residual_phase=self.rng.uniform(0.0, 2e-3),
            ))
        self.setups = [mz_setup(layout, scene.mz) for layout in self.pool]

    def warm_up(self) -> None:
        voltages = np.linspace(0.0, 2.0 * self.v_half, 101)
        for layout in self.pool:
            loop.independence_scan(layout, voltages)
        loop.device_matrix_batch(self.pool[0], voltages)
        bench.table1_report(self.setups[0], ANGLES, n=self.sizes["table1_n"])

    def _grid(self, n: int) -> np.ndarray:
        lo = -self.rng.uniform(0.0, 1.0) * self.v_half
        hi = self.rng.uniform(1.5, 3.0) * self.v_half
        return np.linspace(lo, hi, n)

    def _scan(self) -> Op:
        i = int(self.rng.integers(self.POOL))
        layout, voltages = self.pool[i], self._grid(self.sizes["scan_n"])
        return Op("independence_scan", lambda: loop.independence_scan(layout, voltages),
                  lambda out: check_scan(layout, voltages, out, ideal=i < 2),
                  voltages=len(voltages), layout=layout)

    def _batch(self) -> Op:
        layout = self.pool[int(self.rng.integers(self.POOL))]
        voltages = self._grid(self.sizes["scan_n"])
        return Op("device_matrix_batch", lambda: loop.device_matrix_batch(layout, voltages),
                  lambda out: check_matrices(layout, voltages, out),
                  voltages=len(voltages), layout=layout)

    def _table1(self) -> Op:
        i = int(self.rng.integers(self.POOL))
        setup, n = self.setups[i], self.sizes["table1_n"]
        return Op("table1_report", lambda: bench.table1_report(setup, ANGLES, n=n),
                  lambda out: check_table1(setup, ANGLES, out, n, ideal=i < 2),
                  voltages=len(ANGLES) * n, layout=setup.loop)

    def round(self, index: int, traced: bool) -> list[Op]:
        # The library calls of the CLI's three loop commands (device-matrix,
        # independence-scan, table1), one each, in a seeded order.
        ops = [self._scan(), self._batch(), self._table1()]
        return [ops[k] for k in self.rng.permutation(len(ops))]


class TransientTrain:
    """Warm driver study of the fitted scene: a dense 20-pulse gate train and
    the short switching, fit and repetition-rate calls around it."""

    in_process = True
    RATE = 100e3

    def __init__(self, seed: int, sizes: dict):
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes
        scene = load_scene("fitted")
        self.driver = scene.drive_circuit()
        self.setup = mz_setup(scene.loop_layout(), scene.mz)
        tr = scene.trace
        self.gates = circuit.GateSchedule((tr.gate_on,), tr.hold)
        self.t_end, self.dt = tr.t_end, tr.dt
        self.state = polarization.linear_state(math.radians(tr.input_angle_deg))
        self.trace_len = round(self.t_end / self.dt) + 1
        self.recovery_hold = scene.recovery.hold
        self.rates = np.geomspace(10e3, 1e6, 61)

    def _simulate(self, pulses: int, hold: float):
        gates = circuit.GateSchedule.periodic(self.RATE, pulses, hold)
        return circuit.simulate(self.driver, gates, pulses / self.RATE, self.dt,
                                v_start=self.driver.supply_voltage)

    def _check_train(self, wave, pulses: int, hold: float) -> None:
        expect(len(wave.samples) == round(pulses / self.RATE / self.dt) + 1, "train sample count")
        supply = self.driver.supply_voltage
        before_last = int(round((pulses - 1) / self.RATE / self.dt)) - 2
        pre = wave.samples[before_last] / supply
        want = circuit.recovery_fraction(self.driver, self.RATE, hold)
        expect(abs(pre - want) <= 1e-6, f"pre-pulse level {pre} != recovery fraction {want}")

    def _check_edge(self, edge: float, hold: float) -> None:
        single = circuit.simulate(self.driver, circuit.GateSchedule((0.0,), hold), hold + 10e-9,
                                  self.dt, v_start=self.driver.supply_voltage)
        want = circuit.edge_time_10_90(single, falling=True)
        expect(abs(edge - want) <= 1e-6 * want, f"train edge {edge} != single-pulse edge {want}")

    def _check_switching(self, out) -> None:
        expect(len(out.intensity.samples) == self.trace_len, "switching trace length")
        expect(abs(out.optical_10_90 - FITTED_EDGE_S) <= 5e-12, f"optical edge {out.optical_10_90}")

    def _check_recovery(self, out) -> None:
        expect(all(a >= b for a, b in zip(out, out[1:])), "recovery fraction not monotone in rate")
        expect(abs(out[30] - FITTED_RECOVERY) <= 1e-5, f"recovery at 100 kHz {out[30]}")

    def warm_up(self) -> None:
        circuit.edge_time_10_90(self._simulate(1, 30e-9), falling=True)
        bench.fit_mosfet_on_r(self.setup, self.state, self.driver, self.gates,
                              self.t_end, self.dt, FIT_TARGET_EDGE_S)
        for rate in self.rates:
            circuit.recovery_fraction(self.driver, rate, self.recovery_hold)

    def round(self, index: int, traced: bool) -> list[Op]:
        pulses = self.sizes["pulses"]
        hold = round(self.rng.uniform(20e-9, 40e-9) / self.dt) * self.dt
        train = {}

        def simulate():
            train["wave"] = self._simulate(pulses, hold)
            return train["wave"]

        sim = Op("simulate", simulate, lambda out: self._check_train(out, pulses, hold),
                 trace_samples=round(pulses / self.RATE / self.dt) + 1)
        edge = Op("edge_time_10_90", lambda: circuit.edge_time_10_90(train.pop("wave"), falling=True),
                  lambda out: self._check_edge(out, hold))

        def switching():
            return Op("switching_trace",
                      lambda: bench.switching_trace(self.setup, self.state, self.driver, self.gates,
                                                    self.t_end, self.dt),
                      self._check_switching, voltages=self.trace_len,
                      trace_samples=self.trace_len, layout=self.setup.loop)

        recovery = Op("recovery_fraction",
                      lambda: [circuit.recovery_fraction(self.driver, r, self.recovery_hold)
                               for r in self.rates],
                      self._check_recovery)
        fit = Op("fit_mosfet_on_r",
                 lambda: bench.fit_mosfet_on_r(self.setup, self.state, self.driver, self.gates,
                                               self.t_end, self.dt, FIT_TARGET_EDGE_S),
                 lambda out: expect(abs(out - FITTED_R_ON) <= 0.3, f"fitted R_on {out}"),
                 layout=self.setup.loop)
        # demos/03_switching_transient.py (trace, fit, trace), then the CLI's
        # transient and recovery commands.
        return [sim, edge, switching(), fit, switching(), switching(), recovery]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@dataclass
class ChildRun:
    code: int
    stdout: str
    stderr: str
    maxrss_mb: float
    ready_s: float | None = None


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout()


def run_child(argv: list[str], workdir: Path, wait_ready: bool = False,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one child process to completion from the checkout root.

    Reaps it with ``wait4`` so its own peak RSS is known. With
    ``wait_ready`` the child's first stdout line marks it ready and
    ``ready_s`` is the wall time from spawn to that line.
    """
    err_path = workdir / "child.stderr"
    out_path = workdir / "child.stdout"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stderr=err,
                                    stdout=subprocess.PIPE if wait_ready else out)
        try:
            ready_s = None
            first = b""
            if wait_ready:
                first = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                first += proc.stdout.read()
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except _ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise TimeoutError(f"child {argv[1:3]} exceeded {timeout} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    stdout = first.decode() if wait_ready else out_path.read_text()
    return ChildRun(proc.returncode, stdout, err_path.read_text(), usage.ru_maxrss / 1024.0, ready_s)


CLI_HEADERS = {
    "device-matrix": "voltage_V,m00_re,m00_im,m01_re,m01_im,m10_re,m10_im,m11_re,m11_im",
    "independence-scan": "voltage_V,phase_rad_unwrapped,infidelity,portA_power",
    "table1": "pol_deg,v_half_V,visibility,contrast_ratio,contrast_db",
    "transient": "t_s,v_V,intensity",
    "recovery": "repetition_rate_hz,recovery_fraction",
    "loss": "index,transmission,cumulative_db",
}


class CliCold:
    """Every CLI command on both shipped configs, each a fresh process."""

    in_process = False

    def __init__(self, seed: int, sizes: dict, workdir: Path | None = None):
        import sagnacsim.cli  # noqa: F401  (set-up covers the CLI import)

        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.scenes = {name: load_scene(name) for name in CONFIGS}
        self.layout = {name: scene.loop_layout() for name, scene in self.scenes.items()}
        self.child_peak_mb = 0.0

    def warm_up(self) -> None:
        pass

    def _expected(self, command: str, name: str) -> tuple[int, int, int]:
        """(rows, voltages through the loop, trace samples) of one command."""
        scene = self.scenes[name]
        scan = int(scene.scan.samples) if scene.scan is not None else 101
        sweep = int(scene.sweep.samples) if scene.sweep is not None else 1001
        trace = round(scene.trace.t_end / scene.trace.dt) + 1
        return {
            "device-matrix": (scan, scan, 0),
            "independence-scan": (scan, scan, 0),
            "table1": (len(ANGLES), len(ANGLES) * sweep, 0),
            "transient": (trace, trace, trace),
            "recovery": (61, 0, 0),
            "loss": (len(scene.loss.transmissions), 0, 0),
        }[command]

    def _check(self, command: str, name: str, out_csv: Path, run: ChildRun) -> None:
        expect(run.code == 0, f"{command} {name} exited {run.code}: {run.stderr.strip()[-200:]}")
        lines = out_csv.read_text().splitlines()
        expect(lines and lines[0] == CLI_HEADERS[command], f"{command} header {lines[:1]}")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        expect(len(rows) == self._expected(command, name)[0], f"{command} {name}: {len(rows)} rows")
        finite = np.isfinite(rows) if command != "table1" or name != "ideal" else np.isfinite(rows[:, :3])
        expect(np.all(finite), f"{command} {name}: non-finite values")
        if command == "independence-scan" and name == "ideal":
            v_half = elements.half_wave_voltage(self.scenes[name].crystal_spec())
            expect(rows[:, 2].max() <= TOL, "ideal scan infidelity")
            expect(np.ptp(rows[:, 1] - math.pi * rows[:, 0] / v_half) <= 1e-9, "ideal scan phase slope")
        if command == "table1" and name == "fitted":
            expect(np.max(np.abs(rows[:, 2] - FITTED_VISIBILITY)) <= 5e-4, "fitted visibilities")
        if command == "transient" and name == "fitted":
            edge = float(run.stdout.strip().rpartition("=")[2].split()[0])
            expect(abs(edge - FITTED_EDGE_S) <= 5e-12, f"fitted optical edge {edge}")
        if command == "recovery" and name == "fitted":
            expect(abs(rows[30, 1] - FITTED_RECOVERY) <= 1e-5, "fitted recovery at 100 kHz")

    def _op(self, command: str, name: str, traced: bool, index: int) -> Op:
        out_csv = self.workdir / f"{name}-{command}.csv"
        trace_file = self.workdir / f"{name}-{command}-{index}.json" if traced else None
        args = [command, "--config", str(CONFIGS[name].relative_to(ROOT)), "--out", str(out_csv)]
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("child.py")), "cli", str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "sagnacsim.cli", *args]
        _, voltages, samples = self._expected(command, name)
        layout = self.layout[name] if command not in ("recovery", "loss") else None
        return Op(command, lambda: self._spawn(argv),
                  lambda run: self._check(command, name, out_csv, run),
                  voltages=voltages, trace_samples=samples, layout=layout, trace_file=trace_file)

    def _spawn(self, argv: list[str]) -> ChildRun:
        run = run_child(argv, self.workdir)
        self.child_peak_mb = max(self.child_peak_mb, run.maxrss_mb)
        return run

    def round(self, index: int, traced: bool) -> list[Op]:
        ops = [self._op(command, name, traced, index) for command in CLI_HEADERS for name in CONFIGS]
        return [ops[k] for k in self.rng.permutation(len(ops))]


WORKLOADS = {
    "cli-cold": CliCold,
    "scan-batch": ScanBatch,
    "transient-train": TransientTrain,
}


def prepare(name: str, seed: int, sizes: dict = FULL, workdir: Path | None = None):
    """Set-up as timed by ``setup_s``: build the scenes, warm up each kind."""
    cls = WORKLOADS[name]
    workload = cls(seed, sizes, workdir) if cls is CliCold else cls(seed, sizes)
    workload.warm_up()
    return workload
