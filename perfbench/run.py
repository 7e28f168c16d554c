"""sagnacsim benchmark: three seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src`` tree of the
checkout holding this file. Workloads (see ``workloads.py``):

- ``cli-cold``: the six CLI commands on both shipped configs, each a fresh
  ``python -m sagnacsim.cli`` process (the end-to-end definition).
- ``scan-batch``: the library calls of the CLI's device-matrix,
  independence-scan and table1 commands, one each per round, at the
  fitted scene's 2001 samples (``table1_report`` on 3 input angles) over a
  pool of 6 layouts.
- ``transient-train``: a 20-pulse 100 kHz gate train at 10 ps (20 000 001
  samples) and its edge, then the calls of
  ``demos/03_switching_transient.py`` and the CLI's transient and recovery
  commands.

Each workload runs in one process (``cli-cold`` adds one child at a time)
with one client and no worker threads. Operations run in rounds until
``--seconds`` have passed; the round in progress is finished.

``--trace 0`` prints the end-to-end metrics, and beside them the median op
time, the trace-sample rate and the failure ratio, which are not gated.
``setup_s`` is the median of 5 fresh interpreters each timed from spawn to
ready (import, scenes, one warm-up per operation kind). ``op_tail_s`` is the highest percentile with at
least 10 operations beyond it. ``voltages_per_s`` is the lower quartile
over rounds of the drive voltages a round maps through the loop per second
of its operation time.

``--trace 1`` alternates traced and untraced rounds (at least two traced)
and prints the per-layer metrics. ``*.self_s`` is the self time per traced
round, in s/round (span durations minus the part their child spans cover;
0 for a span the workload never enters); ``cli.import_s`` is the time of
one import in a fresh interpreter. Counts
(``*.calls``, ``*.voltages``, ``*.samples``, ``*.trials``, ``*_per_voltage``,
``cli.csv_bytes``) are per round, taken from the first traced round; every
other traced round must repeat them exactly, and ``trace.count_mismatches``
counts those that do not. ``trace.overhead_ratio`` is the traced over the
untraced median operation time.

``--workload all`` runs every workload on ``--seed`` and on ``--seed`` + 1
and exits 1 if a run is not correct or, with ``--trace 1``, if a count
metric differs between the two seeds. A traced run whose rounds do not
repeat the first round's counts is not correct.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` that ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# No worker threads: numpy, imported next, and every child process read these.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
IMPORT_RUNS = 3
TAIL_BEYOND = 10
REPEAT_SAMPLE = 1000
WORKLOAD_NAMES = ("cli-cold", "scan-batch", "transient-train")


class Ledger:
    """What a run keeps of its operations: each op's time and status in
    preallocated arrays, and per-round totals, so the harness's own memory
    does not grow with the number of ops the library gets through."""

    OK, TRACED = 1, 2

    def __init__(self, capacity: int = 1 << 16):
        self.seconds = np.full(capacity, np.nan)
        self.status = np.full(capacity, -1, dtype=np.int8)
        self.n = 0
        self.rounds: list[tuple[bool, float, int, int]] = []  # traced, busy s, voltages, samples
        self._seen: set[int] = set()
        self.repeats = self.with_layout = 0

    def add_round(self, traced: bool, ops) -> None:
        """``ops``: (op, seconds, ok) of one round."""
        if self.n + len(ops) > len(self.seconds):
            grow = len(self.seconds)
            self.seconds = np.concatenate([self.seconds, np.full(grow, np.nan)])
            self.status = np.concatenate([self.status, np.full(grow, -1, dtype=np.int8)])
        busy = voltages = samples = 0
        for op, seconds, ok in ops:
            self.seconds[self.n] = seconds
            self.status[self.n] = self.OK * ok + self.TRACED * traced
            self.n += 1
            busy += seconds
            voltages += op.voltages if ok else 0
            samples += op.trace_samples if ok else 0
            if op.layout is not None and self.with_layout < REPEAT_SAMPLE:
                key = hash(op.layout)
                self.with_layout += 1
                self.repeats += key in self._seen
                self._seen.add(key)
        self.rounds.append((traced, busy, voltages, samples))

    def times(self, traced: bool) -> np.ndarray:
        """Times of the ops that succeeded, traced or untraced."""
        status = self.status[: self.n]
        return self.seconds[: self.n][status == self.OK + self.TRACED * traced]

    def count(self, traced: bool, ok: bool | None = None) -> int:
        status = self.status[: self.n]
        picked = (status & self.TRACED) == self.TRACED * traced
        if ok is not None:
            picked &= (status & self.OK) == self.OK * ok
        return int(picked.sum())

    @property
    def failed(self) -> int:
        return int(((self.status[: self.n] & self.OK) == 0).sum())

    def repeat_share(self) -> float:
        """Share of the ops with a layout (among the first ``REPEAT_SAMPLE``)
        whose layout was already used."""
        return self.repeats / self.with_layout if self.with_layout else 0.0

    def per_round_rate(self, field: str) -> float:
        """Lower quartile over untraced rounds of the work (``voltages`` or
        ``trace_samples``) a round completed per second of its operation
        time: a rate three quarters of the rounds reach, which a shared
        host's short bursts of extra speed do not move."""
        index = {"voltages": 2, "trace_samples": 3}[field]
        rates = [r[index] / r[1] for r in self.rounds if not r[0]]
        return statistics.quantiles(rates, n=4)[0] if len(rates) > 1 else rates[0]


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves at least ``beyond`` samples above it; the maximum when there are
    too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def stamp() -> dict:
    from importlib.metadata import version  # reads metadata, imports neither package

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_rounds(workload, seconds: float, trace: bool):
    """Run rounds until ``seconds`` have passed; check outputs after each
    round. Returns the ledger, the merged aggregate of the traced rounds,
    their number, the first one's aggregate and the number of traced rounds
    whose counts differ from the first."""
    import tracer

    ledger = Ledger()
    total, first, mismatches = tracer.empty(), None, 0
    failures: list[str] = []
    spans = tracer.Tracer()
    rounds = traced_rounds = 0
    start = time.perf_counter()
    while True:
        traced = trace and rounds % 2 == 0
        ops = workload.round(rounds, traced)
        restore = tracer.install(spans) if traced and workload.in_process else None
        results = []
        try:
            for op in ops:
                t0 = time.perf_counter()
                try:
                    out, ok = op.call(), True
                except Exception as exc:  # a failed op is counted, not fatal
                    out, ok = exc, False
                results.append((op, time.perf_counter() - t0, ok, out))
        finally:
            if restore is not None:
                restore()
        part = tracer.reduce_spans(spans.take()) if traced else None
        done = []
        for op, seconds_taken, ok, out in results:
            if ok:
                try:
                    op.check(out)
                except Exception as exc:  # wrong output counts as a failed op
                    ok, out = False, exc
            if not ok:
                failures.append(f"{op.kind}: {type(out).__name__}: {out}")
            if traced and op.trace_file is not None and op.trace_file.exists():
                tracer.merge(part, json.loads(op.trace_file.read_text()))
                op.trace_file.unlink()
            done.append((op, seconds_taken, ok))
        results.clear()
        ledger.add_round(traced, done)
        if traced:
            traced_rounds += 1
            tracer.merge(total, part)
            if first is None:
                first = part
            elif tracer.count_signature(part) != tracer.count_signature(first):
                mismatches += 1
        rounds += 1
        enough = time.perf_counter() - start >= seconds
        if enough and (not trace or (traced_rounds >= 2 and rounds > traced_rounds)):
            break
    for line in failures[:5]:
        print(f"failed op: {line}", file=sys.stderr)
    return ledger, total, traced_rounds, first or tracer.empty(), mismatches


def probe_children(mode: str, args: list[str], workdir: Path, runs: int) -> list:
    from workloads import run_child

    argv = [sys.executable, str(HERE / "child.py"), mode, *args]
    results = []
    for _ in range(runs):
        child = run_child(argv, workdir, wait_ready=(mode == "setup"))
        if child.code != 0:
            raise RuntimeError(f"{mode} probe exited {child.code}: {child.stderr.strip()[-500:]}")
        results.append(child)
    return results


def import_probes(workdir: Path) -> dict:
    import tracer

    imports = tracer.empty()
    for child in probe_children("import", ["sagnacsim"], workdir, IMPORT_RUNS):
        tracer.merge(imports, json.loads(child.stdout))
    return imports


def end_to_end(ledger: Ledger, setup_s: float, peak_rss_mb: float) -> tuple[dict, list[str]]:
    done = ledger.times(traced=False)
    value, pct, beyond = tail(done)
    metrics = {
        "setup_s": setup_s,
        "op_tail_s": value,
        "voltages_per_s": ledger.per_round_rate("voltages"),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted, failed = ledger.count(traced=False), ledger.count(traced=False, ok=False)
    notes = [
        f"op_p50_s {np.median(done):.6g} s (median op; not gated, it moves with the host's speed "
        "more than the gated timings)",
        f"op_tail_s is p{pct:.4g} of {len(done)} ops, {beyond} beyond it",
        f"trace_samples_per_s {ledger.per_round_rate('trace_samples'):.6g} 1/s "
        "(driver-waveform samples; not gated, 0 on the scan workloads)",
        f"fail_ratio {failed / attempted:.6g} ({failed} failed / {attempted} attempted)",
    ]
    return metrics, notes


def per_layer(ledger: Ledger, total: dict, rounds: int, first: dict, imports: dict, mismatches: int) -> dict:
    import tracer

    metrics: dict[str, float] = {}
    for name, entry in total["names"].items():
        metrics[f"{name}.self_s"] = entry["self_s"] / rounds
    names, counts = first["names"], first["counts"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def size(name):
        return names.get(name, {}).get("size", 0)

    for name in names:
        metrics[f"{name}.calls"] = calls(name)
    scanned = size("loop.independence_scan")
    metrics["loop.trace_ports_per_voltage"] = counts.get("scan.trace_ports", 0) / scanned if scanned else 0.0
    metrics["loop.device_matrix_batch.voltages"] = size("loop.device_matrix_batch")
    voltages = counts.get("loop.voltages", 0)
    metrics["elements.element_matrix_per_voltage"] = calls("elements.element_matrix") / voltages if voltages else 0.0
    metrics["circuit.simulate.samples"] = size("circuit.simulate")
    metrics["circuit.simulate.bytes_computed"] = 16 * size("circuit.simulate")  # times + samples, float64
    fits = calls("bench.fit_mosfet_on_r")
    metrics["bench.fit_mosfet_on_r.trials"] = counts.get("fit.trials", 0) / fits if fits else 0.0
    metrics["cli.csv_bytes"] = counts.get("cli.csv_bytes", 0)
    probes = imports["names"]["cli.import"]
    metrics["cli.import_s"] = probes["self_s"] / probes["calls"]
    for key in ("cli.modules_loaded", "cli.scipy_loaded"):
        metrics[key] = imports["counts"][key] / probes["calls"]
    for layer in tracer.LAYERS:
        metrics[f"{layer}.errors"] = total["counts"].get(f"{layer}.errors", 0)
    metrics["loop.layout_repeat_share"] = ledger.repeat_share()
    metrics["trace.overhead_ratio"] = float(np.median(ledger.times(traced=True))
                                            / np.median(ledger.times(traced=False)))
    metrics["trace.count_mismatches"] = mismatches
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end" if not trace else "per_layer"]
    load_start = os.getloadavg()[0]
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp().items()))
    print("load: closed loop, 1 client, 1 process (cli-cold: 1 child at a time), no worker threads; "
          "single-threaded, so no layer waits on another and no wait time is reported")
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        setup_s = 0.0
        if not trace:
            setup = probe_children("setup", [name, str(seed)], workdir, SETUP_RUNS)
            setup_s = statistics.median(c.ready_s for c in setup)
        workload = workloads.prepare(name, seed, workloads.FULL, workdir)
        ledger, total, rounds, first, mismatches = run_rounds(workload, seconds, trace)
        if trace:
            # cli-cold children time their own import of sagnacsim.cli; the
            # library workloads import the package in fresh interpreters.
            imports = import_probes(workdir) if workload.in_process else total
        if workload.in_process:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_rss_mb = workload.child_peak_mb
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"input layout_repeat_share {ledger.repeat_share():.6g} "
          f"({ledger.repeats} of the first {ledger.with_layout} ops with a layout)")
    if trace:
        metrics = per_layer(ledger, total, rounds, first, imports, mismatches)
        if mismatches:
            print(f"error: {mismatches} traced rounds did not repeat the first round's counts")
    else:
        metrics, notes = end_to_end(ledger, setup_s, peak_rss_mb)
        for line in notes:
            print(line)
    # A per-layer metric of a span the workload never enters is 0.
    result = {m["name"]: {"value": metrics[m["name"]] if not trace else metrics.get(m["name"], 0),
                          "unit": m["unit"]} for m in spec}
    for key, entry in result.items():
        print(f"metric {key} {entry['value']:.6g} {entry['unit']}")
    print(f"loadavg_1m start={load_start:.2f} end={os.getloadavg()[0]:.2f}")
    correct = ledger.failed == 0 and mismatches == 0
    print(json.dumps({"correct": correct, "attempted": ledger.n, "failed": ledger.failed, "metrics": result}))
    return 0


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly for any seed."""
    return not (name.endswith("_s") or name.startswith("trace.") or name == "loop.layout_repeat_share")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload on two seeds, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    counted = [m["name"] for m in spec if is_count(m["name"])]
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        per_seed = []
        for s in (seed, seed + 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(s),
                                   "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
                                  capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary[f"{name}/{s}"] = result
            per_seed.append(result["metrics"])
            status = status or int(not result["correct"])
        if trace and len(per_seed) == 2:
            for key in counted:
                if per_seed[0][key]["value"] != per_seed[1][key]["value"]:
                    status = status or 1
                    print(f"error: {name}: count {key} differs between seeds "
                          f"({per_seed[0][key]['value']} vs {per_seed[1][key]['value']})")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sagnacsim" / "__init__.py").is_file():
        print(f"error: no sagnacsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
