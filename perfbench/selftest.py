"""Smoke-size tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test run (the file name does not match
``test_*.py``); the tiny workload runs spawn CLI processes and take about
half a minute.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, size=0, failed=False):
    return [name, start, end, parent, size, failed]


def test_covered_clips_and_merges_child_intervals():
    assert tracer.covered(0.0, 10.0, []) == 0.0
    assert tracer.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert tracer.covered(0.0, 10.0, [(-5.0, 1.0), (4.0, 5.0), (4.2, 4.8)]) == pytest.approx(2.0)


def test_self_time_is_duration_minus_children():
    spans = [
        span("loop.independence_scan", 0.0, 10.0, size=5),
        span("loop.device_matrix_batch", 1.0, 3.0, parent=0, size=5),
        span("loop.trace_ports", 3.0, 4.0, parent=0, size=1),
        span("elements.element_matrix", 3.2, 3.5, parent=2),
        span("loop.trace_ports", 5.0, 6.5, parent=0, size=1, failed=True),
        span("loop.trace_ports", 20.0, 21.0, size=1),
    ]
    agg = tracer.reduce_spans(spans)
    names = agg["names"]
    assert names["loop.independence_scan"]["self_s"] == pytest.approx(10.0 - 2.0 - 1.0 - 1.5)
    assert names["loop.trace_ports"]["self_s"] == pytest.approx(0.7 + 1.5 + 1.0)
    assert names["loop.trace_ports"]["calls"] == 3
    assert agg["counts"]["scan.trace_ports"] == 2
    assert agg["counts"]["loop.voltages"] == 5 + 1
    assert agg["counts"]["loop.errors"] == 1
    total = tracer.merge(tracer.merge(tracer.empty(), agg), agg)
    assert total["names"]["loop.trace_ports"]["calls"] == 6
    assert tracer.count_signature(total)["scan.trace_ports"] == 4


def test_install_records_nested_spans_and_restores():
    from sagnacsim import loop

    original = loop.trace_ports
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        layout = workloads.load_scene("ideal").loop_layout()
        loop.independence_scan(layout, [0.0, 1.0, 2.0])
    finally:
        restore()
    assert loop.trace_ports is original
    agg = tracer.reduce_spans(spans.take())
    assert agg["names"]["loop.independence_scan"]["calls"] == 1
    assert agg["counts"]["scan.trace_ports"] == 4 + 2 * 3
    assert agg["names"]["elements.element_matrix"]["calls"] == 4 * 2 * 4 + 6 * 2 * 5


def test_voltages_passed_by_keyword_are_counted():
    from sagnacsim import loop

    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        layout = workloads.load_scene("ideal").loop_layout()
        loop.device_matrix_batch(layout, voltages=[0.0, 1.0, 2.0, 3.0])
        loop.independence_scan(layout=layout, voltages=[0.0, 1.0])
    finally:
        restore()
    agg = tracer.reduce_spans(spans.take())
    # independence_scan maps its voltages through device_matrix_batch too.
    assert agg["names"]["loop.device_matrix_batch"]["size"] == 4 + 2
    assert agg["names"]["loop.independence_scan"]["size"] == 2
    assert agg["counts"].get("loop.errors", 0) == 0


class FakeOp:
    def __init__(self, voltages=0, layout=None):
        self.voltages, self.trace_samples, self.layout = voltages, 0, layout


def test_ledger_keeps_times_rates_and_repeats():
    ledger = run.Ledger(capacity=2)
    ledger.add_round(False, [(FakeOp(10, "a"), 1.0, True), (FakeOp(10, "a"), 1.0, True),
                             (FakeOp(10, "b"), 2.0, False)])
    ledger.add_round(True, [(FakeOp(5, "b"), 0.5, True)])
    assert ledger.n == 4 and ledger.failed == 1
    assert list(ledger.times(traced=False)) == [1.0, 1.0]
    assert list(ledger.times(traced=True)) == [0.5]
    assert ledger.count(traced=False) == 3 and ledger.count(traced=False, ok=False) == 1
    assert ledger.per_round_rate("voltages") == pytest.approx(20 / 4.0)
    for rate in (1, 2, 3, 4, 5, 6, 7):
        ledger.add_round(False, [(FakeOp(rate), 1.0, True)])
    # Rounds of 5, 1, 2, ..., 7 voltages per second: their lower quartile.
    assert ledger.per_round_rate("voltages") == pytest.approx(2.25)
    assert ledger.repeat_share() == pytest.approx(2 / 4)


@pytest.mark.parametrize("n, index, percentile", [(100, 89, 90.0), (11, 0, 100.0 / 11), (40, 29, 75.0)])
def test_tail_leaves_ten_samples_beyond(n, index, percentile):
    values = [float(v) for v in range(n)]
    assert run.tail(values) == (values[index], pytest.approx(percentile), 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", ["scan-batch", "transient-train"])
def test_tiny_library_workload_runs_clean_and_repeats_counts(name, tmp_path):
    signatures = []
    for seed in (1, 2):
        workload = workloads.prepare(name, seed, workloads.TINY, tmp_path)
        ledger, total, rounds, first, mismatches = run.run_rounds(workload, 0.0, trace=True)
        assert ledger.failed == 0
        assert rounds == 2 and mismatches == 0
        signatures.append(tracer.count_signature(first))
    assert signatures[0] == signatures[1]
    metrics, notes = run.end_to_end(ledger, 1.0, 1.0)
    assert metrics["op_tail_s"] > 0 and metrics["voltages_per_s"] > 0
    assert notes[0].startswith("op_p50_s ")


def test_tiny_cli_workload_runs_clean(tmp_path):
    workload = workloads.prepare("cli-cold", 1, workloads.TINY, tmp_path)
    ledger, *_ = run.run_rounds(workload, 0.0, trace=False)
    assert ledger.n == 12 and ledger.failed == 0
    assert workload.child_peak_mb > 0


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
