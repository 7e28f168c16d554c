"""Fresh-interpreter helpers that the benchmark runs as child processes.

    python3 perfbench/child.py setup WORKLOAD SEED      print "ready" once set up
    python3 perfbench/child.py import MODULE            print the import probe as JSON
    python3 perfbench/child.py cli TRACE_JSON ARGS...   run the CLI traced

Nothing is imported ahead of the probed module but ``sys`` and ``time``, so
the module count and the import time are those of a fresh interpreter. The
children find ``sagnacsim`` through ``PYTHONPATH``, which the parent sets to
the checkout's ``src``.
"""

import sys
import time


def timed_import(module: str) -> dict:
    """Aggregate (as ``tracer.reduce_spans`` makes) of one import."""
    start = time.perf_counter()
    __import__(module)
    elapsed = time.perf_counter() - start
    return {
        "names": {"cli.import": {"calls": 1, "self_s": elapsed, "size": 0}},
        "counts": {"cli.modules_loaded": len(sys.modules), "cli.scipy_loaded": int("scipy" in sys.modules)},
    }


def run_cli(trace_path: str, argv: list[str]) -> int:
    probe = timed_import("sagnacsim.cli")
    import json
    import os

    import sagnacsim.cli
    import tracer

    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        code = spans.call("cli.main", sagnacsim.cli.main, argv)
    finally:
        restore()
    aggregate = tracer.merge(tracer.reduce_spans(spans.take()), probe)
    out = argv[argv.index("--out") + 1]
    aggregate["counts"]["cli.csv_bytes"] = os.path.getsize(out) if code == 0 else 0
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        import workloads

        workloads.prepare(rest[0], int(rest[1]))
        print("ready", flush=True)
        return 0
    if mode == "import":
        probe = timed_import(rest[0])
        import json

        print(json.dumps(probe))
        return 0
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
