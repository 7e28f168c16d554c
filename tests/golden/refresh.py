"""Golden-output manifest: the bytes every CLI run and demo writes.

    PYTHONPATH=src python tests/golden/refresh.py          # rewrite manifest.json
    PYTHONPATH=src python tests/golden/refresh.py --check  # print differences, exit 1 on any

The manifest holds the exit code and the SHA-256 of the CSV, stdout and
stderr of each of the 24 CLI runs (six commands x the two shipped configs x
no flags / ``SMALL_FLAGS``), and of each demo's stdout, stderr and written
files, all run in process with every warning an error. Next to each CSV hash
sits a fingerprint (row count, header, and each column's min, max and sum as
``repr`` floats), so a broken hash names the column that moved. The stamp
records where the manifest was written; rounding can differ elsewhere.
Rewriting the manifest changes what tier-1 checks: name each changed entry
and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from sagnacsim.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).with_name("manifest.json")
CONFIGS = ("ideal.ini", "fitted.ini")
SMALL_FLAGS = ("--sweep-max", "250", "--t-end", "35e-9", "--dt", "5e-12")
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
    """Entries of the 24 CLI runs, keyed by their arguments."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in _COMMANDS:
            for config in CONFIGS:
                for flags in ((), SMALL_FLAGS):
                    args = (command, "--config", str(ROOT / "demos" / "configs" / config), *flags)
                    entries[" ".join((command, config, *flags))] = run_cli(args, Path(tmp))
    return entries


def build() -> dict:
    """The whole manifest: the stamp, the CLI runs and the demos."""
    demos = {}
    for script in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            demos[script] = run_demo(script, Path(tmp))[1]
    stamp = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}
    return {"stamp": stamp, "cli": cli_entries(), "demos": demos}


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
