"""The package surface and the demos that use it."""

import runpy
import types
from pathlib import Path

import pytest

import sagnacsim
from sagnacsim import bench, circuit, config, elements, loop, polarization

MODULES = (bench, circuit, config, elements, loop, polarization)
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_public_names_are_the_modules_all():
    public = {
        name
        for name, value in vars(sagnacsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(m.__all__ for m in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sagnacsim, name) is getattr(module, name), name


# One line each demo prints, and the file it writes, if any.
DEMO_OUTPUTS = {
    "01_polarization_independence.py": (
        "  unwrapped phase slope: 0.032564 rad/V (pi / V_half = 0.032564)", None),
    "02_switch_contrast_table.py": (
        "          45 |          96.48 |     0.9330 |   28.9 (14.6)", "sweep_45deg.csv"),
    "03_switching_transient.py": ("optical 10-90 after the fit: 1.600 ns", "switching_trace.csv"),
    "04_repetition_rate.py": (
        "running at 100 kHz keeps the full half-wave swing: 0.99988 of the supply", None),
}


@pytest.mark.parametrize("script", sorted(DEMO_OUTPUTS))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    line, written = DEMO_OUTPUTS[script]
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()
    assert sorted(p.name for p in tmp_path.iterdir()) == ([written] if written else [])
