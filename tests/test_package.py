"""The package surface and the demos that use it."""

import ast
import inspect
import types
from functools import cache
from pathlib import Path

import pytest

import sagnacsim
from sagnacsim import bench, circuit, config, elements, loop, polarization

from golden import refresh as golden

MODULES = (bench, circuit, config, elements, loop, polarization)
ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SOURCES = sorted((ROOT / "src" / "sagnacsim").glob("*.py"))

# The code whose calls keep a public name: the package, the demos, the
# acceptance suite, the test oracles and the benchmark workloads.
CALLERS = (
    *SOURCES,
    *sorted(DEMOS.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
    ROOT / "perfbench" / "workloads.py",
)
# Public with no caller yet: the contract fuzzer and the run record planned
# in ROADMAP.md (items 9 and 10) render scenes with it.
UNCALLED = {"render_config"}


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


@cache
def caller_trees() -> tuple:
    """The parsed source of every file in CALLERS."""
    return tuple(ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS)


def caller_nodes() -> tuple:
    """Every AST node of every file in CALLERS."""
    return tuple(node for tree in caller_trees() for node in ast.walk(tree))


def module_names(tree) -> set:
    """The names an import in ``tree`` binds to the package or one of its
    modules: ``sagnacsim``, ``loop``, ``_circuit``, ``circuit_module``."""
    modules = {path.stem for path in SOURCES}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "sagnacsim"
            )
        elif isinstance(node, ast.ImportFrom) and (node.module == "sagnacsim" or node.level and not node.module):
            names.update(alias.asname or alias.name for alias in node.names if alias.name in modules)
    return names


def bound_names(tree) -> dict:
    """The names ``tree`` binds to a name of the package, each mapped to that
    name: those it imports from ``sagnacsim`` or one of its modules, under an
    ``as`` name or its own, and those it defines at module level."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "sagnacsim"):
            names.update((alias.asname or alias.name, alias.name) for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    # A name counts where it is read in a file that imports it from sagnacsim
    # or defines it, or looked up as an attribute of a sagnacsim module that
    # the same file imports (``loop.device_matrix``). An import, a docstring,
    # an __all__ entry, a local variable of the same name (``trace`` in
    # cli.py) or an attribute of anything else (``cfg.trace``,
    # ``element.rotation``) does not call it.
    used = set()
    for tree in caller_trees():
        modules, bound = module_names(tree), bound_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                used.add(bound[node.id])
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                used.add(node.attr)
    uncalled = set().union(*(m.__all__ for m in MODULES)) - used
    assert not uncalled - UNCALLED, f"public names with no caller: {sorted(uncalled - UNCALLED)}"
    assert UNCALLED <= uncalled  # a name that gains a caller leaves the list


def private_definitions() -> list:
    """(name, ``file:line``) of each module-level private function, class and
    constant of the package; dunders are left out."""
    defined = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                flat = [e for t in nodes for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                targets = [t.id for t in flat if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((name, f"{path.name}:{node.lineno}"))
    return defined


def test_every_private_name_is_read_by_the_package():
    # Private code that only tests or the benchmark read is dead code with a
    # test attached: it goes. A name counts where the package loads it, bare
    # (``_rescaled(m)``) or as an attribute (``self._building``); an import
    # or its own definition does not.
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{where} {name}" for name, where in private_definitions() if name not in read]
    assert not unread, f"private names the package never reads: {unread}"


@cache
def calls_by_name() -> dict:
    """Every call in CALLERS, keyed by the name it calls: ``f`` of ``f(...)``
    and of ``x.f(...)``."""
    calls = {}
    for node in caller_nodes():
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    return calls


def defaulted_parameters():
    """(callee, position, name) of each defaulted parameter of each public
    function and constructor, and of each public classmethod of a public
    class."""
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if not callable(value) or (isinstance(value, type) and issubclass(value, Exception)):
                continue
            callees = [(name, value)]
            if isinstance(value, type):
                callees += [
                    (attr, getattr(value, attr))
                    for attr, member in vars(value).items()
                    if isinstance(member, classmethod) and not attr.startswith("_")
                ]
            for callee, function in callees:
                for i, param in enumerate(inspect.signature(function).parameters.values()):
                    if param.default is not param.empty:
                        yield callee, i, param.name


def sets(call: ast.Call, position: int, name: str, unpacking: bool) -> bool:
    """Whether ``call`` sets the parameter ``name`` at ``position``: by enough
    positional arguments to reach it, by keyword or, if ``unpacking``, by a
    ``**`` unpacking that may hold it."""
    return len(call.args) > position or any(
        keyword.arg == name or (unpacking and keyword.arg is None) for keyword in call.keywords
    )


def test_every_defaulted_parameter_is_set_by_a_caller():
    # A default that no caller overrides is a constant: the parameter goes.
    # A call to a function of the same name sets a parameter by keyword, by
    # enough positional arguments to reach it, or by ** unpacking.
    calls = calls_by_name()
    unset = [
        f"{callee}.{name}"
        for callee, i, name in defaulted_parameters()
        if not any(sets(call, i, name, unpacking=True) for call in calls.get(callee, ()))
    ]
    assert not unset, f"defaulted parameters no caller sets: {unset}"


def test_no_default_is_set_by_every_caller():
    # The converse: a default that every caller overrides is never used, so
    # the parameter is required. A ** unpacking may leave the parameter to
    # its default (``SceneConfig(**built)``), so it does not count as setting it.
    calls = calls_by_name()
    always = [
        f"{callee}.{name}"
        for callee, i, name in defaulted_parameters()
        if calls.get(callee) and all(sets(call, i, name, unpacking=False) for call in calls[callee])
    ]
    assert not always, f"defaulted parameters every caller sets: {always}"


def test_only_the_scene_constructs_config_errors():
    # config.py owns the configuration's refusals: parse_config names the
    # line and key, and the scene names the section whose object refused a
    # value. Every other module lets a ConfigError pass, or catches it.
    constructed = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ConfigError"
    ]
    assert not constructed, f"ConfigError constructed outside config.py: {constructed}"


# Lines each demo prints, and the file it writes, if any.
DEMO_OUTPUTS = {
    "01_polarization_independence.py": ((
        "  output Stokes: [ 1.       -0.28     -0.283699  0.917123]",
        "  unwrapped phase slope: 0.032564 rad/V (pi / V_half = 0.032564)",
    ), None),
    "02_switch_contrast_table.py": (
        ("          45 |          96.48 |     0.9330 |   28.9 (14.6)",), "sweep_45deg.csv"),
    "03_switching_transient.py": (("optical 10-90 after the fit: 1.600 ns",), "switching_trace.csv"),
    "04_repetition_rate.py": (
        ("running at 100 kHz keeps the full half-wave swing: 0.99988 of the supply",), None),
}


@pytest.mark.parametrize("script", sorted(DEMO_OUTPUTS))
def test_demo_runs(script, tmp_path):
    lines, written = DEMO_OUTPUTS[script]
    printed, entry = golden.run_demo(script, tmp_path)
    assert [line for line in lines if line not in printed.splitlines()] == []
    assert sorted(entry["files"]) == ([written] if written else [])
    # Every printed and written byte, as committed in tests/golden/manifest.json.
    manifest = golden.load()
    found = golden.differences(manifest["demos"][script], entry, script)
    assert not found, "\n".join([f"written on {manifest['stamp']}", *found])


def test_library_outputs_match_the_golden_manifest():
    # The compiled parts of a fixed set of layouts and the bench results on
    # both shipped configs, as committed in tests/golden/manifest.json.
    manifest = golden.load()
    found = golden.differences(manifest["library"], golden.library_entries(), "library")
    assert not found, "\n".join([f"written on {manifest['stamp']}", *found])
