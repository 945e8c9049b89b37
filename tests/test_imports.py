"""The package loads each submodule on first use, and only then."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascpart

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SUBMODULES = ("analysis", "bench", "checks", "cli", "counters", "counting", "errors",
              "generate", "oracle", "ptree", "render", "traversal")


def modules_loaded_by(code):
    """The modules that running `code` loads, beyond those of a bare ``python -c pass``."""
    src = str(Path(ascpart.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys\n"
              "bare = set(sys.modules)\n"
              f"{code}\n"
              "sys.stderr.write(' '.join(sorted(set(sys.modules) - bare)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_import_loads_no_submodule():
    loaded = modules_loaded_by("import ascpart")
    assert "ascpart" in loaded
    assert not {name for name in loaded if name.startswith("ascpart.")}


def test_generate_loads_only_what_it_runs():
    loaded = modules_loaded_by("from ascpart.cli import main\nmain(['generate', '5'])")
    assert {name for name in loaded if name.startswith("ascpart")} == {
        "ascpart", "ascpart.cli", "ascpart.errors", "ascpart.render"}
    assert "dataclasses" not in loaded


def test_count_loads_no_other_command():
    loaded = modules_loaded_by("from ascpart.cli import main\nmain(['count', '5'])")
    assert "ascpart.counting" in loaded
    for name in ("analysis", "bench", "checks", "oracle", "ptree", "traversal"):
        assert f"ascpart.{name}" not in loaded
    assert not loaded & {"fractions", "statistics"}


@pytest.mark.parametrize("argv", [["ratios", "--max-n", "5"], ["verify", "--max-n", "4"]],
                         ids=["ratios", "verify"])
def test_exact_counts_load_no_fractions(argv):
    # format_ratio works on integer pairs; only r1_exact/r2_exact load Fraction
    loaded = modules_loaded_by(f"from ascpart.cli import main\nmain({argv!r})")
    assert "ascpart.analysis" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_public_names_are_their_submodules():
    for name in ascpart.__all__:
        module = importlib.import_module(f"ascpart.{ascpart._SUBMODULE[name]}")
        value = getattr(ascpart, name)
        assert value is getattr(module, name), name
        assert vars(ascpart)[name] is value, name  # kept: __getattr__ runs once per name


def test_submodules_import_from_the_package():
    for name in SUBMODULES:
        namespace = {}
        exec(f"from ascpart import {name}", namespace)
        assert namespace[name] is importlib.import_module(f"ascpart.{name}")


def test_star_import_binds_all():
    namespace = {}
    exec("from ascpart import *", namespace)
    assert set(ascpart.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ascpart, name) for name in ascpart.__all__)


def test_dir_and_unknown_names():
    listed = dir(ascpart)
    assert "__all__" in listed and set(ascpart.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ascpart.no_such_name  # noqa: B018


def _ascpart_reads(tree):
    """(module, name) of each name that `tree` imports from ascpart or reads as ``ascpart.X``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ascpart":
            yield from ((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "ascpart"):
            yield "ascpart", node.attr


def test_benchmark_reads_only_exported_names():
    # the benchmark's sources are parsed, not run: every name they read from
    # the package, and each of probe.GENERATORS, which it reads by getattr,
    # must stay exported
    reads = {(path.name, *read) for path in sorted(PERFBENCH.glob("*.py"))
             for read in _ascpart_reads(ast.parse(path.read_text()))}
    assert any(source == "probe.py" for source, _, _ in reads)
    for source, module, name in reads:
        exported = ascpart.__all__ if module == "ascpart" else dir(importlib.import_module(module))
        assert name in exported, (source, module, name)
    probe = ast.parse((PERFBENCH / "probe.py").read_text())
    generators = [ast.literal_eval(node.value) for node in probe.body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "GENERATORS"]
    assert generators and set(generators[0]) <= set(ascpart.__all__)
