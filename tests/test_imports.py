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


# count and ratios build no record and print from integer counts, so they load
# neither the records' dataclasses (and the inspect it pulls in) nor rationals
UNUSED_BY_COUNTS = {"dataclasses", "inspect", "fractions", "decimal", "numbers", "statistics"}
# id -> (argv, the ascpart modules it loads, modules it must not load)
COMMANDS = {
    "count": (["count", "5"], {"counting"}, UNUSED_BY_COUNTS),
    "count-ratio": (["count", "5", "--ratio-t", "3"], {"counting"}, UNUSED_BY_COUNTS),
    "ratios": (["ratios", "--max-n", "5"], {"analysis", "counting"}, UNUSED_BY_COUNTS),
    # format_ratio works on integer pairs; only r1_exact/r2_exact load Fraction
    "verify": (["verify", "--max-n", "4"],
               {"analysis", "checks", "counters", "counting", "generate", "oracle", "ptree"},
               {"fractions", "decimal", "numbers"}),
}


@pytest.mark.parametrize("argv, modules, never", COMMANDS.values(), ids=COMMANDS)
def test_command_loads_exactly_its_modules(argv, modules, never):
    loaded = modules_loaded_by(f"from ascpart.cli import main\nmain({argv!r})")
    assert {name for name in loaded if name.startswith("ascpart")} == {
        "ascpart", "ascpart.cli", "ascpart.errors", *(f"ascpart.{name}" for name in modules)}
    assert not loaded & never


def _load_time_imports(node):
    """The top-level name of each absolute import that runs when `node`'s module
    loads: every import outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module.split(".")[0]
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _load_time_imports(child)


def test_command_modules_import_no_dataclasses_at_load():
    # the records live in counters and are imported by the function that
    # builds each one, so these modules load no dataclasses for a command
    package = Path(ascpart.__file__).parent
    for name in ("analysis", "cli", "counting", "errors", "generate", "render"):
        imports = set(_load_time_imports(ast.parse((package / f"{name}.py").read_text())))
        assert "dataclasses" not in imports, name


def test_records_are_the_exported_classes():
    from ascpart.analysis import ratio_table, verify_counts
    from ascpart.counting import CountContext

    ctx = CountContext()
    assert type(ctx.check_inequalities(10)) is ascpart.InequalityReport
    assert type(verify_counts(5, ctx, 2)) is ascpart.CountCheck
    scan = ratio_table(5, ctx)
    assert type(scan) is ascpart.RatioScan
    assert {type(record) for record in scan.records} == {ascpart.RatioRecord}
    assert ascpart.RatioRecord is ascpart.counters.RatioRecord


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
