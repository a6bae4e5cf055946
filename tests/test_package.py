"""The installed package: its version, its public names, and one home for each name."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qpurify
from qpurify.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_version() -> str:
    # read by hand: tomllib is not in the standard library before Python 3.11
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.MULTILINE)
    return version


def test_version_is_the_project_version():
    assert qpurify.__version__ == project_version()


def test_cli_prints_the_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"qpurify {project_version()}\n"


PACKAGE = Path(qpurify.__file__).resolve().parent
SUBMODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_importing_the_package_loads_no_submodule():
    # each name is imported from its module, so any module can be entered first
    code = "import sys, qpurify; print(sorted(m for m in sys.modules if m.startswith('qpurify.')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def module_tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text())


def defined_names(stem: str) -> set[str]:
    """Names a module binds at top level by ``def``, ``class`` or assignment, not by import."""
    names = set()
    for node in module_tree(stem).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def relative_imports(stem: str) -> list[tuple[str, str]]:
    """(defining module, name) of every ``from .x import name`` in a module."""
    return [
        (node.module or "__init__", alias.name)
        for node in ast.walk(module_tree(stem))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("stem", SUBMODULES)
def test_every_name_a_submodule_exports_is_defined_there(stem):
    module = importlib.import_module(f"qpurify.{stem}")
    assert sorted(set(getattr(module, "__all__", ())) - defined_names(stem)) == []


@pytest.mark.parametrize("stem", ["__init__", *SUBMODULES])
def test_every_relative_import_names_the_defining_module(stem):
    misplaced = [
        f"from .{source} import {name}"
        for source, name in relative_imports(stem)
        if name not in defined_names(source)
    ]
    assert misplaced == []


def imports_qpurify(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "qpurify"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "qpurify" for alias in node.names)
    return False


@pytest.mark.parametrize("stem", ["noise", "flags"])
def test_leaf_modules_import_no_qpurify_module(stem):
    assert [ast.unparse(node) for node in ast.walk(module_tree(stem)) if imports_qpurify(node)] == []


#: Profiles every Python call from before ``qpurify.cli`` is imported, runs each
#: command line of argv[2] through ``cli.main`` and prints, as JSON, the exit codes
#: and the (file, first line) of every qpurify code object that ran.
TRACE_COMMANDS = """
import contextlib, io, json, sys
package, commands = sys.argv[1], json.loads(sys.argv[2])
ran = set()
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from qpurify import cli
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""


def public_functions() -> dict[tuple[str, int], str]:
    """Every public module-level def and public method of a public module-level class,
    keyed by (file, first line); a decorated def starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner, defs = "", [node]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                owner, defs = f"{node.name}.", node.body
            for d in defs:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_"):
                    first = min(n.lineno for n in [d, *d.decorator_list])
                    found[str(path), first] = f"{path.stem}.{owner}{d.name}"
    return found


def test_every_public_function_runs_under_a_command(tmp_path):
    # what only tests call belongs in the tests: the public surface is what the commands run
    configs = {
        "product": {"noise": {"family": "product", "f0": 0.97},
                    "scan": {"werner_grid": [0.85], "bisect_tol": 1e-3, "max_rounds": 500}},
        "bcnot": {"noise": {"family": "uniform", "f00": 0.9}, "placement": "before_bcnot",
                  "scan": {"lo": 0.8, "hi": 0.95, "bisect_tol": 0.001, "werner_grid": [0.9]}},
        "explicit": {"noise": {"family": "explicit", "f": [0.85] + [0.01] * 15}, "pairs": 1000},
    }
    for name, doc in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    commands = [
        ["scan", "--config", "product.json", "--out", "scan-product"],
        ["scan", "--config", "bcnot.json", "--out", "scan-bcnot"],
        ["iterate", "--preset", "fig1", "--out", "iterate-fig1"],
        ["iterate", "--config", "explicit.json", "--format", "json", "--out", "iterate-explicit"],
        ["mc", "--preset", "fig1", "--seed", "3", "--out", "mc-fig1"],
        ["mc", "--config", "explicit.json", "--format", "json", "--out", "mc-explicit"],
        ["verify"],
    ]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", TRACE_COMMANDS, f"{PACKAGE}{os.sep}", json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(result.stdout)
    assert report["codes"] == [0] * len(commands)
    ran = {tuple(entry) for entry in report["ran"]}
    idle = sorted(name for key, name in public_functions().items() if key not in ran)
    assert not idle, f"public, but run under no command: {idle}"
