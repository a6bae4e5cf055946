"""The installed package: its version, its public names, and one home for each name."""

import ast
import importlib
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
