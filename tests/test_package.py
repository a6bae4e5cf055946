"""The installed package: its version and its public names."""

import re
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


def test_every_exported_name_resolves():
    assert [name for name in qpurify.__all__ if not hasattr(qpurify, name)] == []
