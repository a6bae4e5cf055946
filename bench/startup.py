"""Set-up measurements in fresh interpreters.

``setup_s`` is the wall time of a fresh ``python3`` that imports
``qpurify.cli``, parses the workload's argv and loads its configuration
(:mod:`setup_probe`), timed from outside the child.  The traced run
re-runs the probe under ``-X importtime`` and splits the import into
numpy, scipy and the rest (``qpurify`` and the standard library it pulls
in), each module's self time going to the nearest numpy or scipy
ancestor in the import tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from spans import PACKAGE

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
PROBE_TIMEOUT_S = 120


class ProbeError(RuntimeError):
    pass


def run_probe(argv: list[str], cwd: Path, importtime: bool = False) -> tuple[float, dict, str]:
    """Run the probe once; returns (wall s, its report, its stderr)."""
    command = [sys.executable, *(["-X", "importtime"] if importtime else []), str(PROBE), *argv]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise ProbeError(f"set-up probe exited with {done.returncode}: {done.stderr[-2000:]}")
    return wall, json.loads(done.stdout.splitlines()[-1]), done.stderr


def _family(module: str) -> str | None:
    top = module.split(".", 1)[0]
    return top if top in ("numpy", "scipy") else None


def import_breakdown(importtime_log: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and the rest under :data:`PACKAGE`.

    Parses ``-X importtime`` output, where a module's line follows the
    lines of the imports it triggered, one indentation level deeper.
    Only import trees rooted at :data:`PACKAGE` count.
    """
    pending: dict[int, list[tuple[str, int, list]]] = {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_field, _, name = line[len("import time:"):].split("|")
        self_us = int(self_field)
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), self_us, pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)

    totals = {"numpy": 0, "scipy": 0, "other": 0}

    def walk(node, inherited):
        name, self_us, children = node
        family = _family(name) or inherited
        totals[family or "other"] += self_us
        for child in children:
            walk(child, family)

    for root in pending.get(0, []):
        if root[0] == PACKAGE or root[0].startswith(PACKAGE + "."):
            walk(root, None)
    return {
        "setup.numpy_import_s": totals["numpy"] / 1e6,
        "setup.scipy_import_s": totals["scipy"] / 1e6,
        "setup.qpurify_import_s": totals["other"] / 1e6,
    }
