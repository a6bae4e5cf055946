"""Correctness gates: each returns the list of ways an output is wrong.

The pinned values come from the seed commit of the repository:

* ``scan`` on ``{"noise": {"family": "product", "f0": 0.97}}`` with the
  default scan settings; thresholds may move by at most ``bisect_tol``;
* the engine's round-10 fidelity for ``--preset fig1``, which the Monte
  Carlo estimate must match within five of its own standard errors.
"""

from __future__ import annotations

import json

#: Bisection tolerance of the default scan settings.
BISECT_TOL = 1e-5

SCAN_PRIMARY = {"f_purify": 0.8983056640624999, "f_secure": 0.8987451171874999}
SCAN_GRID_SUMMARY = {
    "f_purify_min": 0.8983056640624999,
    "f_purify_max": 0.9011572265625,
    "f_secure_min": 0.8987353515625,
    "f_secure_max": 0.9011572265625,
}

MC_ROUNDS = 10
#: Exact-recurrence fidelity after ten rounds of the fig1 preset.
MC_ENGINE_F = 0.9784826754642882
MC_SIGMAS = 5.0


def _near(label: str, value, pinned: float, tol: float) -> list[str]:
    if not isinstance(value, (int, float)) or abs(value - pinned) > tol:
        return [f"{label} = {value!r}, pinned {pinned!r} +- {tol:g}"]
    return []


def check_scan(thresholds: bytes, reference: bytes | None = None) -> list[str]:
    """Gate for ``thresholds.json`` of the ``scan_product`` workload.

    ``reference`` is the file from an earlier invocation in the same run;
    under ``--deterministic`` the bytes must be identical.
    """
    failures = []
    report = json.loads(thresholds)
    for key, pinned in SCAN_PRIMARY.items():
        failures += _near(f"primary.{key}", report["primary"][key], pinned, BISECT_TOL)
    for key, pinned in SCAN_GRID_SUMMARY.items():
        failures += _near(f"grid_summary.{key}", report["grid_summary"][key], pinned, BISECT_TOL)
    if reference is not None and thresholds != reference:
        failures.append("thresholds.json differs between repeats under --deterministic")
    return failures


def scan_evaluations(thresholds: bytes) -> int:
    """Bisection evaluations made by one scan (primary plus Werner grid)."""
    report = json.loads(thresholds)
    scans = [report["primary"], *(s for s in report["werner_grid"].values() if s is not None)]
    return sum(len(s["evaluations"]) for s in scans)


def parse_trajectory_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Columns and numeric rows of a ``trajectory.csv`` file."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    return columns, [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_mc(trajectory: bytes, metadata: dict, reference: bytes | None = None) -> list[str]:
    """Gate for the ``mc_fig1`` workload's ``trajectory.csv`` and metadata.

    ``reference`` is the trajectory of an earlier invocation with the same
    seed; it must be byte-identical.
    """
    failures = []
    if metadata.get("halted") is not False:
        failures.append(f"population halted: halted={metadata.get('halted')!r}")
    if metadata.get("rounds") != MC_ROUNDS:
        failures.append(f"completed {metadata.get('rounds')!r} rounds, expected {MC_ROUNDS}")
    columns, rows = parse_trajectory_csv(trajectory.decode())
    last = dict(zip(columns, rows[-1]))
    if last["round"] != MC_ROUNDS:
        failures.append(f"last trajectory row is round {last['round']:g}, expected {MC_ROUNDS}")
    tol = MC_SIGMAS * last["sample_stddev_F"]
    failures += _near(f"round-{MC_ROUNDS} F", last["F"], MC_ENGINE_F, tol)
    if reference is not None and trajectory != reference:
        failures.append("trajectory.csv differs between runs with the same seed")
    return failures


def mc_records_in(trajectory: bytes) -> int:
    """Records that entered a round: the population before each round."""
    columns, rows = parse_trajectory_csv(trajectory.decode())
    survivors = columns.index("survivors")
    return int(sum(row[survivors] for row in rows[:-1]))


def check_verify(exit_code: int, reports: list) -> list[str]:
    """Gate for ``qpurify verify``: exit 0 and one conformance report that is ok."""
    failures = []
    if exit_code != 0:
        failures.append(f"verify exited with {exit_code}")
    if len(reports) != 1:
        failures.append(f"expected one conformance report, got {len(reports)}")
    for report in reports:
        if not report.ok:
            failed = [line for line in report.lines() if line.startswith("[FAIL]")]
            failures.append("conformance report is not ok: " + "; ".join(failed))
    return failures
