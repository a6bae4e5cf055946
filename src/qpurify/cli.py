"""Command-line front end.

Subcommands:

* ``iterate`` -- run the exact recurrence, for at most ``rounds`` rounds or
  until the fixpoint, and write a trajectory file;
* ``mc``      -- run the finite-population Monte Carlo simulation;
* ``scan``    -- bisect the purification/security thresholds in the
  parameter of the configured noise family;
* ``verify``  -- cross-check every label table and the round map against
  the dense density-matrix oracle.

Exit codes: 0 success, 1 verification failure, 2 configuration error or
an output directory that cannot be written, 3 degenerate dynamics, 4 no
threshold in the scanned range.

``iterate``, ``mc`` and ``scan`` share one run path (:func:`_run`): the
configuration is loaded and checked, ``--out`` is made (or found to be a
directory) before any work, the command computes its files as text, and
they are written, with a ``metadata.json`` sidecar, in one loop.  A run
that fails, in its work or in a write, removes the files and directories
it created, so a fresh ``--out`` is left absent.

A trajectory file holds the rows of a :class:`~qpurify.recurrence.Trajectory`
or :class:`~qpurify.montecarlo.McTrajectory` under that type's ``columns``;
JSON has no NaN, so ``trajectory.json`` writes the fidelities of a round
that leaves no pair as ``null`` where the CSV writes ``nan``.
Every data file embeds the full effective configuration (defaults made
explicit); with ``--deterministic`` the timestamp is suppressed so
identical (config, seed) runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import ExperimentConfig, PRESETS, load_config_file
from .errors import ConfigError, DegenerateRoundError, NoThresholdError
from .montecarlo import init_ensemble, run_protocol
from .oracle import run_conformance_checks
from .recurrence import SubensembleState, find_thresholds, iterate


def _csv(columns: Sequence[str], rows: list, config: ExperimentConfig) -> str:
    """A header line echoing the configuration, the column names, then one line per row."""
    echo = json.dumps(config.effective(), sort_keys=True, separators=(",", ":"))
    lines = [f"# qpurify {__version__} config={echo}", ",".join(columns)]
    # rows hold Python numbers and strings, and str(float) is its shortest round-trip repr
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    # RFC 8259 has no NaN or Infinity, so a non-finite number raises rather than writing invalid JSON
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _trajectory_file(trajectory, config: ExperimentConfig, fmt: str) -> dict[str, str]:
    """The trajectory's rows under its own columns, as ``trajectory.csv`` or ``trajectory.json``."""
    columns, rows = trajectory.columns, trajectory.rows()
    if fmt == "csv":
        return {"trajectory.csv": _csv(columns, rows, config)}
    rows = [[None if math.isnan(value) else value for value in row] for row in rows]  # NaN is null
    return {"trajectory.json": _json({"config": config.effective(), "columns": columns, "rows": rows})}


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset:
        return ExperimentConfig.from_preset(args.preset)
    return load_config_file(args.config)


def _cmd_iterate(config: ExperimentConfig, args: argparse.Namespace) -> tuple[dict, dict]:
    trajectory = iterate(
        config.initial.state,
        config.noise_model(),
        max_rounds=config.rounds,
        fixpoint_tol=config.fixpoint_tol,
    )
    convergence = {
        "converged": trajectory.converged,
        "rounds": trajectory.rounds,
        "final_change": trajectory.final_change,
        "f_max": trajectory.limiting_fidelity,
        "conditional_limit": trajectory.limiting_conditional_fidelity,
    }
    return _trajectory_file(trajectory, config, args.format), {"convergence": convergence}


def _cmd_mc(config: ExperimentConfig, args: argparse.Namespace) -> tuple[dict, dict]:
    ensemble = init_ensemble(config.initial.state, config.pairs, seed=config.seed)
    trajectory = run_protocol(ensemble, config.noise_model(), config.rounds)
    extra = {
        "halted": trajectory.halted,
        "rounds": trajectory.rounds,
        "final_survivors": int(trajectory.survivors()[-1]),
    }
    return _trajectory_file(trajectory, config, args.format), extra


def _cmd_scan(config: ExperimentConfig, args: argparse.Namespace) -> tuple[dict, dict]:
    options = config.scan.as_dict()
    werner_grid = options.pop("werner_grid")
    options["fixpoint_tol"] = config.fixpoint_tol
    flag_mode = config.initial.flag_mode
    initials = [config.initial.state]
    initials += [SubensembleState.werner(fid, flag_mode=flag_mode) for fid in werner_grid]
    primary, *grid_scans = find_thresholds(config.scan_family(), initials, **options)
    primary.require_found()
    grid = {fid: scan if scan.found else None for fid, scan in zip(werner_grid, grid_scans)}

    found = {"primary": primary}
    found.update((f"werner_{fid}", scan) for fid, scan in grid.items() if scan is not None)
    points = [(x, regime, source) for source, scan in found.items() for x, regime in scan.evaluations]
    purify_values = [scan.f_purify for scan in found.values() if scan.f_purify is not None]
    secure_values = [scan.f_secure for scan in found.values() if scan.f_secure is not None]

    report = {
        "config": config.effective(),
        "primary": primary.as_dict(),
        "werner_grid": {
            repr(fid): None if scan is None else scan.as_dict() for fid, scan in grid.items()
        },
        "grid_summary": {
            "f_purify_min": min(purify_values) if purify_values else None,
            "f_purify_max": max(purify_values) if purify_values else None,
            "f_secure_min": min(secure_values) if secure_values else None,
            "f_secure_max": max(secure_values) if secure_values else None,
        },
    }
    files = {
        "thresholds.json": _json(report),
        "scan_points.csv": _csv(("parameter", "regime", "source"), sorted(points), config),
    }
    return files, {}


def _run(args: argparse.Namespace) -> None:
    """Check the configuration and ``--out``, compute, then write every file.

    ``args.func`` is the command: it takes the configuration and the
    parsed options and returns its files as ``{name: text}`` and the
    extra ``metadata.json`` entries that describe the run.  If the work or
    a write fails, the files and directories the run created are removed;
    what existed before it is kept.
    """
    config = _load_config(args)
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    if args.command == "scan":
        config.scan_family()  # the one ConfigError a loaded configuration can still raise
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    created = []
    try:
        files, extra = args.func(config, args)
        meta = {"tool": "qpurify", "version": __version__, "command": args.command,
                "config": config.effective(), **extra}
        if not args.deterministic:
            meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        files["metadata.json"] = _json(meta)
        created = [out / name for name in files if not (out / name).exists()]
        for name, text in files.items():
            (out / name).write_text(text)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        for d in made:  # innermost first, so each is empty when it goes
            d.rmdir()
        raise


def _cmd_verify() -> int:
    report = run_conformance_checks()
    for line in report.lines():
        print(line)
    if report.ok:
        print("verification passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpurify",
        description="Entanglement purification with noisy local operations.",
    )
    parser.add_argument("--version", action="version", version=f"qpurify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", metavar="PATH", help="JSON configuration file")
        source.add_argument(
            "--preset",
            metavar="NAME",
            choices=sorted(PRESETS),
            help=f"named configuration ({', '.join(sorted(PRESETS))})",
        )
        p.add_argument("--out", default="qpurify-out", metavar="DIR", help="output directory")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="omit timestamps so identical runs give identical bytes",
        )
        return p

    p_iterate = add_command("iterate", _cmd_iterate, "run the exact recurrence")
    p_mc = add_command("mc", _cmd_mc, "run the Monte Carlo population simulation")
    p_mc.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    for p in (p_iterate, p_mc):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_command("scan", _cmd_scan, "bisect the purification/security thresholds of noise.family")
    sub.add_parser("verify", help="cross-check tables against the dense oracle")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify()
    try:
        _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateRoundError as exc:
        print(f"degenerate dynamics: {exc}", file=sys.stderr)
        return 3
    except NoThresholdError as exc:
        print(f"no threshold: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
