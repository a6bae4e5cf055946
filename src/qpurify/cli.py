"""Command-line front end.

Subcommands:

* ``iterate`` -- run the exact recurrence and write a trajectory file;
* ``mc``      -- run the finite-population Monte Carlo simulation;
* ``scan``    -- bisect purification/security thresholds of a noise family;
* ``verify``  -- cross-check every label table and the round map against
  the dense density-matrix oracle.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 degenerate dynamics, 4 no threshold in the scanned range.

A trajectory file holds the rows of a :class:`~qpurify.recurrence.Trajectory`
or :class:`~qpurify.montecarlo.McTrajectory` under that type's ``columns``.
Every data file embeds the full effective configuration (defaults made
explicit) and each run writes a ``metadata.json`` sidecar; with
``--deterministic`` the timestamp is suppressed so identical
(config, seed) runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import ExperimentConfig, PRESETS, load_config_file
from .errors import ConfigError, DegenerateRoundError, NoThresholdError
from .montecarlo import McTrajectory, init_ensemble, run_protocol
from .noise import NOISE_FAMILIES
from .oracle import run_conformance_checks
from .recurrence import SubensembleState, Trajectory, iterate, scan_thresholds


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_echo(config: ExperimentConfig) -> str:
    return json.dumps(config.effective(), sort_keys=True, separators=(",", ":"))


def _write_csv(
    path: Path, columns: Sequence[str], rows: list[list], config: ExperimentConfig
) -> None:
    lines = [f"# qpurify {__version__} config={_config_echo(config)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _metadata(command: str, config: ExperimentConfig, deterministic: bool, **extra) -> dict:
    meta = {
        "tool": "qpurify",
        "version": __version__,
        "command": command,
        "config": config.effective(),
        **extra,
    }
    if not deterministic:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _write_trajectory(
    out_dir: Path,
    fmt: str,
    trajectory: Trajectory | McTrajectory,
    config: ExperimentConfig,
    metadata: dict,
) -> None:
    """Write the trajectory's rows under its own columns, and the metadata sidecar."""
    out_dir.mkdir(parents=True, exist_ok=True)
    columns, rows = trajectory.columns, trajectory.rows()
    if fmt == "csv":
        _write_csv(out_dir / "trajectory.csv", columns, rows, config)
    else:
        _write_json(
            out_dir / "trajectory.json",
            {"config": config.effective(), "columns": columns, "rows": rows},
        )
    _write_json(out_dir / "metadata.json", metadata)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.preset:
        config = ExperimentConfig.from_preset(args.preset)
    elif args.config:
        config = load_config_file(args.config)
    else:
        raise ConfigError("one of --config or --preset is required")
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _cmd_iterate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    trajectory = iterate(
        config.initial.state,
        config.noise_model(),
        max_rounds=config.rounds,
        fixpoint_tol=config.fixpoint_tol,
        placement=config.placement,
    )
    metadata = _metadata(
        "iterate",
        config,
        args.deterministic,
        convergence={
            "converged": trajectory.converged,
            "rounds": trajectory.rounds,
            "final_change": trajectory.final_change,
            "f_max": trajectory.limiting_fidelity,
            "conditional_limit": trajectory.limiting_conditional_fidelity,
        },
    )
    _write_trajectory(Path(args.out), args.format, trajectory, config, metadata)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ensemble = init_ensemble(config.initial.state, config.pairs, seed=config.seed)
    trajectory = run_protocol(
        ensemble, config.noise_model(), config.rounds, placement=config.placement
    )
    metadata = _metadata(
        "mc",
        config,
        args.deterministic,
        halted=trajectory.halted,
        rounds=trajectory.rounds,
        final_survivors=int(trajectory.survivors()[-1]),
    )
    _write_trajectory(Path(args.out), args.format, trajectory, config, metadata)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _load_config(args)
    options = config.scan.as_dict()
    _, family = NOISE_FAMILIES[options.pop("family")]
    werner_grid = options.pop("werner_grid")
    options.update(fixpoint_tol=config.fixpoint_tol, placement=config.placement)
    flag_mode = config.initial.flag_mode
    initials = [config.initial.state]
    initials += [SubensembleState.werner(fid, flag_mode=flag_mode) for fid in werner_grid]
    primary, *grid_scans = scan_thresholds(family, initials, **options)
    primary.require_found()
    grid = {fid: scan if scan.found else None for fid, scan in zip(werner_grid, grid_scans)}

    found = {"primary": primary}
    found.update((f"werner_{fid}", scan) for fid, scan in grid.items() if scan is not None)
    points = [(x, regime, source) for source, scan in found.items() for x, regime in scan.evaluations]
    purify_values = [scan.f_purify for scan in found.values() if scan.f_purify is not None]
    secure_values = [scan.f_secure for scan in found.values() if scan.f_secure is not None]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_json(out_dir / "thresholds.json", report)
    rows = [[x, regime, source] for x, regime, source in sorted(points)]
    _write_csv(out_dir / "scan_points.csv", ["parameter", "regime", "source"], rows, config)
    _write_json(
        out_dir / "metadata.json",
        _metadata("scan", config, args.deterministic, thresholds=report["primary"]),
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument(
            "--preset",
            metavar="NAME",
            choices=sorted(PRESETS),
            help=f"named configuration ({', '.join(sorted(PRESETS))})",
        )
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--out", default="qpurify-out", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="omit timestamps so identical runs give identical bytes",
        )

    p_iterate = sub.add_parser("iterate", help="run the exact recurrence")
    add_common(p_iterate)
    p_iterate.set_defaults(func=_cmd_iterate)

    p_mc = sub.add_parser("mc", help="run the Monte Carlo population simulation")
    add_common(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    p_scan = sub.add_parser("scan", help="bisect purification/security thresholds")
    add_common(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser("verify", help="cross-check tables against the dense oracle")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateRoundError as exc:
        print(f"degenerate dynamics: {exc}", file=sys.stderr)
        return 3
    except NoThresholdError as exc:
        print(f"no threshold: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
