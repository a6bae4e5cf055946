"""Command-line exit codes, option handling and deterministic output."""

import hashlib
import json
import subprocess
import sys

import pytest

from qpurify import cli, oracle
from qpurify.cli import main

DEGENERATE = {
    # sigma_x on the target pair's qubit every time: every measurement of a
    # pure Phi+ input anti-coincides, so the keep probability is 0
    "noise": {"family": "explicit", "f": [0, 1] + [0] * 14},
    "initial": {"bell_probs": [1, 0, 0, 0]},
}
#: Both ends of this range are secure, so no boundary is bracketed.
NO_THRESHOLD = {
    "noise": {"family": "product", "f0": 0.97},
    "scan": {"lo": 0.96, "hi": 0.99, "werner_grid": [0.85]},
}
SMALL_MC = {"noise": {"family": "uniform", "f00": 0.97}, "pairs": 20_000, "rounds": 3, "seed": 5}
#: Halts after round 2 with one pair left.
HALTED_MC = {"noise": {"family": "uniform", "f00": 0.5}, "pairs": 9, "rounds": 20, "seed": 3}
#: Round 1 leaves no pair, so its row has NaN fidelities.
EMPTIED_MC = {"noise": {"family": "uniform", "f00": 0.3}, "pairs": 6, "rounds": 20, "seed": 0}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, out):
    return main([*argv, "--out", str(out), "--deterministic"])


def test_iterate_preset_succeeds(tmp_path):
    assert run(["iterate", "--preset", "fig1"], tmp_path / "out") == 0
    metadata = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert metadata["command"] == "iterate"
    assert "mode" not in metadata["config"]
    assert "timestamp" not in metadata


@pytest.mark.parametrize("command", ["iterate", "mc", "scan"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    assert run([command, "--preset", "fig1", "--seed", "-1"], tmp_path / "out") == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_file_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"noise": {"family": "product", "f0": 0.97}, "mode": "mc"})
    assert run(["iterate", "--config", path], tmp_path / "out") == 2
    assert "unknown key" in capsys.readouterr().err


NON_FINITE = [
    # written with json.dumps, which emits the NaN literal that json.loads accepts
    ("iterate", {"noise": {"family": "explicit", "f": [float("nan")] + [0.0] * 15}, "rounds": 3}),
    ("scan", {"noise": {"family": "product", "f0": 0.97}, "scan": {"bisect_tol": float("nan")}}),
]


@pytest.mark.parametrize("command, doc", NON_FINITE, ids=["explicit-f", "bisect-tol"])
def test_non_finite_number_exits_2(tmp_path, capsys, command, doc):
    path = write_config(tmp_path, doc)
    assert "NaN" in (tmp_path / "config.json").read_text()
    assert run([command, "--config", path], tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_prints_every_check_in_order(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] rotation relabeling vs dense conjugation",
        "[PASS] control-pair event shifts vs dense conjugation",
        "[PASS] target-pair event shifts vs dense conjugation",
        "[PASS] BCNOT label map vs dense conjugation",
        "[PASS] BCNOT label map is a bijection",
        "[PASS] flag combination table vs label-algebra derivation",
        "[PASS] round map vs oracle on 20 random instances (<= 1e-10)",
        "verification passed",
    ]


def test_failed_verification_exits_1(monkeypatch, capsys):
    corrupted = oracle.FLAG_UPDATE_TABLE.copy()
    corrupted[1, 2] ^= 1
    monkeypatch.setattr(oracle, "FLAG_UPDATE_TABLE", corrupted)
    real = cli.run_conformance_checks
    monkeypatch.setattr(cli, "run_conformance_checks", lambda: real(round_samples=2))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] flag combination table" in captured.out
    assert "verification FAILED" in captured.err


def test_population_over_the_sampler_limit_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {**SMALL_MC, "pairs": 10**9})
    assert run(["mc", "--config", path], tmp_path / "out") == 2
    assert "pairs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_uses_the_top_level_fixpoint_tol(tmp_path):
    # at product f0 = 0.9 a loose tolerance stops iterating before the
    # conditional fidelity reaches 1, so that end is labelled insecure
    scan = {"noise": {"family": "product", "f0": 0.97},
            "scan": {"lo": 0.88, "hi": 0.9, "bisect_tol": 0.01, "werner_grid": []}}
    regimes = {}
    for tol in (1e-12, 1e-3):
        path = write_config(tmp_path, {**scan, "fixpoint_tol": tol})
        assert run(["scan", "--config", path], tmp_path / repr(tol)) == 0
        report = json.loads((tmp_path / repr(tol) / "thresholds.json").read_text())
        assert report["config"]["fixpoint_tol"] == tol
        regimes[tol] = {e["parameter"]: e["regime"] for e in report["primary"]["evaluations"]}
    assert regimes[1e-12][0.9] == "PURIFY_SECURE"
    assert regimes[1e-3][0.9] == "PURIFY_INSECURE"
    assert regimes[1e-12] != regimes[1e-3]


def test_preset_and_config_are_exclusive(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_MC)
    assert run(["iterate", "--preset", "fig1", "--config", path], tmp_path / "out") == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_config_or_preset_required(tmp_path, capsys):
    assert run(["iterate"], tmp_path / "out") == 2
    assert "required" in capsys.readouterr().err


def test_degenerate_dynamics_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, DEGENERATE)
    assert run(["iterate", "--config", path], tmp_path / "out") == 3
    assert "degenerate" in capsys.readouterr().err


def test_no_threshold_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, NO_THRESHOLD)
    assert run(["scan", "--config", path], tmp_path / "out") == 4
    assert "no threshold" in capsys.readouterr().err


def output_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize(
    "argv",
    [["iterate", "--preset", "fig1"], ["mc", "--config", None], ["mc", "--config", None, "--format", "json"]],
    ids=["iterate", "mc-csv", "mc-json"],
)
def test_deterministic_reruns_are_byte_identical(tmp_path, argv):
    argv = [write_config(tmp_path, SMALL_MC) if a is None else a for a in argv]
    assert run(argv, tmp_path / "a") == 0
    assert run(argv, tmp_path / "b") == 0
    first = output_bytes(tmp_path / "a")
    assert first == output_bytes(tmp_path / "b")
    assert "metadata.json" in first and len(first) == 2


PINNED_TRAJECTORIES = [
    # (config, format, SHA-256 of the trajectory file, rounds, final survivors)
    (HALTED_MC, "csv", "d255b7bd70a8edff2990abfe1cfd92c7fa32de93427ee6adeae4e35ad210e44b", 2, 1),
    (HALTED_MC, "json", "304ab4d41bb77fa05c3916406c0de3da70ef174ac51e051161cccd0e656c78bb", 2, 1),
    (EMPTIED_MC, "csv", "d5c5efdadacca77eb11fc9c9c26aaa18bbf7a23ccbe71117289ddaa42f100c4f", 1, 0),
    (EMPTIED_MC, "json", "4d8b97f20c7d2c25c0bf60ee2f8e4e6d705c66848b20c6b35be371c1d2e25f21", 1, 0),
]


@pytest.mark.parametrize(
    "doc, fmt, digest, rounds, survivors",
    PINNED_TRAJECTORIES,
    ids=["halted-csv", "halted-json", "emptied-csv", "emptied-json"],
)
def test_mc_trajectory_bytes_are_pinned(tmp_path, doc, fmt, digest, rounds, survivors):
    path = write_config(tmp_path, doc)
    assert run(["mc", "--config", path, "--format", fmt], tmp_path / "out") == 0
    data = (tmp_path / "out" / f"trajectory.{fmt}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    metadata = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert metadata["halted"] is True
    assert (metadata["rounds"], metadata["final_survivors"]) == (rounds, survivors)


#: Uniform family, noise between rotation and CNOT, uniformly random input
#: flags; the Werner 0.4 grid row purifies at neither end, so it has no threshold.
BCNOT_SCAN = {
    "noise": {"family": "uniform", "f00": 0.97},
    "initial": {"flag_mode": "random"},
    "placement": "before_bcnot",
    "scan": {"family": "uniform", "lo": 0.8, "hi": 0.95, "bisect_tol": 1e-3,
             "werner_grid": [0.4, 0.6], "max_rounds": 500},
}

PINNED_SCANS = [
    # (config, SHA-256 of thresholds.json, SHA-256 of scan_points.csv)
    ({"noise": {"family": "product", "f0": 0.97}},
     "3940b72d837d40bd4e1fe3c6441132ffa002d8912cf69426a1d0df47b5c2daa0",
     "0609e3fea93efb9a92f7004667754cfd942da224a0d548d42417119f699a0142"),
    (BCNOT_SCAN,
     "3d0d3fe0cfb034282c0195a8c4a61bc294f00d1533637d01cc7c9a18e81efdb5",
     "b1f5e13ef9796c27c1ae283e1affdcc0e4db3c6e24e43891b973804bc450b736"),
]


@pytest.mark.parametrize("doc, thresholds, points", PINNED_SCANS, ids=["product", "bcnot-uniform"])
def test_scan_bytes_are_pinned(tmp_path, doc, thresholds, points):
    path = write_config(tmp_path, doc)
    assert run(["scan", "--config", path], tmp_path / "out") == 0
    out = tmp_path / "out"
    assert hashlib.sha256((out / "thresholds.json").read_bytes()).hexdigest() == thresholds
    assert hashlib.sha256((out / "scan_points.csv").read_bytes()).hexdigest() == points


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: no command may need it
    code = "import sys, qpurify.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
