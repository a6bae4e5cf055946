"""Command-line exit codes, option handling and deterministic output."""

import datetime
import errno
import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from qpurify import cli, oracle, recurrence
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


def test_a_run_without_deterministic_stamps_its_utc_time(tmp_path):
    before = datetime.datetime.now(datetime.timezone.utc)
    assert main(["iterate", "--preset", "fig1", "--out", str(tmp_path / "out")]) == 0
    after = datetime.datetime.now(datetime.timezone.utc)
    metadata = json.loads((tmp_path / "out" / "metadata.json").read_text())
    stamp = datetime.datetime.fromisoformat(metadata["timestamp"])
    assert stamp.utcoffset() == datetime.timedelta(0)
    assert before <= stamp <= after


@pytest.mark.parametrize("command", ["mc"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    assert run([command, "--preset", "fig1", "--seed", "-1"], tmp_path / "out") == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["scan", "--format", "json"], ["scan", "--seed", "1"], ["iterate", "--seed", "1"]],
    ids=["scan-format", "scan-seed", "iterate-seed"],
)
def test_options_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--preset", "fig1", *argv[1:]], tmp_path / "out")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert run(["iterate", "--config", str(path)], tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
    assert not (tmp_path / "out").exists()


def test_bad_config_file_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"noise": {"family": "product", "f0": 0.97}, "mode": "mc"})
    assert run(["iterate", "--config", path], tmp_path / "out") == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "too-deep"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert run(["iterate", "--config", str(path)], tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
    assert not (tmp_path / "out").exists()


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
        "[PASS] Pauli label shifts vs dense conjugation",
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
    with pytest.raises(SystemExit) as exc:
        run(["iterate", "--preset", "fig1", "--config", path], tmp_path / "out")
    assert exc.value.code == 2
    assert "argument --config: not allowed with argument --preset" in capsys.readouterr().err


def test_config_or_preset_required(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["iterate"], tmp_path / "out")
    assert exc.value.code == 2
    assert "one of the arguments --config --preset is required" in capsys.readouterr().err


#: A quick scan over [0.8, 0.95] of the primary input only.
QUICK_SCAN = {"lo": 0.8, "hi": 0.95, "bisect_tol": 1e-3, "werner_grid": [], "max_rounds": 500}


@pytest.mark.parametrize(
    "noise, f_purify, f_secure",
    [({"family": "product", "f0": 0.97}, 0.89814453125, 0.8993164062500001),
     ({"family": "uniform", "f00": 0.97}, 0.83837890625, 0.84013671875)],
    ids=["product", "uniform"],
)
def test_scan_bisects_the_configured_noise_family(tmp_path, noise, f_purify, f_secure):
    path = write_config(tmp_path, {"noise": noise, "scan": QUICK_SCAN})
    assert run(["scan", "--config", path], tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "thresholds.json").read_text())
    assert (report["primary"]["f_purify"], report["primary"]["f_secure"]) == (f_purify, f_secure)
    assert "family" not in report["config"]["scan"]


def test_a_scan_runs_through_both_batched_layers(tmp_path, monkeypatch):
    # one find_thresholds call per scan, whose batches reach classify_regime by its module name
    calls = {"find_thresholds": 0, "classify_regime": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli, "find_thresholds")
    count(recurrence, "classify_regime")
    path = write_config(tmp_path, {"noise": {"family": "product", "f0": 0.97}, "scan": QUICK_SCAN})
    assert run(["scan", "--config", path], tmp_path / "out") == 0
    assert calls["find_thresholds"] == 1 and calls["classify_regime"] >= 1


def test_scan_of_explicit_noise_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {**DEGENERATE, "scan": QUICK_SCAN})
    assert run(["scan", "--config", path], tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "noise.family" in err
    assert not (tmp_path / "out").exists()


def test_scan_of_the_fig1_preset_has_no_threshold(tmp_path, capsys):
    # the uniform family at f00 = 0.88 and 0.92 is PURIFY_SECURE at both ends
    assert run(["scan", "--preset", "fig1"], tmp_path / "out") == 4
    assert "no threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["iterate", "--preset", "fig1"], ["mc", "--config", None], ["scan", "--config", None]],
    ids=["iterate", "mc", "scan"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    docs = {"mc": SMALL_MC, "scan": {"noise": {"family": "product", "f0": 0.97}, "scan": QUICK_SCAN}}
    argv = [write_config(tmp_path, docs[argv[0]]) if a is None else a for a in argv]
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert run(argv, out) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize(
    "argv, compute",
    [(["iterate", "--preset", "fig1"], "iterate"), (["mc", "--preset", "fig1"], "run_protocol"),
     (["scan", "--config", None], "find_thresholds")],
    ids=["iterate", "mc", "scan"],
)
def test_unwritable_output_exits_2_before_the_work(tmp_path, monkeypatch, capsys, argv, compute):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{compute} ran although --out cannot be written")

    monkeypatch.setattr(cli, compute, refuse)
    doc = {"noise": {"family": "product", "f0": 0.97}}
    argv = [write_config(tmp_path, doc) if a is None else a for a in argv]
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert run(argv, out) == 2
    assert "cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, code",
    [("iterate", DEGENERATE, 3), ("scan", NO_THRESHOLD, 4)],
    ids=["degenerate", "no-threshold"],
)
def test_a_failed_run_leaves_no_directory(tmp_path, command, doc, code):
    path = write_config(tmp_path, doc)
    assert run([command, "--config", path], tmp_path / "new" / "out") == code
    assert not (tmp_path / "new").exists()


def test_a_failed_run_keeps_an_existing_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["iterate", "--config", write_config(tmp_path, DEGENERATE)], out) == 3
    assert out.is_dir() and not any(out.iterdir())


def fail_the_second_write(monkeypatch):
    """Make the run's second ``Path.write_text`` create its file, then fail as a full disk does."""
    real, calls = pathlib.Path.write_text, []

    def write_text(path, text, *args, **kwargs):
        calls.append(path)
        if len(calls) == 2:
            real(path, "", *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(path, text, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", write_text)
    return calls


def test_a_failed_write_leaves_no_output_behind(tmp_path, monkeypatch, capsys):
    calls = fail_the_second_write(monkeypatch)
    assert run(["iterate", "--preset", "fig1"], tmp_path / "fresh" / "run") == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(calls) == 2 and not (tmp_path / "fresh").exists()


def test_a_failed_write_keeps_an_existing_directory(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    fail_the_second_write(monkeypatch)
    assert run(["iterate", "--preset", "fig1"], out) == 2
    assert [path.name for path in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


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
    (HALTED_MC, "csv", "28af42e459906999b5c49d511c27c26127b2b98baae3c80219242d1bf9121afd", 2, 1),
    (HALTED_MC, "json", "6f60f1c8bda12b80a3989c7b454a4124084c0070f0457d8f54c567be5df8bd0c", 2, 1),
    (EMPTIED_MC, "csv", "0357b4820bbd3b490f30c0d84151fccca0600798d4484a80a0933c9a0d494b53", 1, 0),
    (EMPTIED_MC, "json", "16cf2ccb632f4f4ab6b6cc8082121c8360847c1501637777dfc4e64e7fb74ab2", 1, 0),
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


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON value under RFC 8259")


def test_an_emptied_round_writes_strict_json(tmp_path):
    # a round that leaves no pair has no fidelity: its JSON says null, not the NaN literal
    path = write_config(tmp_path, EMPTIED_MC)
    assert run(["mc", "--config", path, "--format", "json"], tmp_path / "out") == 0
    files = sorted((tmp_path / "out").iterdir())
    assert [f.name for f in files] == ["metadata.json", "trajectory.json"]
    for f in files:
        json.loads(f.read_text(), parse_constant=refuse_constant)
    rows = json.loads((tmp_path / "out" / "trajectory.json").read_text())["rows"]
    assert rows[-1][1:3] == [None, None] and rows[-1][-1] is None


def test_json_output_refuses_a_non_finite_number():
    with pytest.raises(ValueError):
        cli._json({"value": float("nan")})


#: Product family, noise between rotation and CNOT, uniformly random input
#: flags; converges in 34 of its 500 rounds.
BCNOT_ITERATE = {
    "noise": {"family": "product", "f0": 0.95},
    "initial": {"bell_probs": [0.8, 0.1, 0.05, 0.05], "flag_mode": "random"},
    "placement": "before_bcnot",
    "rounds": 500,
}

PINNED_ITERATIONS = [
    # (config or preset, format, SHA-256 of the trajectory file, SHA-256 of metadata.json)
    ("fig1", "csv", "164010aebda1f3ac3ee43ec3e2c838b42e483eae6f4b850980e60b333d2a32b0",
     "37a4e3f743623c3e5e0f25ece9b4eaba692212b548d86232b976d1e53ecb89b0"),
    ("fig1", "json", "fdc24b940bc4511b11b499d6b2eb87d48db6b8cd1b1f3cbd849bee468b5ee103",
     "37a4e3f743623c3e5e0f25ece9b4eaba692212b548d86232b976d1e53ecb89b0"),
    (BCNOT_ITERATE, "csv", "651f4e75232773d86d3f1e2a2b6abba535385826af2512a1b6f01e7ee55b5f17",
     "8ccff83d86343e1348a0f1b4cbfa0c650de36385b2598052dd7cc53f2c2b5d33"),
]


@pytest.mark.parametrize(
    "source, fmt, trajectory, metadata",
    PINNED_ITERATIONS,
    ids=["fig1-csv", "fig1-json", "bcnot-random-flags"],
)
def test_iterate_bytes_are_pinned(tmp_path, source, fmt, trajectory, metadata):
    source = ["--preset", source] if isinstance(source, str) else ["--config", write_config(tmp_path, source)]
    assert run(["iterate", *source, "--format", fmt], tmp_path / "out") == 0
    out = tmp_path / "out"
    assert hashlib.sha256((out / f"trajectory.{fmt}").read_bytes()).hexdigest() == trajectory
    assert hashlib.sha256((out / "metadata.json").read_bytes()).hexdigest() == metadata


#: Uniform family, noise between rotation and CNOT, uniformly random input
#: flags; the Werner 0.4 grid row purifies at neither end, so it has no threshold.
BCNOT_SCAN = {
    "noise": {"family": "uniform", "f00": 0.97},
    "initial": {"flag_mode": "random"},
    "placement": "before_bcnot",
    "scan": {"lo": 0.8, "hi": 0.95, "bisect_tol": 1e-3,
             "werner_grid": [0.4, 0.6], "max_rounds": 500},
}

PINNED_SCANS = [
    # (config, SHA-256 of thresholds.json, SHA-256 of scan_points.csv)
    ({"noise": {"family": "product", "f0": 0.97}},
     "9c028e3fad76011dbc644254a2c2c75a1748110434133cbf590dc9ba8e34a717",
     "4f9b336ad3eeac00a71501fffe50c959db94febc7105903bd8f46934ca20edf8"),
    (BCNOT_SCAN,
     "ab0449c268da405f7a9eea9853dcf563dc71c26fe115ee8eefc5c067ad37e571",
     "4df3c3c7623513e51fd9736663e0e3ebd24aba049530e2aef1ac168e04da26e0"),
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
