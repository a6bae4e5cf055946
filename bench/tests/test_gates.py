"""Each correctness gate passes on real output and rejects a corrupted one."""

import json

import numpy as np
import pytest

import gates
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.oracle import run_conformance_checks
from workloads import McFig1, ScanProduct, Verify


@pytest.fixture(scope="module")
def scan_output(tmp_path_factory):
    workload = ScanProduct(tmp_path_factory.mktemp("scan"), seed=0)
    outcome = workload.check(*workload.invoke())
    assert outcome.failures == []
    assert outcome.items == 104
    return (workload.out_dir / "thresholds.json").read_bytes()


@pytest.fixture(scope="module")
def mc_output(tmp_path_factory):
    workload = McFig1(tmp_path_factory.mktemp("mc"), seed=5)
    outcome = workload.check(*workload.invoke())
    assert outcome.failures == []
    trajectory = (workload.out_dir / "trajectory.csv").read_bytes()
    metadata = json.loads((workload.out_dir / "metadata.json").read_text())
    return trajectory, metadata


def _moved(thresholds: bytes, section: str, key: str, delta: float) -> bytes:
    report = json.loads(thresholds)
    report[section][key] += delta
    return json.dumps(report, indent=2, sort_keys=True).encode()


@pytest.mark.parametrize("section, key", [
    ("primary", "f_purify"),
    ("primary", "f_secure"),
    ("grid_summary", "f_purify_min"),
    ("grid_summary", "f_secure_max"),
])
def test_scan_gate_rejects_threshold_moved_by_two_bisect_tol(scan_output, section, key):
    assert gates.check_scan(scan_output, scan_output) == []
    assert gates.check_scan(_moved(scan_output, section, key, 0.5 * gates.BISECT_TOL)) == []
    failures = gates.check_scan(_moved(scan_output, section, key, 2 * gates.BISECT_TOL))
    assert any(f"{section}.{key}" in f for f in failures)


def test_scan_gate_rejects_bytes_that_differ_between_repeats(scan_output):
    assert gates.check_scan(scan_output, scan_output + b"\n")


def _shift_final_f(trajectory: bytes, sigmas: float) -> bytes:
    lines = trajectory.decode().splitlines()
    columns = lines[1].split(",")
    last = lines[-1].split(",")
    sigma = float(last[columns.index("sample_stddev_F")])
    last[columns.index("F")] = repr(float(last[columns.index("F")]) + sigmas * sigma)
    return ("\n".join([*lines[:-1], ",".join(last)]) + "\n").encode()


def test_mc_gate_rejects_final_fidelity_moved_by_ten_sigma(mc_output):
    trajectory, metadata = mc_output
    assert gates.check_mc(trajectory, metadata, trajectory) == []
    for sigmas in (10.0, -10.0):
        failures = gates.check_mc(_shift_final_f(trajectory, sigmas), metadata)
        assert any("round-10 F" in f for f in failures)


def test_mc_gate_rejects_halted_or_short_runs_and_changed_bytes(mc_output):
    trajectory, metadata = mc_output
    assert gates.check_mc(trajectory, {**metadata, "halted": True})
    assert gates.check_mc(trajectory, {**metadata, "rounds": 9})
    assert gates.check_mc(trajectory, metadata, reference=_shift_final_f(trajectory, 0.5))


def test_verify_gate_rejects_an_altered_flag_table(tmp_path):
    workload = Verify(tmp_path, seed=3)
    outcome = workload.check(*workload.invoke())
    assert outcome.failures == []
    assert outcome.items == 20

    altered = np.array(FLAG_UPDATE_TABLE, copy=True)
    altered[1, 2] ^= 0b11
    report = run_conformance_checks(round_samples=1, seed=3, flag_table=altered)
    failures = gates.check_verify(0, [report])
    assert failures and "flag combination table" in failures[0]
    assert gates.check_verify(1, [run_conformance_checks(round_samples=1)])
