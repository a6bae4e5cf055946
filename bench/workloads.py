"""The benchmark's workloads: one ``qpurify`` command each, run in-process.

Each workload builds its inputs from the benchmark seed, invokes
``qpurify.cli.main`` with the argv a user would type, and checks the
files the command wrote through :mod:`gates`.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
from dataclasses import dataclass
from pathlib import Path

from qpurify import cli

import gates


@dataclass
class Outcome:
    """What one invocation produced, as the gates and metrics need it."""

    failures: list[str]
    items: int
    output_bytes: int


def _output_bytes(out_dir: Path, stdout: str) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir()) + len(stdout.encode())


class Workload:
    name = ""
    #: What ``items_per_s`` counts on this workload.
    item = ""

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.work_dir = work_dir
        self.seed = seed
        self.out_dir = work_dir / "out"
        self.reference: bytes | None = None

    @property
    def argv(self) -> list[str]:
        raise NotImplementedError

    def _main(self) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(self.argv)
        return code, stdout.getvalue()

    def invoke(self) -> tuple[int, str]:
        """Run the command once; returns its exit code and standard output."""
        return self._main()

    def check(self, exit_code: int, stdout: str) -> Outcome:
        raise NotImplementedError


class ScanProduct(Workload):
    """``qpurify scan`` on the product family at f0 = 0.97, default settings."""

    name = "scan_product"
    item = "bisection evaluations"
    CONFIG = {"noise": {"family": "product", "f0": 0.97}}

    def __init__(self, work_dir: Path, seed: int) -> None:
        super().__init__(work_dir, seed)
        self.config_path = work_dir / "scan_product.json"
        self.config_path.write_text(json.dumps(self.CONFIG))

    @property
    def argv(self) -> list[str]:
        return ["scan", "--config", str(self.config_path), "--out", str(self.out_dir),
                "--deterministic"]

    def check(self, exit_code: int, stdout: str) -> Outcome:
        if exit_code != 0:
            return Outcome([f"scan exited with {exit_code}"], 0, 0)
        thresholds = (self.out_dir / "thresholds.json").read_bytes()
        failures = gates.check_scan(thresholds, self.reference)
        self.reference = self.reference or thresholds
        return Outcome(failures, gates.scan_evaluations(thresholds),
                       _output_bytes(self.out_dir, stdout))


class McFig1(Workload):
    """``qpurify mc --preset fig1 --seed <seed>``: 1e7 records, 10 rounds."""

    name = "mc_fig1"
    item = "records entering a round"

    @property
    def argv(self) -> list[str]:
        return ["mc", "--preset", "fig1", "--seed", str(self.seed), "--out",
                str(self.out_dir), "--deterministic"]

    def check(self, exit_code: int, stdout: str) -> Outcome:
        if exit_code != 0:
            return Outcome([f"mc exited with {exit_code}"], 0, 0)
        trajectory = (self.out_dir / "trajectory.csv").read_bytes()
        metadata = json.loads((self.out_dir / "metadata.json").read_text())
        failures = gates.check_mc(trajectory, metadata, self.reference)
        self.reference = self.reference or trajectory
        return Outcome(failures, gates.mc_records_in(trajectory),
                       _output_bytes(self.out_dir, stdout))


class Verify(Workload):
    """``qpurify verify`` with the seed handed to ``run_conformance_checks``."""

    name = "verify"
    item = "oracle-versus-engine instances"

    def __init__(self, work_dir: Path, seed: int) -> None:
        super().__init__(work_dir, seed)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.reports: list = []
        self.instances = 0

    @property
    def argv(self) -> list[str]:
        return ["verify"]

    def invoke(self) -> tuple[int, str]:
        # Looked up at call time, so a recording wrapper installed by the
        # traced run sits inside the seeding one.
        checks = cli.run_conformance_checks
        samples = inspect.signature(checks).parameters["round_samples"].default
        self.reports = []
        self.instances = 0

        def seeded(**kwargs):
            report = checks(seed=self.seed, **kwargs)
            self.reports.append(report)
            self.instances += kwargs.get("round_samples", samples)
            return report

        cli.run_conformance_checks = seeded
        try:
            return self._main()
        finally:
            cli.run_conformance_checks = checks

    def check(self, exit_code: int, stdout: str) -> Outcome:
        return Outcome(gates.check_verify(exit_code, self.reports), self.instances,
                       _output_bytes(self.out_dir, stdout))


WORKLOADS = {w.name: w for w in (ScanProduct, McFig1, Verify)}
