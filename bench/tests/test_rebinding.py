"""Calls made through ``cli.main`` land in the recorder under every name."""

import json

from qpurify import cli, montecarlo, oracle, recurrence
from qpurify.config import ExperimentConfig

import metrics
import spans


def test_every_rebound_name_records_a_span_through_cli_main(tmp_path):
    scan_config = tmp_path / "scan.json"
    scan_config.write_text(json.dumps({
        "noise": {"family": "product", "f0": 0.97},
        "scan": {"bisect_tol": 0.01, "werner_grid": [], "max_rounds": 300},
    }))
    mc_config = tmp_path / "mc.json"
    mc_config.write_text(json.dumps({"noise": {"family": "uniform", "f00": 0.97},
                                     "pairs": 4000, "rounds": 3}))
    commands = [
        ["scan", "--config", str(scan_config), "--out", str(tmp_path / "scan")],
        ["iterate", "--preset", "fig1", "--out", str(tmp_path / "iterate")],
        ["mc", "--config", str(mc_config), "--out", str(tmp_path / "mc")],
        ["verify"],
    ]
    originals = (cli.find_thresholds, cli.iterate, oracle.one_round,
                 ExperimentConfig.__dict__["from_preset"])

    recorder = spans.Recorder()
    with spans.rebound(recorder, metrics.TARGETS):
        for argv in commands:
            recorder.request += 1
            with recorder.span(metrics.ROOT_SPAN):
                assert cli.main(argv) == 0

    recorded = recorder.spans()
    assert {name for name, *_ in recorded} == {metrics.ROOT_SPAN} | {t[0] for t in metrics.TARGETS}
    parents = {(name, recorded[parent][0] if parent >= 0 else None) for name, parent, *_ in recorded}
    # Module-global lookups inside recurrence and montecarlo.
    assert ("recurrence.one_round", "recurrence.iterate") in parents
    assert ("recurrence.iterate", "recurrence.classify_regime") in parents
    assert ("recurrence.classify_regime", "recurrence.find_thresholds") in parents
    assert ("montecarlo.run_round", "montecarlo.run_protocol") in parents
    # By-name imports in cli and oracle.
    assert ("recurrence.find_thresholds", metrics.ROOT_SPAN) in parents
    assert ("recurrence.iterate", metrics.ROOT_SPAN) in parents
    assert ("montecarlo.init_ensemble", metrics.ROOT_SPAN) in parents
    assert ("oracle.run_conformance_checks", metrics.ROOT_SPAN) in parents
    assert ("recurrence.one_round", "oracle.run_conformance_checks") in parents
    assert ("config.load_config_file", metrics.ROOT_SPAN) in parents
    assert ("config.from_preset", metrics.ROOT_SPAN) in parents

    totals = spans.layer_totals(recorded)
    one_round_under_iterate = sum(
        1 for name, parent, *_ in recorded
        if name == "recurrence.one_round" and recorded[parent][0] == "recurrence.iterate"
    )
    assert recorder.counters["recurrence.iterate.rounds"] == one_round_under_iterate
    assert totals["montecarlo.run_round"]["calls"] == 3
    assert recorder.counters["montecarlo.run_round.records_in"] > 4000

    assert originals == (cli.find_thresholds, cli.iterate, oracle.one_round,
                         ExperimentConfig.__dict__["from_preset"])
    assert cli.find_thresholds is recurrence.find_thresholds
    assert cli.run_protocol is montecarlo.run_protocol
    assert not hasattr(recurrence.one_round, "__wrapped__")
