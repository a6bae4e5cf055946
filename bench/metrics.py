"""The metrics the benchmark prints, and what the traced run records.

Spans wrap the public functions of ``recurrence``, ``montecarlo``,
``oracle`` and ``config``; the benchmark adds a ``cli.main`` root span
around every invocation.  ``bell``, ``flags`` and ``noise`` are constant
tables and constructors with no per-run work worth a span.
"""

from __future__ import annotations

import statistics


def _observe_iterate(counters, args, kwargs):
    def done(trajectory):
        counters["recurrence.iterate.rounds"] += trajectory.rounds
        counters["recurrence.iterate.unconverged"] += not trajectory.converged

    return done


def _observe_run_round(counters, args, kwargs):
    records = (args[0] if args else kwargs["ensemble"]).size

    def done(stats):
        counters["montecarlo.run_round.records_in"] += records
        counters["montecarlo.run_round.pairs_formed"] += records // 2
        counters["montecarlo.run_round.survivors"] += stats.survivors

    return done


#: (span name, module, qualified name, observer) for :func:`spans.rebound`.
TARGETS = [
    ("recurrence.one_round", "qpurify.recurrence", "one_round", None),
    ("recurrence.iterate", "qpurify.recurrence", "iterate", _observe_iterate),
    ("recurrence.classify_regime", "qpurify.recurrence", "classify_regime", None),
    ("recurrence.find_thresholds", "qpurify.recurrence", "find_thresholds", None),
    ("montecarlo.init_ensemble", "qpurify.montecarlo", "init_ensemble", None),
    ("montecarlo.run_round", "qpurify.montecarlo", "run_round", _observe_run_round),
    ("montecarlo.run_protocol", "qpurify.montecarlo", "run_protocol", None),
    ("oracle.oracle_one_round", "qpurify.oracle", "oracle_one_round", None),
    ("oracle.run_conformance_checks", "qpurify.oracle", "run_conformance_checks", None),
    ("config.load_config_file", "qpurify.config", "load_config_file", None),
    ("config.from_preset", "qpurify.config", "ExperimentConfig.from_preset", None),
]

ROOT_SPAN = "cli.main"

#: End-to-end metrics, printed with ``--trace 0``: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("items_per_s", "1/s"),
]

#: Per-layer metrics, printed with ``--trace 1``: (name, unit).
PER_LAYER = [
    ("recurrence.one_round.calls", "count"),
    ("recurrence.one_round.us_per_call", "us"),
    ("recurrence.iterate.self_s", "s"),
    ("recurrence.iterate.calls", "count"),
    ("recurrence.iterate.rounds", "count"),
    ("recurrence.iterate.unconverged", "count"),
    ("recurrence.classify_regime.calls", "count"),
    ("recurrence.classify_regime.ms_per_call", "ms"),
    ("recurrence.find_thresholds.s", "s"),
    ("montecarlo.init_ensemble.s", "s"),
    ("montecarlo.run_round.calls", "count"),
    ("montecarlo.run_round.ms_per_call", "ms"),
    ("montecarlo.run_round.records_in", "count"),
    ("montecarlo.run_round.keep_fraction", "ratio"),
    ("montecarlo.run_protocol.self_s", "s"),
    ("oracle.oracle_one_round.calls", "count"),
    ("oracle.oracle_one_round.ms_per_call", "ms"),
    ("oracle.run_conformance_checks.self_s", "s"),
    ("config.load_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("setup.numpy_import_s", "s"),
    ("setup.scipy_import_s", "s"),
    ("setup.qpurify_import_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_values(
    totals: dict[str, dict[str, int]],
    counters: dict[str, float],
    invocations: int,
    output_bytes: float,
    traced_wall_s: list[float],
    untraced_wall_s: list[float],
    setup: dict[str, float],
) -> dict[str, float]:
    """Per-invocation layer figures from one traced run.

    ``totals`` comes from :func:`spans.layer_totals` over ``invocations``
    traced command invocations; ``setup`` holds the fresh-process
    figures (``config.load_s`` and the ``setup.*`` import times).
    """
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def calls(name):
        return totals.get(name, empty)["calls"] / invocations

    def per_call(name, scale):
        entry = totals.get(name, empty)
        return entry["total_ns"] / entry["calls"] / scale if entry["calls"] else 0.0

    def seconds(name, key="total_ns"):
        return totals.get(name, empty)[key] / invocations / 1e9

    pairs = counters.get("montecarlo.run_round.pairs_formed", 0)
    return {
        "recurrence.one_round.calls": calls("recurrence.one_round"),
        "recurrence.one_round.us_per_call": per_call("recurrence.one_round", 1e3),
        "recurrence.iterate.self_s": seconds("recurrence.iterate", "self_ns"),
        "recurrence.iterate.calls": calls("recurrence.iterate"),
        "recurrence.iterate.rounds": counters.get("recurrence.iterate.rounds", 0) / invocations,
        "recurrence.iterate.unconverged": counters.get("recurrence.iterate.unconverged", 0) / invocations,
        "recurrence.classify_regime.calls": calls("recurrence.classify_regime"),
        "recurrence.classify_regime.ms_per_call": per_call("recurrence.classify_regime", 1e6),
        "recurrence.find_thresholds.s": seconds("recurrence.find_thresholds"),
        "montecarlo.init_ensemble.s": seconds("montecarlo.init_ensemble"),
        "montecarlo.run_round.calls": calls("montecarlo.run_round"),
        "montecarlo.run_round.ms_per_call": per_call("montecarlo.run_round", 1e6),
        "montecarlo.run_round.records_in": counters.get("montecarlo.run_round.records_in", 0) / invocations,
        "montecarlo.run_round.keep_fraction": (
            counters.get("montecarlo.run_round.survivors", 0) / pairs if pairs else 0.0
        ),
        "montecarlo.run_protocol.self_s": seconds("montecarlo.run_protocol", "self_ns"),
        "oracle.oracle_one_round.calls": calls("oracle.oracle_one_round"),
        "oracle.oracle_one_round.ms_per_call": per_call("oracle.oracle_one_round", 1e6),
        "oracle.run_conformance_checks.self_s": seconds("oracle.run_conformance_checks", "self_ns"),
        "config.load_s": setup["config.load_s"],
        "cli.self_s": seconds(ROOT_SPAN, "self_ns"),
        "cli.output_bytes": output_bytes,
        "setup.numpy_import_s": setup["setup.numpy_import_s"],
        "setup.scipy_import_s": setup["setup.scipy_import_s"],
        "setup.qpurify_import_s": setup["setup.qpurify_import_s"],
        "trace.overhead_s": statistics.median(traced_wall_s) - statistics.median(untraced_wall_s),
    }
