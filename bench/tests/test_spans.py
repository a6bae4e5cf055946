"""Span arithmetic and import-time parsing on synthetic inputs."""

import json

import spans
import startup


def _span(name, parent, start, end, request=1):
    return (name, parent, start, end, request)


def test_self_time_subtracts_children_clipped_and_merged():
    tree = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 30),
        _span("b", 0, 25, 50),  # overlaps a: the union 10..50 is covered once
        _span("a.leaf", 1, 12, 18),
        _span("c", 0, 90, 120),  # runs past its parent: only 90..100 counts
        _span("other_root", -1, 200, 260),
    ]
    assert spans.self_times(tree) == [100 - 40 - 10, 20 - 6, 25, 6, 30, 60]


def test_layer_totals_sum_calls_total_and_self_per_name():
    tree = [
        _span("iterate", -1, 0, 100),
        _span("one_round", 0, 0, 40),
        _span("one_round", 0, 50, 80),
        _span("iterate", -1, 100, 110),
    ]
    totals = spans.layer_totals(tree)
    assert totals["iterate"] == {"calls": 2, "total_ns": 110, "self_ns": 40}
    assert totals["one_round"] == {"calls": 2, "total_ns": 70, "self_ns": 70}


def test_recorder_nests_wrapped_calls_and_runs_observers(tmp_path):
    recorder = spans.Recorder()

    def observe(counters, args, kwargs):
        counters["seen"] += args[0]
        return lambda result: counters.__setitem__("last", result)

    inner = recorder.wrap("inner", lambda x: x + 1, observe)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    with recorder.span("root"):
        assert outer(3) == 8
    names = [(name, parent) for name, parent, *_ in recorder.spans()]
    assert names == [("root", -1), ("outer", 0), ("inner", 1)]
    assert recorder.counters == {"seen": 3, "last": 4}

    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    header, *rows = path.read_text().splitlines()
    assert json.loads(header) == {"fields": spans.SPAN_FIELDS}
    assert [json.loads(row)[:2] for row in rows] == [list(pair) for pair in names]


IMPORTTIME_LOG = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | site
import time:        50 |         50 |       numpy._core
import time:        30 |         80 |     numpy
import time:        20 |         20 |         numpy.linalg
import time:        40 |         60 |       scipy.special
import time:        10 |         70 |     scipy.stats
import time:         5 |        155 |   qpurify.montecarlo
import time:         7 |         7 |   qpurify.bell
import time:         3 |        165 | qpurify.cli
"""


def test_import_breakdown_attributes_self_time_to_nearest_family():
    breakdown = startup.import_breakdown(IMPORTTIME_LOG)
    # numpy.linalg imported from inside scipy counts as numpy; site is
    # outside the qpurify tree and does not count at all.
    assert breakdown == {
        "setup.numpy_import_s": 100e-6,
        "setup.scipy_import_s": 50e-6,
        "setup.qpurify_import_s": 15e-6,
    }
