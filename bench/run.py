"""qpurify benchmark: one command, one closed-loop client, threads pinned to 1.

Run from the repository root:

    python3 bench/run.py --workload scan_product --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``scan_product`` -- ``qpurify scan`` on the product family, f0 = 0.97;
* ``mc_fig1``      -- ``qpurify mc --preset fig1 --seed <seed>``;
* ``verify``       -- ``qpurify verify`` with the seed passed to the oracle.

A run first times the set-up every command pays in fresh interpreters,
then invokes the command in this process once to warm up and again in a
closed loop, checking every output.  ``--seconds`` bounds the whole run,
set-up probes and warm-up included: the loop stops when its next
invocation would end past that deadline, but with ``--trace 0`` never
before it has :data:`MIN_INVOCATIONS` timed invocations.  With ``--trace 0`` it prints
the end-to-end metrics.  With ``--trace 1`` it spends half the loop time
untraced and half with every public layer function wrapped in a
recording span, writes the spans to
``.bench-work/<workload>/spans-seed<seed>.jsonl`` and prints per-layer
metrics.  The last line of standard output is the JSON result.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402
import startup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

#: Fresh-process set-up probes per run, after one unmeasured warm-up probe.
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
#: Timed invocations of the end-to-end loop even past the deadline; each
#: loop of the traced run needs one.
MIN_INVOCATIONS = 3


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def invoke_once(workload, tally: Tally, recorder=None):
    """One command invocation and its gate; returns (wall s, outcome or None)."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if recorder is None:
            code, stdout = workload.invoke()
        else:
            recorder.request += 1
            with recorder.span(metrics.ROOT_SPAN):
                code, stdout = workload.invoke()
        wall = time.perf_counter() - start
        outcome = workload.check(code, stdout)
    except Exception:
        traceback.print_exc()
        tally.failed += 1
        return time.perf_counter() - start, None
    if outcome.failures:
        print(f"{workload.name}: " + "; ".join(outcome.failures), file=sys.stderr)
        tally.failed += 1
    return wall, outcome


class Loop:
    """What one closed loop measured, invocation by invocation."""

    def __init__(self, results) -> None:
        self.walls = [wall for wall, _ in results]
        self.outcomes = [outcome for _, outcome in results]


def closed_loop(workload, deadline: float, tally: Tally, recorder=None, minimum: int = 1) -> Loop:
    """Invoke back to back until the next invocation would end past ``deadline``."""
    results = []
    while True:
        results.append(invoke_once(workload, tally, recorder))
        if len(results) >= minimum and time.perf_counter() + results[-1][0] > deadline:
            return Loop(results)


def end_to_end(workload, deadline: float, tally: Tally) -> dict:
    setup = [startup.run_probe(workload.argv, ROOT)[0] for _ in range(1 + SETUP_REPEATS)][1:]
    invoke_once(workload, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop = closed_loop(workload, deadline, tally, minimum=MIN_INVOCATIONS)
    print(f"# {workload.name}: {len(loop.walls)} timed invocations after one warm-up; "
          f"wall_tail_s is their p90 by linear interpolation, with fewer than 10 samples "
          f"beyond it; items_per_s counts {workload.item}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(loop.walls),
        "wall_tail_s": statistics.quantiles(loop.walls, n=10, method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "items_per_s": statistics.median(
            outcome.items / wall for outcome, wall in zip(loop.outcomes, loop.walls)
            if outcome is not None
        ),
    }


def per_layer(workload, deadline: float, tally: Tally, spans_path: Path) -> dict:
    startup.run_probe(workload.argv, ROOT)
    breakdowns, config_loads = [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, phases, log = startup.run_probe(workload.argv, ROOT, importtime=True)
        breakdowns.append(startup.import_breakdown(log))
        config_loads.append(phases["config_load_s"])
    setup = {key: statistics.median(b[key] for b in breakdowns) for key in breakdowns[0]}
    setup["config.load_s"] = statistics.median(config_loads)

    invoke_once(workload, tally)
    untraced = closed_loop(workload, (time.perf_counter() + deadline) / 2, tally)
    recorder = spans.Recorder()
    with spans.rebound(recorder, metrics.TARGETS):
        traced = closed_loop(workload, deadline, tally, recorder)
    recorded = recorder.spans()
    recorder.write_jsonl(spans_path)
    output_bytes = [outcome.output_bytes for outcome in traced.outcomes if outcome is not None]
    print(f"# {workload.name}: {len(traced.walls)} traced and {len(untraced.walls)} untraced "
          f"invocations; {len(recorded)} spans in {spans_path.relative_to(ROOT)}")
    return metrics.per_layer_values(
        spans.layer_totals(recorded),
        recorder.counters,
        len(traced.walls),
        statistics.mean(output_bytes) if output_bytes else 0.0,
        traced.walls,
        untraced.walls,
        setup,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("scan_product", "mc_fig1", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "qpurify" / "cli.py").is_file():
        print(f"error: no qpurify sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))

    import numpy
    import qpurify
    import scipy

    from workloads import WORKLOADS

    if Path(qpurify.__file__).resolve().parent != SRC / "qpurify":
        print(f"error: imported qpurify from {qpurify.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} cpus {len(os.sched_getaffinity(0))}")

    work_dir = WORK / args.workload
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work_dir, args.seed)
    tally = Tally()
    try:
        if args.trace:
            spans_path = work_dir / f"spans-seed{args.seed}.jsonl"
            values = per_layer(workload, deadline, tally, spans_path)
            units = dict(metrics.PER_LAYER)
        else:
            values = end_to_end(workload, deadline, tally)
            units = dict(metrics.END_TO_END)
    except startup.ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
