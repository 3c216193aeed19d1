"""Benchmark of sym3inv: one workload per run, its result as the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is discover16, invariant_stream or gap_probe (see workloads.py and
README.md).  The run repeats whole rounds of the workload until the timed
library calls add up to S seconds (at least one round), checks every round's
outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, peak_rss_mb,
and the mean per round of the two timed parts, main_s and side_s) and
nothing is wrapped.  With --trace 1 each round runs once
untraced and once traced, the metrics are the per-layer ones from the traced
rounds, and the spans of the first traced round are written to
perfbench/out/.  A human-readable summary goes to stderr.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the sym3inv sources
are missing.

The package is imported from src/ of the checkout; numpy's BLAS threads are
pinned to one so that the load comes from this single process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LayerTotals, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sym3inv\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup():
    """Median time of SETUP_SAMPLES fresh-process imports of sym3inv.

    One untimed import comes first and writes the bytecode cache, so that
    compiling is not counted; users pay that once per installation, not per
    run.  PYTHONDONTWRITEBYTECODE is dropped for the same reason.
    """
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120, env=env)
        if k:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def write_spans(path, spans):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (label, parent, t0, t1, meta, size, _) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "parent": parent, "name": label,
                                 "start": t0, "end": t1, "meta": meta,
                                 "size": size}) + "\n")


def run(workload, s, seed, seconds, trace):
    """Run whole rounds until the timed calls reach ``seconds``; return a summary."""
    tracer = Tracer(s) if trace else None
    layers = LayerTotals(tracer.sector_columns()) if trace else None
    first_spans = None
    times = {"main_s": [], "side_s": []}
    attempted = failed = 0
    problems, by_scale = [], {}
    measured, r = 0.0, 0
    while r == 0 or measured < seconds:
        inputs = workload.inputs(s, seed, r)
        results = [workload.run(s, inputs)]
        if trace:
            tracer.install()
            try:
                results.append(workload.run(s, inputs))
            finally:
                tracer.remove()
            spans = tracer.take_spans()
            first_spans = first_spans or spans
            layers.add_round(spans, sum(results[0][1].values()), sum(results[1][1].values()))
        for outputs, part_times in results:
            for part, value in part_times.items():
                times[part].append(value)
            measured += sum(part_times.values())
            outcome = workload.check(s, inputs, outputs)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            for scale, n in outcome.failed_by_scale.items():
                by_scale[scale] = by_scale.get(scale, 0) + n
        r += 1
    if trace:
        write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl", first_spans)
        metrics = layers.metrics()
    else:
        metrics = {part: {"value": statistics.fmean(v), "unit": "s"}
                   for part, v in times.items()}
    return {"rounds": r, "attempted": attempted, "failed": failed,
            "problems": problems, "failed_by_scale": by_scale, "metrics": metrics,
            "unmatched_discoveries": layers.unmatched_discoveries if trace else 0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "sym3inv" / "__init__.py").is_file():
        print(f"perfbench: no sym3inv sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sym3inv

    setup_s = None if args.trace else measure_setup()
    workload = WORKLOADS[args.workload]()
    summary = run(workload, sym3inv, args.seed, args.seconds, args.trace)
    metrics = summary["metrics"]
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}, **metrics}

    correct = not summary["problems"]
    print(f"{args.workload} seed {args.seed}: {summary['rounds']} rounds, "
          f"{summary['attempted']} operations, {summary['failed']} failed", file=sys.stderr)
    if summary["failed_by_scale"]:
        print(f"  failed by scale: {summary['failed_by_scale']}", file=sys.stderr)
    if summary["unmatched_discoveries"]:
        print(f"  {summary['unmatched_discoveries']} discoveries not attributed to sectors",
              file=sys.stderr)
    for problem in summary["problems"][:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
