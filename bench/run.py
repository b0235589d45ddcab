"""scottlab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scott-sweep --seed 1 --seconds 15 --trace 0

The program is imported from the checkout's ``src/``; nothing is installed.
All program work happens in worker processes started by this one.  A worker
imports the program and builds the workload's inputs (set-up), makes the
first (cold) pass and then warm passes, checks every pass, and exits.  A
pass whose check fails, or that raises, counts as failed.

``--trace 0``: workers run one after another, each with one cold and one
warm pass and no wrappers installed, until ``--seconds`` have gone by and
at least ``MIN_WORKERS`` have run.  Reported are ``wall_s`` (median warm
pass), ``cold_s`` (median first pass of a fresh process), ``setup_s``
(median set-up, with set-up-only processes added up to ``SETUP_SAMPLES``)
and ``peak_rss_mib`` (median peak resident memory of a worker).

``--trace 1``: one worker installs the tracer of ``tracer.py`` and makes
passes until ``--seconds`` have gone by (at least one warm pass).  Each
per-layer metric is the median over its warm passes; the spans go to
``bench/out/trace-<workload>-trace-seed<n>.json``.

The inputs are fixed (see README.md); ``--seed`` is recorded and changes
nothing.  The last line of standard output is the JSON result; the full
report goes to ``bench/out/BENCH_<workload>-<e2e|trace>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_WORKERS = 2
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SCOTTLAB_THREADS",
)


# ---------------------------------------------------------------------------
# worker: runs in a fresh process, imports the program


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _passes(workload, seconds: float, tracer=None) -> list[dict]:
    """Cold pass, then warm passes until ``seconds`` are spent (at least one)."""
    records = []
    start = time.perf_counter()
    while len(records) < 2 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_id = len(records)
        t0 = time.perf_counter()
        try:
            output = workload.run_pass()
        except Exception:  # a crashed pass is a failed operation
            output = None
            failures = [traceback.format_exc()]
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.pass_id = None
        if output is not None:
            failures = workload.check(output)
        records.append({
            "seconds": elapsed,
            "failures": failures,
            "accuracy": None if output is None else workload.accuracy(output),
        })
    return records


def worker(args) -> dict:
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    out_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        workload.setup(out_dir)
        setup_s = time.perf_counter() - t0
        import scottlab

        if not os.path.abspath(scottlab.__file__).startswith(SRC + os.sep):
            sys.exit(f"bench: imported scottlab from {scottlab.__file__}, not {SRC}")
        if args.setup_only:
            return {"setup_s": setup_s}

        result = {"setup_s": setup_s}
        if args.trace:
            from tracer import METRICS, Tracer, span_cost

            tracer = Tracer()
            with tracer.installed():
                records = _passes(workload, args.seconds, tracer)
            per_pass = [tracer.pass_stats(i) for i in range(1, len(records))]
            for stats, record in zip(per_pass, records[1:]):
                stats["trace.pass_s"] = record["seconds"]
            cost = span_cost()
            result["span_cost_s"] = cost
            result["layers"] = {
                name: statistics.median(
                    cost * s["trace.spans"] if name == "trace.overhead_s"
                    else s.get(name, 0)
                    for s in per_pass
                )
                for name in METRICS
            }
            tracer.dump(args.trace_file)
        else:
            records = _passes(workload, 0.0)
        result["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        result["passes"] = records
        result["run_check_failures"] = workload.run_check()
        result["environment"] = _environment()
        return result
    finally:
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        os.rmdir(out_dir)


# ---------------------------------------------------------------------------
# orchestrator: starts workers, never imports the program itself


def _spawn(args, *extra) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"bench: worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def orchestrate(args) -> int:
    from tracer import METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "scottlab", "__init__.py")):
        sys.exit(f"bench: no scottlab sources under {SRC}; run from a full checkout")
    os.makedirs(OUT, exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    label = f"{args.workload}-{mode}-seed{args.seed}"

    workers = []
    if args.trace:
        trace_file = os.path.join(OUT, f"trace-{label}.json")
        workers.append(_spawn(args, "--trace-file", trace_file))
        metrics = {
            name: _metric(workers[0]["layers"][name], unit)
            for name, unit in METRICS.items()
        }
    else:
        start = time.perf_counter()
        while len(workers) < MIN_WORKERS or time.perf_counter() - start < args.seconds:
            workers.append(_spawn(args))
        setups = [w["setup_s"] for w in workers]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args, "--setup-only")["setup_s"])
        metrics = {
            "wall_s": _metric(statistics.median(
                r["seconds"] for w in workers for r in w["passes"][1:]), "s"),
            "cold_s": _metric(statistics.median(
                w["passes"][0]["seconds"] for w in workers), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mib": _metric(statistics.median(
                w["peak_rss_mib"] for w in workers), "MiB"),
        }

    records = [r for w in workers for r in w["passes"]]
    run_failures = [f for w in workers for f in w["run_check_failures"]]
    failed = sum(1 for r in records if r["failures"])
    result = {
        "correct": failed == 0 and not run_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result["attempted"],
        "failed": failed,
        "correct": result["correct"],
        "metrics": metrics,
        "accuracy": records[-1]["accuracy"],
        "environment": workers[0]["environment"],
        "workers": workers,
    }
    if args.trace:
        report["trace_file"] = os.path.relpath(trace_file, ROOT)
    else:
        report["setup_samples_s"] = setups
    with open(os.path.join(OUT, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for failure in [f for r in records for f in r["failures"]] + run_failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # worker-process options, set by the orchestrator
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
