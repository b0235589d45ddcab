"""Repeat benchmark runs over seeds and summarize their spread.

    python3 bench/collect.py --runs 10 [--workload NAME ...] [--trace 1]
                             [--label baseline]

Each run is ``bench/run.py`` in its own process, with the command and run
length of ``BENCHMARK.json``.  For every metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and flags an end-to-end spread above a third of the
metric's bound.  With ``--label`` the runs and the summary are written to
``bench/results/BENCH_<label>.json``, otherwise to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            mode = "trace" if args.trace else "e2e"
            report_path = os.path.join(HERE, "out", f"BENCH_{name}-{mode}-seed{seed}.json")
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            doc["environment"] = report["environment"]
            result["seed"] = seed
            result["accuracy"] = report["accuracy"]
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            summary[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
        doc["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "summary": summary,
            "runs": runs,
        }
        for metric, s in summary.items():
            if metric not in bounds:
                continue
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric:14s} median {s['median']:.5g} {s['unit']}  "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}",
                  flush=True)

    out_dir = os.path.join(HERE, "results" if args.label else "out")
    os.makedirs(out_dir, exist_ok=True)
    label = args.label or f"collect-trace{args.trace}"
    with open(os.path.join(out_dir, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
