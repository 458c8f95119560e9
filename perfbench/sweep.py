"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/sweep.py --out runs.jsonl --seeds 10 --workload serve-mixed

Each run's result line is appended to ``--out`` as one
``{"workload", "seed", "trace", "result"}`` record (the format ``compare.py``
reads).  The table gives, per workload and metric, the median and the
quartile distance as a share of the median next to the metric's bound.
"""

import argparse
import json
import os
import subprocess
import sys

from compare import load, quartiles, spread, values

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "result": json.loads(done.stdout.strip().splitlines()[-1])}
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    runs = load(args.out)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    for workload in workloads:
        records = runs.get((workload, args.trace), [])
        for metric in metrics:
            vals = values(records, metric["name"])
            q1, med, q3 = quartiles(vals)
            print(f"{workload:14s} {metric['name']:30s} n={len(vals):2d} median={med:<12.5g} "
                  f"spread={spread(vals):6.1%} bound={metric.get('bound', '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
