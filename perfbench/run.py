"""Run one benchmark workload and print its metrics, the last line as JSON.

From the repository root::

    python3 perfbench/run.py --workload figure3-cell --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs half the work twice on the same inputs, untraced and then traced,
requires both passes to give identical outputs, and prints the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; the
workloads, metrics and predicted moves are described in ``perfbench/design.json``.
"""

import time

# setup_s starts here, before ``import repro``.
SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Extra set-up measurements, each in a fresh process, behind the median.
SETUP_PROBES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="sizes the work: about this long on a 2-core x86 host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup_seconds(args) -> float:
    """Set-up time of the workload measured in a fresh interpreter."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def same(a, b) -> bool:
    """Exact equality through nested dicts, sequences and numpy arrays."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def untraced_run(workload, args, setup_s: float):
    p = workload.run(workload.inputs(workload.n_ops))
    metrics = workload.end_to_end(p)
    metrics["cut_quality"] = statistics.fmean(p.quality)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.close()
    setups = [setup_s] + [probe_setup_seconds(args) for _ in range(SETUP_PROBES)]
    metrics["setup_s"] = statistics.median(setups)
    return metrics, p.errors, p.attempted, p.failed


def traced_run(workload, names):
    from repro.obs.trace import capture

    from layers import LayerProbe, layer_metrics

    ops = workload.inputs(max(1, workload.n_ops // 2))
    # One full-size operation first, so neither pass pays first-touch costs
    # (the engine's drive-current buffers) that the other does not.
    workload.run(ops[:1])
    workload.restart()
    untraced = workload.run(ops)
    workload.restart()
    with LayerProbe() as layers, capture() as trace:
        traced = workload.run(ops)
    errors = untraced.errors + traced.errors
    if not same(untraced.outputs, traced.outputs):
        errors.append("traced outputs differ from untraced outputs")
    metrics = layer_metrics(names, layers, trace.spans, traced)
    metrics["obs.trace_overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    return (metrics, errors, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workload = scenarios.WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        workload.setup()
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, errors, attempted, failed = traced_run(workload, list(units))
        else:
            metrics, errors, attempted, failed = untraced_run(workload, args, setup_s)
    finally:
        workload.close()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    for name in units:
        print(f"{args.workload:14s} {name:30s} {metrics[name]:14.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
