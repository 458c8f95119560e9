"""Per-layer measurement for the traced run.

The program already emits spans for the engine (``engine.*``), the service
(``serve.*``), ``figure3.graph`` and ``session.*``, plus the ``cut_eval_*``
accumulators.  :class:`LayerProbe` adds, for the traced pass only and from
outside the program, spans around the public entry points of the layers that
have none yet -- the SDP solve, GW hyperplane rounding, graph generation and
the sequential circuits -- and a call counter with a timer around the
plasticity step, which runs too often for a span per call.  Everything it
patches is restored by :meth:`LayerProbe.uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from typing import Any, Callable, Dict, List

from repro.obs.trace import span, summarize_spans

from scenarios import Pass, nearest_rank


def classify_sdp_stop(result, max_iterations: int) -> str:
    """Why a Burer-Monteiro solve stopped, read from its ``SDPResult`` alone.

    ``max_iterations`` when it ran to the cap; ``line_search`` when it
    reports convergence but its last two objectives are equal (the solver
    says ``converged=True`` when the Armijo search finds no ascent);
    ``tolerance`` otherwise.
    """
    if result.n_iterations >= max_iterations:
        return "max_iterations"
    history = result.objective_history
    if result.converged and len(history) >= 2 and history[-1] == history[-2]:
        return "line_search"
    return "tolerance"


class LayerProbe:
    """Installs and removes the benchmark's own wrappers around layer entry points."""

    def __init__(self) -> None:
        self.sdp_stops = {"max_iterations": 0, "line_search": 0, "tolerance": 0}
        self.sdp_iterations = 0
        self.plasticity_steps = 0
        self.plasticity_s = 0.0
        self.workload_calls_s = 0.0
        self._restore: List[Callable[[], None]] = []

    # -- patching helpers ------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else None
        setattr(owner, name, wrapper)
        self._restore.append(
            (lambda: setattr(owner, name, original)) if had_own
            else (lambda: delattr(owner, name))
        )

    def _span_around(self, owner: Any, name: str, span_name: str) -> None:
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with span(span_name):
                return original(*args, **kwargs)

        self._patch(owner, name, wrapper)

    def install(self) -> None:
        import repro

        modules = sys.modules
        sdp = modules["repro.sdp.burer_monteiro"].solve_maxcut_sdp
        signature = inspect.signature(sdp)

        @functools.wraps(sdp)
        def solve_sdp(*args, **kwargs):
            with span("sdp.solve"):
                result = sdp(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.sdp_stops[classify_sdp_stop(result, bound.arguments["max_iterations"])] += 1
            self.sdp_iterations += result.n_iterations
            return result

        # Both SDP callers import the function by name, so the wrapper goes
        # into their namespaces rather than the defining module's.
        for module in ("repro.circuits.lif_gw", "repro.algorithms.goemans_williamson"):
            self._patch(modules[module], "solve_maxcut_sdp", solve_sdp)
        self._span_around(
            modules["repro.algorithms.goemans_williamson"], "hyperplane_rounding",
            "algorithms.gw_rounding",
        )
        self._span_around(
            modules["repro.experiments.figure3"], "erdos_renyi", "graphs.generate"
        )
        for cls in (repro.LIFGWCircuit, repro.LIFTrevisanCircuit):
            self._span_around(cls, "__init__", "circuits.build")
            self._span_around(cls, "sample_cuts", f"circuits.{cls.name}.sample")

        step = repro.AntiHebbianMinorComponent.step

        @functools.wraps(step)
        def plasticity_step(learner, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return step(learner, *args, **kwargs)
            finally:
                self.plasticity_s += time.perf_counter() - t0
                self.plasticity_steps += 1

        self._patch(repro.AntiHebbianMinorComponent, "step", plasticity_step)

        run_workload = repro.run_workload

        @functools.wraps(run_workload)
        def timed_run_workload(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_workload(*args, **kwargs)
            finally:
                self.workload_calls_s += time.perf_counter() - t0

        self._patch(repro, "run_workload", timed_run_workload)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _total(spans, name: str) -> float:
    """Inclusive seconds of every span called *name*."""
    return float(sum(s.duration_seconds for s in spans if s.name == name))


def layer_metrics(names, probe: LayerProbe, spans, traced: Pass) -> Dict[str, float]:
    """Every per-layer metric in *names*, 0 where the workload bypasses the layer."""
    summary = summarize_spans(spans)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_seconds", 0.0)

    def count(name: str) -> int:
        return int(summary.get(name, {}).get("count", 0))

    attrs = [s.attrs for s in spans]
    batches = [s.attrs.get("batch_jobs", 0) for s in spans if s.name == "serve.batch"]
    sdp_s = self_s("sdp.solve")
    m: Dict[str, float] = dict.fromkeys(names, 0.0)
    m.update({
        "sdp.solve_s": sdp_s,
        "sdp.calls": count("sdp.solve"),
        "sdp.iterations": probe.sdp_iterations,
        "sdp.s_per_iteration": sdp_s / probe.sdp_iterations if probe.sdp_iterations else 0.0,
        "sdp.stop.max_iterations": probe.sdp_stops["max_iterations"],
        "sdp.stop.line_search": probe.sdp_stops["line_search"],
        "sdp.stop.tolerance": probe.sdp_stops["tolerance"],
        "algorithms.gw_rounding_s": self_s("algorithms.gw_rounding"),
        "graphs.generate_s": self_s("graphs.generate"),
        "circuits.build_s": self_s("circuits.build"),
        "circuits.lif_gw.sample_s": self_s("circuits.lif_gw.sample"),
        "circuits.lif_tr.sample_s": self_s("circuits.lif_tr.sample"),
        "neurons.plasticity_steps": probe.plasticity_steps,
        "neurons.plasticity_s": probe.plasticity_s,
        "engine.solve_s": self_s("engine.solve"),
        "engine.circuit_build_s": self_s("engine.circuit_build"),
        "engine.sample_s": self_s("engine.sample"),
        "engine.drive_s": self_s("engine.drive"),
        "engine.integrate_s": self_s("engine.integrate"),
        "engine.readouts": traced.detail.get("readouts", 0),
        "engine.blocks": count("engine.block") + count("engine.fuse.block"),
        "cuts.eval_s": float(sum(a.get("cut_eval_seconds", 0.0) for a in attrs)),
        "cuts.evaluations": int(sum(a.get("cut_evaluations", 0) for a in attrs)),
        "serve.batch_jobs_mean": statistics.fmean(batches) if batches else 0.0,
        "serve.batch_s": _total(spans, "serve.batch"),
        "serve.solve_s": _total(spans, "serve.solve"),
        "workloads.overhead_s": (
            probe.workload_calls_s - _total(spans, "figure3.graph")
            if probe.workload_calls_s else 0.0
        ),
    })
    detail = traced.detail
    if "counts" in detail:
        counts, stats = detail["counts"], detail["stats"]
        latencies = traced.op_seconds
        queue_wait = detail["queue_wait_s"] or [0.0]
        m.update({
            "serve.admit_ms.p50": 1000 * statistics.median(detail["admit_s"]),
            "serve.queue_wait_ms.p50": 1000 * nearest_rank(queue_wait, 0.50),
            "serve.queue_wait_ms.p90": 1000 * nearest_rank(queue_wait, 0.90),
            "serve.latency_p50_ms": 1000 * nearest_rank(latencies, 0.50),
            "serve.latency_p90_ms": 1000 * nearest_rank(latencies, 0.90),
            "serve.engine_invocations": stats["engine"]["invocations"],
            "serve.fused_invocations": stats["engine"]["fused_invocations"],
            "serve.circuit_cache_hit_rate": stats["caches"]["circuits"]["hit_rate"],
            "serve.result_cache_hit_rate": stats["caches"]["results"]["hit_rate"],
            "serve.refused": counts["refused"],
            "serve.timed_out": counts["timed_out"],
            "loadgen.sent": len(latencies),
            "loadgen.succeeded": counts["succeeded"],
            "loadgen.failed": counts["failed"],
            "loadgen.refused": counts["refused"],
            "loadgen.timed_out": counts["timed_out"],
            "loadgen.late_ms.p99": 1000 * nearest_rank(detail["late_s"], 0.99),
            "loadgen.drain_s": detail["drain_s"],
        })
    return m
