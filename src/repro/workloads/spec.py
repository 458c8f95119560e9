"""Declarative workload specifications.

A :class:`WorkloadSpec` is the single way to describe a run to the library:
*what graphs* (:class:`GraphSource`), *which solvers* (keys into the
capability-aware registry, :mod:`repro.algorithms.registry`), *how much work*
(:class:`Budget`), and *how to execute* (:class:`ExecutionPolicy`).  A
:class:`repro.workloads.Session` turns a spec into a
:class:`repro.workloads.RunReport`; registered workloads
(:mod:`repro.workloads.registry`) are just named factories of specs plus an
optional custom executor.

All four classes share the :class:`repro.utils.validation.ValidatedConfig`
mixin, so an invalid spec cannot be constructed and every spec renders itself
as the JSON-safe ``to_dict()`` used in persisted metadata headers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.registry import SolverSpec, get_spec
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.repository import list_empirical_graphs, load_empirical_graph
from repro.parallel.pool import ParallelConfig
from repro.utils.rng import grid_cell_key, paired_seed, spawn_generators
from repro.utils.validation import (
    ValidatedConfig,
    ValidationError,
    check_count,
)

__all__ = [
    "GraphSource",
    "Budget",
    "ExecutionPolicy",
    "WorkloadSpec",
    "resolve_solver_specs",
]

#: Recognised graph-source kinds.
GRAPH_SOURCE_KINDS = ("suite", "repository", "generator", "explicit")

#: Recognised execution-policy modes.
EXECUTION_MODES = ("auto", "engine", "parallel", "sequential")


@dataclass(frozen=True)
class GraphSource(ValidatedConfig):
    """Declarative source of the graphs a workload runs on.

    Four kinds cover every workload in the library:

    ``"suite"``
        A named arena suite (:mod:`repro.arena.suite`) or a
        :class:`~repro.arena.suite.GraphSuite` instance.
    ``"repository"``
        Named graphs from the Table I empirical registry (empty ``names``
        means *all* of them).
    ``"generator"``
        An Erdős–Rényi grid: every (size, probability) cell materialises
        ``per_cell`` graphs, seeded with the paired convention
        ``SeedSequence(seed, spawn_key=(n, key(p), j))``.
    ``"explicit"``
        An in-memory list of :class:`~repro.graphs.graph.Graph` objects
        (not persistable beyond their names).

    Use the classmethod constructors rather than spelling out fields.
    """

    kind: str
    suite: Union[str, object, None] = None
    names: Tuple[str, ...] = ()
    sizes: Tuple[int, ...] = ()
    probabilities: Tuple[float, ...] = ()
    per_cell: int = 1
    graphs: Tuple[Graph, ...] = ()

    def validate(self) -> None:
        if self.kind not in GRAPH_SOURCE_KINDS:
            raise ValidationError(
                f"graph source kind must be one of {GRAPH_SOURCE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "suite" and self.suite is None:
            raise ValidationError("suite graph sources need a suite key or object")
        if self.kind == "generator":
            if not self.sizes or not self.probabilities:
                raise ValidationError(
                    "generator graph sources need non-empty sizes and probabilities"
                )
            for n in self.sizes:
                check_count(n, "graph sizes", minimum=2)
            for p in self.probabilities:
                if not (0.0 < float(p) <= 1.0):
                    raise ValidationError(
                        f"probabilities must be in (0, 1], got {p}"
                    )
            check_count(self.per_cell, "per_cell")
        if self.kind == "explicit" and not self.graphs:
            raise ValidationError("explicit graph sources need at least one graph")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_suite(cls, suite: Union[str, object]) -> "GraphSource":
        """A named arena suite (or a ``GraphSuite`` instance)."""
        return cls(kind="suite", suite=suite)

    @classmethod
    def repository(cls, names: Sequence[str] = ()) -> "GraphSource":
        """Empirical Table I graphs by name (empty = all)."""
        return cls(kind="repository", names=tuple(names))

    @classmethod
    def erdos_renyi_grid(
        cls,
        sizes: Sequence[int],
        probabilities: Sequence[float],
        per_cell: int = 1,
    ) -> "GraphSource":
        """An Erdős–Rényi (size x probability) grid, *per_cell* graphs each."""
        return cls(
            kind="generator",
            sizes=tuple(int(n) for n in sizes),
            probabilities=tuple(float(p) for p in probabilities),
            per_cell=int(per_cell),
        )

    @classmethod
    def explicit(cls, graphs: Sequence[Graph]) -> "GraphSource":
        """An in-memory list of graphs."""
        return cls(kind="explicit", graphs=tuple(graphs))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphSource":
        """Rebuild a source from its :meth:`to_dict` form (manifest round-trip).

        Explicit in-memory graph lists are not persistable — their
        ``to_dict`` records names only — so they cannot be rebuilt.
        Problem sources (:class:`repro.problems.source.ProblemSource`
        renderings carry a ``"problems": true`` marker) dispatch to the
        problem-compiler subclass.
        """
        if data.get("problems"):
            from repro.problems.source import ProblemSource

            return ProblemSource.from_dict(data)
        kind = data.get("kind")
        if kind == "suite":
            return cls.from_suite(str(data["suite"]))
        if kind == "repository":
            return cls.repository(tuple(data.get("names", ())))
        if kind == "generator":
            return cls.erdos_renyi_grid(
                data["sizes"], data["probabilities"],
                per_cell=int(data.get("per_cell", 1)),
            )
        raise ValidationError(
            f"graph source kind {kind!r} cannot be rebuilt from a dict "
            f"(explicit graph lists are not persistable)"
        )

    @classmethod
    def coerce(cls, value: Any) -> "GraphSource":
        """Normalise a suite key / ``GraphSuite`` / graph list into a source."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_suite(value)
        if isinstance(value, (list, tuple)) and all(
            isinstance(g, Graph) for g in value
        ):
            return cls.explicit(value)
        # Duck-typed GraphSuite (has key + build) without importing the class.
        if hasattr(value, "build") and hasattr(value, "key"):
            return cls.from_suite(value)
        raise ValidationError(
            "graphs must be a suite key, a GraphSuite, a list of Graph objects, "
            f"or a GraphSource; got {type(value).__name__}"
        )

    # -- behaviour ----------------------------------------------------------

    @property
    def label(self) -> str:
        """Short human label (the suite key where there is one)."""
        if self.kind == "suite":
            return self.suite if isinstance(self.suite, str) else getattr(
                self.suite, "key", "suite"
            )
        if self.kind == "repository":
            return "repository"
        if self.kind == "generator":
            return "er-grid"
        return "custom"

    def build(self, seed: Optional[int]) -> List[Graph]:
        """Materialise the graphs (deterministic in *seed*)."""
        from repro.arena.suite import build_suite

        root = 0 if seed is None else int(seed)
        if self.kind == "suite":
            if isinstance(self.suite, str):
                return build_suite(self.suite, seed=root)
            return list(self.suite.build(root))
        if self.kind == "repository":
            names = list(self.names) or list_empirical_graphs()
            return [load_empirical_graph(name, seed=seed) for name in names]
        if self.kind == "generator":
            graphs: List[Graph] = []
            for n in self.sizes:
                for p in self.probabilities:
                    cell = grid_cell_key(n, p)
                    for j in range(self.per_cell):
                        # First spawned child of the cell-graph sequence —
                        # the same derivation the Figure 3 runner uses for
                        # its graph stream, so "same (seed, n, p, j) → same
                        # graph" holds across all workload paths.
                        rng = spawn_generators(paired_seed(seed, *cell, j), 1)[0]
                        graphs.append(
                            erdos_renyi(n, p, seed=rng, name=f"er-{n}-{p:g}-{j}")
                        )
            return graphs
        return list(self.graphs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description (explicit graphs reduced to their names)."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "suite":
            out["suite"] = self.label
        elif self.kind == "repository":
            out["names"] = list(self.names)
        elif self.kind == "generator":
            out.update(
                sizes=list(self.sizes),
                probabilities=list(self.probabilities),
                per_cell=self.per_cell,
            )
        else:
            out["names"] = [graph.name for graph in self.graphs]
        return out


@dataclass(frozen=True)
class Budget(ValidatedConfig):
    """Shared per-(solver, graph) work budget — the one trial-count currency.

    Attributes
    ----------
    n_trials:
        Independent trials for every stochastic solver (deterministic
        solvers always run once).
    n_samples:
        Per-trial ``n_samples`` handed to each solver; interpreted per the
        solver's budget semantics (read-outs, sweeps, restarts, ...).
    max_seconds:
        Optional wall-clock cap per (solver, graph) cell.  The sequential
        path stops launching further trials once exceeded (at least one
        trial always completes, and the trial count is recorded).  The
        engine path forwards the cap as the request's ``deadline_seconds``:
        the batch stops launching further read-out rounds once exceeded (at
        least one round always completes) and returns the partial-but-valid
        bests, with ``budget_truncated`` set in the entry metadata.
        Setting a cap forces capped *sequential* cells onto a serial trial
        loop — ``parallel_map`` cannot cancel in-flight work — so it
        overrides any worker configuration for those cells.
    """

    n_trials: int = 4
    n_samples: int = 256
    max_seconds: Optional[float] = None

    def validate(self) -> None:
        check_count(self.n_trials, "n_trials")
        check_count(self.n_samples, "n_samples")
        if self.max_seconds is not None:
            if (not isinstance(self.max_seconds, (int, float))
                    or isinstance(self.max_seconds, bool)
                    or self.max_seconds <= 0):
                raise ValidationError(
                    f"max_seconds must be a positive number or None, "
                    f"got {self.max_seconds!r}"
                )


@dataclass(frozen=True)
class ExecutionPolicy(ValidatedConfig):
    """How a workload's trials are executed.

    Attributes
    ----------
    mode:
        ``"auto"`` routes batchable circuits through the trial-parallel
        engine and everything else through ``parallel_map``; ``"engine"``
        is ``"auto"`` with the engine requirement made explicit;
        ``"parallel"`` runs every solver trial by trial through
        ``parallel_map`` (a circuit trial is then a batch-of-1 engine call
        via ``sample_cuts``); ``"sequential"`` additionally forces one
        in-process worker.
    backend:
        Engine backend spec for batchable solvers, resolved by
        :func:`repro.engine.xp.resolve_backend`: ``"auto"``, a weight
        backend (``"dense"``/``"sparse"``), an array backend
        (``"numpy"``/``"torch"``/``"cupy"``), or ``"<array>:<weight>"``
        (e.g. ``"torch:dense"``).  An explicit weight name always
        overrides the engine's density heuristic, so ``--backend sparse``
        is honoured even on small graphs.  Validated at policy
        construction (spec syntax and registry names; array availability
        is probed at solve time).
    instance_batch:
        When True (default), the executor fuses same-shape cell units
        into one :class:`repro.engine.instances.InstanceBlock` kernel
        batch (graph-axis batching).  Results are bit-identical either
        way; turn off to force one engine invocation per graph
        (reference timings).
    n_workers:
        Process workers for per-trial execution (``None`` = cpu count).
    """

    mode: str = "auto"
    backend: str = "auto"
    instance_batch: bool = True
    n_workers: Optional[int] = 1

    def validate(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ValidationError(
                f"execution mode must be one of {EXECUTION_MODES}, got {self.mode!r}"
            )
        # Parse-only check: unknown names fail fast here; whether an
        # accelerator is importable is probed when the engine resolves it.
        from repro.engine.xp import parse_backend_spec

        parse_backend_spec(self.backend)
        if self.n_workers is not None and self.n_workers < 0:
            raise ValidationError(
                f"n_workers must be >= 0 or None, got {self.n_workers}"
            )

    @property
    def use_engine(self) -> bool:
        """Whether batchable solvers ride the batched engine under this policy."""
        return self.mode in ("auto", "engine")

    def parallel_config(self) -> ParallelConfig:
        """The :class:`ParallelConfig` for per-trial (non-engine) execution."""
        workers = 1 if self.mode == "sequential" else self.n_workers
        return ParallelConfig(n_workers=workers)


@dataclass(frozen=True)
class WorkloadSpec(ValidatedConfig):
    """One declarative description of a complete run.

    Attributes
    ----------
    workload:
        Workload name (a registry key for registered workloads; any
        identifier for ad-hoc specs run through a bare ``Session``).
    graphs:
        The :class:`GraphSource` to race on.
    solvers:
        Registry keys/aliases from :mod:`repro.algorithms.registry`.
    budget:
        The shared :class:`Budget`.
    policy:
        The :class:`ExecutionPolicy` (default: capability-routed, engine on).
    seed:
        Root seed; trial *i* on graph *g* runs on
        ``SeedSequence(seed, spawn_key=(g, i))`` regardless of execution
        path.  ``None`` draws fresh entropy once per session.
    params:
        Workload-specific extras (JSON-safe), carried verbatim into the
        persisted metadata header.
    """

    workload: str
    graphs: GraphSource
    solvers: Tuple[str, ...]
    budget: Budget = field(default_factory=Budget)
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    seed: Optional[int] = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.workload or not isinstance(self.workload, str):
            raise ValidationError(
                f"workload must be a non-empty string, got {self.workload!r}"
            )
        if not self.solvers:
            raise ValidationError("solvers must name at least one registered solver")
        if not isinstance(self.graphs, GraphSource):
            raise ValidationError(
                f"graphs must be a GraphSource, got {type(self.graphs).__name__}"
            )
        if not isinstance(self.budget, Budget):
            raise ValidationError(
                f"budget must be a Budget, got {type(self.budget).__name__}"
            )
        if not isinstance(self.policy, ExecutionPolicy):
            raise ValidationError(
                f"policy must be an ExecutionPolicy, got {type(self.policy).__name__}"
            )

    def resolve_solvers(self) -> List[SolverSpec]:
        """Resolve solver names against the registry (dupes after aliasing raise)."""
        return resolve_solver_specs(self.solvers)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        The inverse used by ``repro merge`` to reconstruct a run from a
        checkpoint manifest; ``from_dict(spec.to_dict())`` equals ``spec``
        for every persistable spec (explicit graph lists are not).
        """
        try:
            graphs = GraphSource.from_dict(dict(data["graphs"]))
            budget = Budget(**dict(data.get("budget", {})))
            policy = ExecutionPolicy(**dict(data.get("policy", {})))
            params_raw = dict(data.get("params", {}))
            params = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in params_raw.items()
            }
            return cls(
                workload=str(data["workload"]),
                graphs=graphs,
                solvers=tuple(data.get("solvers", ())),
                budget=budget,
                policy=policy,
                seed=data.get("seed"),
                params=params,
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"cannot rebuild WorkloadSpec: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        from repro.utils.validation import _config_jsonable

        return {
            "workload": self.workload,
            "graphs": self.graphs.to_dict(),
            "solvers": list(self.solvers),
            "budget": self.budget.to_dict(),
            "policy": self.policy.to_dict(),
            "seed": self.seed,
            "params": {str(k): _config_jsonable(v) for k, v in dict(self.params).items()},
        }


def resolve_solver_specs(names: Sequence[str]) -> List[SolverSpec]:
    """Resolve *names* to registry specs, rejecting duplicates after aliasing."""
    specs: List[SolverSpec] = []
    for name in names:
        spec = get_spec(name)
        if any(s.key == spec.key for s in specs):
            raise ValidationError(
                f"solver {spec.key!r} listed more than once (aliases resolve "
                f"to the same method)"
            )
        specs.append(spec)
    return specs
