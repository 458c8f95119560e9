"""Request/result containers for the batched solver engine.

A :class:`SolveRequest` describes a *batch* of independent circuit trials on
one graph: which circuit to run, how many trials, how many cut read-outs per
trial, the root seed, the weight-application backend, and (optionally) an
early-stopping rule.  :class:`SolveResult` carries everything the experiment
harness needs back: the global best cut, per-trial bests, the per-round cut
trajectories, and timing/backend metadata.

Seeding contract
----------------
Trial *i* of a request with root seed ``s`` receives the seed sequence
``SeedSequence(entropy=s, spawn_key=(i,))`` — the same child that
:class:`repro.utils.rng.SeedStream` and :func:`repro.parallel.seeds.seeded_tasks`
hand to work item *i*.  Running the engine with ``n_trials=k`` is therefore
bit-identical (dense backend) to running those ``k`` trials one by one,
regardless of trial-block size or execution order —
:func:`repro.engine.sequential_solve` is that one-by-one reference, written
against the circuit's ``BatchPlan``.  ``circuit.sample_cuts`` is a
batch-of-1 engine call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.circuits.base import CircuitResult, NeuromorphicCircuit, SampleTrajectory
from repro.cuts.cut import Cut
from repro.utils.validation import ValidationError

__all__ = ["EarlyStopConfig", "SolveRequest", "SolveResult"]

#: Metadata entries holding one row per trial: :meth:`SolveResult.circuit_result`
#: picks the trial's row and :func:`repro.engine.coalesce.split_result`
#: slices them along with the trials.
PER_TRIAL_METADATA = ("final_plasticity_weights", "n_plasticity_updates")


@dataclass(frozen=True)
class EarlyStopConfig:
    """Plateau rule for streaming best-cut tracking.

    The engine stops simulating further read-out rounds once the best cut seen
    so far has not improved by at least ``rel_improvement`` (relative to the
    current best, with an absolute floor of ``abs_improvement``) for
    ``patience`` consecutive rounds, provided at least ``min_rounds`` rounds
    have completed.  While a rule is active, a cut equal to the graph's total
    edge weight (every edge cut) stops immediately — no later sample can beat
    it.  Without a rule (``early_stop=None``) the engine never truncates, the
    ceiling included, preserving exact sequential equivalence.

    Attributes
    ----------
    patience:
        Number of consecutive non-improving rounds tolerated before stopping.
    min_rounds:
        Rounds always simulated before the plateau rule may fire.
    rel_improvement:
        Minimum relative improvement that resets the plateau counter.
    abs_improvement:
        Absolute floor on the improvement threshold (guards weight-0 bests).
    """

    patience: int = 32
    min_rounds: int = 64
    rel_improvement: float = 1e-3
    abs_improvement: float = 1e-9

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValidationError(f"patience must be >= 1, got {self.patience}")
        if self.min_rounds < 1:
            raise ValidationError(f"min_rounds must be >= 1, got {self.min_rounds}")
        if self.rel_improvement < 0 or self.abs_improvement < 0:
            raise ValidationError("improvement thresholds must be non-negative")


@dataclass(frozen=True)
class SolveRequest:
    """A batch of independent trials of one circuit on one graph.

    Attributes
    ----------
    circuit:
        Either an already-built :class:`NeuromorphicCircuit` (its graph and
        configuration are used as-is; the SDP, if any, is not re-solved), or a
        circuit name (``"lif_gw"`` / ``"lif_tr"``) — in which case ``graph``
        is required and the engine constructs the circuit itself, seeding any
        offline stage (the LIF-GW SDP solve) from ``seed``.
    graph:
        Graph to cut (ignored when ``circuit`` is an instance).
    n_trials:
        Number of independent trials.  ``0`` is allowed and produces an empty
        result.
    n_samples:
        Cut read-outs per trial (upper bound when early stopping is enabled).
    trial_offset:
        Index of the first trial in the batch.  Trial ``j`` of the batch is
        seeded as *global* trial ``trial_offset + j``, so a request split
        into consecutive offset blocks reproduces the unsplit batch trial
        for trial (used by the sharded executor, :mod:`repro.distrib`).
    seed:
        Root seed; see the module docstring for the per-trial derivation.
    trial_seeds:
        Optional explicit per-trial ``SeedSequence`` list overriding the
        root-seed derivation entirely (``seed`` and ``trial_offset`` are
        then ignored; the length must equal ``n_trials``).  This is the
        batch *merge seam*: a request coalesced from several requests
        (:mod:`repro.engine.coalesce`, the solve service) carries each
        constituent's own paired seeds, so every trial computes exactly
        what it would have computed in its original standalone request.
    config:
        Circuit configuration forwarded when the engine builds the circuit.
    backend:
        Backend spec resolved by :func:`repro.engine.xp.resolve_backend`:
        ``"auto"``, a weight backend (``"dense"``/``"sparse"`` or any name
        registered with :func:`repro.engine.backends.register_backend`), an
        array backend (``"numpy"``/``"torch"``/``"cupy"``), or the combined
        ``"<array>:<weight>"`` form (e.g. ``"torch:dense"``).  An explicit
        weight name is always honoured; ``"auto"`` picks ``sparse`` for
        large low-density graphs with square weight matrices and ``dense``
        otherwise.  Only the numpy array path guarantees bitwise identity
        with the reference; sparse and accelerator (torch/cupy)
        paths agree to floating-point round-off.
    early_stop:
        Optional plateau rule; ``None`` disables early stopping (required for
        exact sample-for-sample equivalence with the reference).
    deadline_seconds:
        Optional hard wall-clock deadline for the whole batch, independent of
        the plateau rule.  Once exceeded, the engine stops launching further
        read-out rounds and returns the (partial but valid) best cuts found
        so far; at least one round always completes.  Plumbed from
        :attr:`repro.workloads.spec.Budget.max_seconds` by the executor and
        from per-request timeouts by the solve service.
    record_potentials:
        If True, the result includes the membrane rows at every read-out step
        (LIF-GW membrane read-out and LIF-TR only) — memory scales with
        ``trials x rounds x neurons``.
    record_assignments:
        If True, the result includes every read-out's ±1 assignment
        (``trials x rounds x vertices``), not just the per-trial bests.
    max_block_bytes:
        Soft cap on the per-block drive-current buffer; trials are processed
        in blocks so memory stays bounded for large graphs / long runs.
    """

    circuit: Union[str, NeuromorphicCircuit] = "lif_gw"
    graph: Optional[object] = None
    n_trials: int = 1
    n_samples: int = 64
    trial_offset: int = 0
    seed: Union[None, int, np.random.SeedSequence] = None
    trial_seeds: Optional[Tuple[np.random.SeedSequence, ...]] = None
    config: Optional[object] = None
    backend: str = "auto"
    early_stop: Optional[EarlyStopConfig] = None
    deadline_seconds: Optional[float] = None
    record_potentials: bool = False
    record_assignments: bool = False
    max_block_bytes: int = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.n_trials < 0:
            raise ValidationError(f"n_trials must be >= 0, got {self.n_trials}")
        if self.trial_offset < 0:
            raise ValidationError(
                f"trial_offset must be >= 0, got {self.trial_offset}"
            )
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.max_block_bytes < 1:
            raise ValidationError("max_block_bytes must be positive")
        if self.trial_seeds is not None:
            # Normalise lists/generators to the declared tuple form (the
            # dataclass is frozen, hence the object.__setattr__).
            object.__setattr__(self, "trial_seeds", tuple(self.trial_seeds))
            if not all(
                isinstance(s, np.random.SeedSequence) for s in self.trial_seeds
            ):
                raise ValidationError(
                    "trial_seeds must contain numpy SeedSequence objects"
                )
            if len(self.trial_seeds) != self.n_trials:
                raise ValidationError(
                    f"trial_seeds must have one seed per trial: got "
                    f"{len(self.trial_seeds)} seed(s) for n_trials="
                    f"{self.n_trials}"
                )
        if self.deadline_seconds is not None and not (
            isinstance(self.deadline_seconds, (int, float))
            and not isinstance(self.deadline_seconds, bool)
            and self.deadline_seconds > 0
        ):
            raise ValidationError(
                f"deadline_seconds must be a positive number or None, "
                f"got {self.deadline_seconds!r}"
            )
        if isinstance(self.circuit, str):
            if self.graph is None:
                raise ValidationError(
                    "graph is required when circuit is given by name"
                )
        elif not isinstance(self.circuit, NeuromorphicCircuit):
            raise ValidationError(
                "circuit must be a circuit name or a NeuromorphicCircuit instance, "
                f"got {type(self.circuit).__name__}"
            )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a batched solve.

    Attributes
    ----------
    graph_name, circuit_name, backend_name:
        Identifiers of what ran and on which weight backend.
    n_trials:
        Trials simulated.
    n_samples:
        Read-outs requested per trial.
    n_rounds:
        Read-out rounds actually completed (``< n_samples`` after an early
        stop).
    n_steps:
        LIF time steps simulated per trial (burn-in included).
    best_cut:
        Best cut across all trials and rounds (``None`` for ``n_trials=0``).
    trial_best_weights:
        ``(n_trials,)`` best cut weight per trial.
    trial_best_assignments:
        ``(n_trials, n)`` ±1 assignment achieving each trial's best.
    trajectories:
        ``(n_trials, n_rounds)`` cut weight of every read-out.
    early_stopped:
        True when the plateau rule truncated the run.
    elapsed_seconds:
        Wall-clock time of the batched simulation.
    potentials:
        ``(n_trials, n_rounds, n)`` read-out membrane rows when requested.
    assignments:
        ``(n_trials, n_rounds, n)`` read-out assignments when requested.
    metadata:
        Engine extras (block count, device count, early-stop round, ...).
    """

    graph_name: str
    circuit_name: str
    backend_name: str
    n_trials: int
    n_samples: int
    n_rounds: int
    n_steps: int
    best_cut: Optional[Cut]
    trial_best_weights: np.ndarray
    trial_best_assignments: np.ndarray
    trajectories: np.ndarray
    early_stopped: bool = False
    elapsed_seconds: float = 0.0
    potentials: Optional[np.ndarray] = None
    assignments: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    @property
    def best_weight(self) -> float:
        """Best cut weight across the batch (0 for an empty batch)."""
        return self.best_cut.weight if self.best_cut is not None else 0.0

    @property
    def samples_per_second(self) -> float:
        """Aggregate read-out throughput of the batched run."""
        total = self.n_trials * self.n_rounds
        if self.elapsed_seconds <= 0.0:
            return float("inf") if total else 0.0
        return total / self.elapsed_seconds

    def circuit_result(self, trial: int) -> CircuitResult:
        """View one trial as a :class:`CircuitResult`.

        The view carries the result's metadata (device count, read-out, the
        circuit's plan metadata such as the SDP objective) with per-trial
        entries narrowed to *trial*.
        """
        if not (0 <= trial < self.n_trials):
            raise ValidationError(
                f"trial must be in [0, {self.n_trials}), got {trial}"
            )
        weights = self.trajectories[trial]
        best_index = int(np.argmax(weights)) if weights.size else 0
        cut = Cut(
            assignment=self.trial_best_assignments[trial].astype(np.int8),
            weight=float(self.trial_best_weights[trial]),
            graph_name=self.graph_name,
        )
        return CircuitResult(
            graph_name=self.graph_name,
            best_cut=cut,
            trajectory=SampleTrajectory(weights=weights),
            n_samples=int(weights.shape[0]),
            n_steps=self.n_steps,
            metadata={
                **self.metadata,
                **{k: self.metadata[k][trial].copy()
                   for k in PER_TRIAL_METADATA if k in self.metadata},
                "engine": True, "backend": self.backend_name,
                "trial": trial, "best_round": best_index,
            },
        )
