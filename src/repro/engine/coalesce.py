"""Batch split/merge seams: coalesce many solve requests into one.

The engine simulates a ``(trials, neurons)`` state matrix in lock-step, and
every trial is computationally independent — its devices are drawn from its
own ``SeedSequence``, its membrane row integrates separately, its cut
read-outs are evaluated per row.  Batch *composition* therefore cannot change
any trial's results (the property the engine's block splitting already relies
on).  This module turns that property into an API:

:func:`coalesce_requests`
    Merge N requests that share an execution shape (same circuit instance,
    sample count, backend, ...) into one :class:`~repro.engine.request.SolveRequest`
    whose trials are the concatenation of every constituent's trials, each
    carrying its *own* per-trial seeds (the ``trial_seeds`` merge seam).
:func:`split_result`
    Slice the merged :class:`~repro.engine.request.SolveResult` back into one
    result per constituent request, bit-identical to what each request would
    have produced standalone.

This is the core move of the solve service (:mod:`repro.serve`): N concurrent
users' requests for the same circuit shape cost one engine invocation, little
more than one user's.

Early stopping is refused on coalesced requests: a plateau stop driven by the
merged cut distribution would couple requests to their batch-mates, breaking
the bit-identity contract.  Wall-clock deadlines remain allowed (the merged
deadline is the tightest constituent's) — a deadline is an explicit
truncation instruction, and it truncates every trial at the same round.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuits.base import NeuromorphicCircuit
from repro.cuts.cut import Cut
from repro.engine.request import PER_TRIAL_METADATA, SolveRequest, SolveResult
from repro.engine.sampler import trial_seed_sequences
from repro.utils.validation import ValidationError

__all__ = ["coalesce_requests", "split_result", "request_trial_seeds"]


def request_trial_seeds(request: SolveRequest) -> List[np.random.SeedSequence]:
    """The exact per-trial seeds *request* will run with.

    Explicit ``trial_seeds`` verbatim, else the root-seed derivation
    (``SeedSequence(seed, spawn_key=(trial_offset + i,))``).
    """
    if request.trial_seeds is not None:
        return list(request.trial_seeds)
    return trial_seed_sequences(
        request.seed, request.n_trials, start=request.trial_offset
    )


def _shape_error(index: int, what: str, ours, theirs) -> ValidationError:
    return ValidationError(
        f"cannot coalesce request {index}: {what} differs "
        f"({theirs!r} != {ours!r}); coalescing requires an identical "
        f"execution shape"
    )


def coalesce_requests(
    requests: Sequence[SolveRequest],
) -> Tuple[SolveRequest, List[Tuple[int, int]]]:
    """Merge same-shape *requests* into one batch request.

    Returns ``(merged, slices)`` where ``slices[i] = (lo, hi)`` are the
    trial rows of request *i* inside the merged batch —
    :func:`split_result`'s input.  Requirements:

    * at least one request, all with ``n_trials >= 1``;
    * the *same circuit instance* (coalescing across graph builds would
      re-run setup per request, defeating the point — resolve/cache the
      circuit first, as the solve service does);
    * equal ``n_samples``, ``backend``, record flags;
    * no ``early_stop`` on any constituent (see the module docstring).

    The merged request carries every constituent's own per-trial seeds, the
    tightest constituent deadline, and the smallest ``max_block_bytes``.
    """
    if not requests:
        raise ValidationError("coalesce_requests needs at least one request")
    first = requests[0]
    if not isinstance(first.circuit, NeuromorphicCircuit):
        raise ValidationError(
            "coalesced requests must carry an already-built circuit instance "
            "(build or cache the circuit first, then coalesce)"
        )
    seeds: List[np.random.SeedSequence] = []
    slices: List[Tuple[int, int]] = []
    deadline = None
    max_block_bytes = first.max_block_bytes
    for index, request in enumerate(requests):
        if request.circuit is not first.circuit:
            raise _shape_error(
                index, "circuit instance", first.circuit, request.circuit
            )
        if request.n_samples != first.n_samples:
            raise _shape_error(
                index, "n_samples", first.n_samples, request.n_samples
            )
        if request.backend != first.backend:
            raise _shape_error(index, "backend", first.backend, request.backend)
        if request.record_potentials != first.record_potentials:
            raise _shape_error(
                index, "record_potentials",
                first.record_potentials, request.record_potentials,
            )
        if request.record_assignments != first.record_assignments:
            raise _shape_error(
                index, "record_assignments",
                first.record_assignments, request.record_assignments,
            )
        if request.early_stop is not None:
            raise ValidationError(
                f"cannot coalesce request {index}: early_stop is set — a "
                f"plateau stop over the merged batch would couple requests "
                f"to their batch-mates"
            )
        if request.n_trials < 1:
            raise ValidationError(
                f"cannot coalesce request {index}: n_trials must be >= 1"
            )
        lo = len(seeds)
        seeds.extend(request_trial_seeds(request))
        slices.append((lo, len(seeds)))
        if request.deadline_seconds is not None:
            deadline = (
                request.deadline_seconds if deadline is None
                else min(deadline, request.deadline_seconds)
            )
        max_block_bytes = min(max_block_bytes, request.max_block_bytes)
    merged = SolveRequest(
        circuit=first.circuit,
        n_trials=len(seeds),
        n_samples=first.n_samples,
        trial_seeds=tuple(seeds),
        backend=first.backend,
        early_stop=None,
        deadline_seconds=deadline,
        record_potentials=first.record_potentials,
        record_assignments=first.record_assignments,
        max_block_bytes=max_block_bytes,
    )
    return merged, slices


def split_result(
    result: SolveResult, slices: Sequence[Tuple[int, int]]
) -> List[SolveResult]:
    """Slice a merged batch result back into per-request results.

    ``slices`` is :func:`coalesce_requests`'s second return value.  Each
    returned :class:`SolveResult` re-derives its own best cut over its own
    trial rows; trajectories, per-trial bests, and assignments are views of
    the merged arrays restricted to the request's rows — bit-identical to a
    standalone run of the constituent request.  ``elapsed_seconds`` is the
    *shared* batch wall time (the whole point is that N requests paid for
    one batch); ``metadata`` records the batch geometry.
    """
    results: List[SolveResult] = []
    for lo, hi in slices:
        if not (0 <= lo < hi <= result.n_trials):
            raise ValidationError(
                f"slice ({lo}, {hi}) out of range for a {result.n_trials}-trial "
                f"batch result"
            )
        weights = result.trial_best_weights[lo:hi]
        assignments = result.trial_best_assignments[lo:hi]
        best_trial = int(np.argmax(weights))
        best_cut = Cut(
            assignment=assignments[best_trial].copy(),
            weight=float(weights[best_trial]),
            graph_name=result.graph_name,
        )
        results.append(replace(
            result,
            n_trials=hi - lo,
            best_cut=best_cut,
            trial_best_weights=weights,
            trial_best_assignments=assignments,
            trajectories=result.trajectories[lo:hi],
            potentials=(
                result.potentials[lo:hi] if result.potentials is not None
                else None
            ),
            assignments=(
                result.assignments[lo:hi] if result.assignments is not None
                else None
            ),
            metadata={
                **result.metadata,
                **{k: result.metadata[k][lo:hi]
                   for k in PER_TRIAL_METADATA if k in result.metadata},
                "coalesced": True,
                "batch_trials": int(result.n_trials),
                "batch_slice": [int(lo), int(hi)],
            },
        ))
    return results
