"""Batched solver engine: trial-parallel device + LIF simulation.

Public API
----------
:class:`SolveRequest` / :class:`SolveResult`
    Describe and report a batch of independent circuit trials on one graph.
:class:`BatchedSolverEngine` / :func:`solve`
    Execute a request with trial-parallel simulation.
:func:`sequential_solve`
    Plan-driven reference: one trial at a time through ``LIFPopulation``
    with the same per-trial seeds (for equivalence tests and benchmarks).
:class:`EarlyStopConfig`
    Plateau rule for streaming best-cut early stopping.
:func:`resolve_backend` / :meth:`WeightBackend.for_graph`
    The backend-selection API: one spec string ("auto", "sparse",
    "torch:dense", ...) resolves both the array namespace
    (:class:`ArrayBackend`: numpy/torch/cupy) and the weight backend.
:func:`register_backend` / :func:`list_backends` /
:func:`register_array_backend` / :func:`list_array_backends`
    Extend or inspect the weight- and array-backend registries
    (``dense``/``sparse`` and ``numpy``/``torch``/``cupy`` ship by default).
:func:`coalesce_requests` / :func:`split_result`
    Batch split/merge seams: fuse same-shape requests into one engine batch
    and slice the result back per requester, bit-identically (the solve
    service's cross-request batching).
:class:`InstanceBlock` / :func:`solve_instance_block`
    Graph-axis batching: fuse same-shape instances × trials into one kernel
    invocation (arena/problem suites, the serve batch loop).
"""

from repro.engine.backends import (
    DenseBackend,
    SparseBackend,
    WeightBackend,
    get_backend,
    list_backends,
    probe_weight_backends,
    register_backend,
    select_backend,
)
from repro.engine.coalesce import (
    coalesce_requests,
    request_trial_seeds,
    split_result,
)
from repro.engine.engine import BatchedSolverEngine, sequential_solve, solve
from repro.engine.instances import (
    InstanceBlock,
    fusion_compatible,
    solve_instance_block,
)
from repro.engine.plan import BatchPlan
from repro.engine.request import EarlyStopConfig, SolveRequest, SolveResult
from repro.engine.sampler import BatchDeviceSampler, trial_seed_sequences
from repro.engine.simulator import BatchLIFSimulator
from repro.engine.tracker import BestCutTracker
from repro.engine.xp import (
    ArrayBackend,
    BackendSpec,
    CupyArrayBackend,
    NumpyArrayBackend,
    ResolvedBackend,
    TorchArrayBackend,
    get_array_backend,
    list_array_backends,
    parse_backend_spec,
    probe_array_backends,
    register_array_backend,
    resolve_backend,
)

__all__ = [
    "ArrayBackend",
    "BackendSpec",
    "BatchDeviceSampler",
    "BatchLIFSimulator",
    "BatchPlan",
    "BatchedSolverEngine",
    "BestCutTracker",
    "CupyArrayBackend",
    "DenseBackend",
    "EarlyStopConfig",
    "InstanceBlock",
    "NumpyArrayBackend",
    "ResolvedBackend",
    "SolveRequest",
    "SolveResult",
    "SparseBackend",
    "TorchArrayBackend",
    "WeightBackend",
    "coalesce_requests",
    "fusion_compatible",
    "get_array_backend",
    "get_backend",
    "list_array_backends",
    "list_backends",
    "parse_backend_spec",
    "probe_array_backends",
    "probe_weight_backends",
    "register_array_backend",
    "register_backend",
    "request_trial_seeds",
    "resolve_backend",
    "select_backend",
    "sequential_solve",
    "solve",
    "solve_instance_block",
    "split_result",
    "trial_seed_sequences",
]
