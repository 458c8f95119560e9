"""Experiment orchestration with JSON result persistence.

The benchmark harness and the CLI both want to (a) run a named experiment,
(b) save its results to disk in a stable, diffable format, and (c) reload
earlier results for comparison without re-running hours of sampling.  This
module provides that thin layer: every experiment's result is converted to
plain JSON-serialisable dictionaries with a metadata header (experiment id,
configuration summary, library version, timestamp).

It is also the experiments-layer entry point to the batched solver engine:
:func:`run_circuit_trials` replaces the historical "loop ``sample_cuts`` once
per trial" pattern with a single trial-parallel engine solve (or, on
request, the plan-driven reference, for reference timings and equivalence
checks).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine.request import SolveResult
from repro.experiments.ablations import AblationPoint
from repro.experiments.figure3 import Figure3Cell
from repro.experiments.figure4 import Figure4Panel
from repro.experiments.table1 import Table1Row
from repro.utils.validation import ValidationError

__all__ = [
    "results_to_jsonable",
    "save_results",
    "atomic_write_json",
    "load_results",
    "register_result_type",
    "run_circuit_trials",
    "ExperimentRecord",
]

PathLike = Union[str, os.PathLike]

_RESULT_TYPES: tuple = (Figure3Cell, Figure4Panel, Table1Row, AblationPoint, SolveResult)


def register_result_type(cls: type) -> type:
    """Allow dataclass *cls* through :func:`results_to_jsonable`.

    Extension point for downstream subsystems (the solver arena registers
    its :class:`repro.arena.results.ArenaEntry` this way) so this module
    never has to import them.  Returns *cls*, so it can be used as a class
    decorator.  Idempotent.
    """
    global _RESULT_TYPES
    if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
        raise ValidationError(
            f"result types must be dataclasses, got {cls!r}"
        )
    if cls not in _RESULT_TYPES:
        _RESULT_TYPES = _RESULT_TYPES + (cls,)
    return cls


def _to_jsonable(value: Any) -> Any:
    """Recursively convert experiment objects / numpy types to JSON-safe values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ValidationError(f"cannot serialise value of type {type(value).__name__}")


def results_to_jsonable(results: Sequence[Any]) -> List[Dict[str, Any]]:
    """Convert a list of experiment result objects into JSON-safe dictionaries."""
    out = []
    for result in results:
        if not isinstance(result, _RESULT_TYPES):
            raise ValidationError(
                f"unsupported result type {type(result).__name__}; expected one of "
                f"{[t.__name__ for t in _RESULT_TYPES]}"
            )
        out.append(_to_jsonable(result))
    return out


@dataclasses.dataclass(frozen=True)
class ExperimentRecord:
    """A persisted experiment: metadata header plus serialised results."""

    experiment: str
    created_at: float
    config: Dict[str, Any]
    results: List[Dict[str, Any]]
    version: str = ""

    def result_type(self) -> Optional[str]:
        """The ``__type__`` of the first result (None for empty records)."""
        if not self.results:
            return None
        return self.results[0].get("__type__")


def save_results(
    path: PathLike,
    experiment: str,
    results: Sequence[Any],
    config: Optional[Dict[str, Any]] = None,
) -> ExperimentRecord:
    """Serialise *results* under a metadata header and write them to *path*.

    Parameters
    ----------
    path:
        Output JSON file (parent directory must exist).
    experiment:
        Experiment identifier, e.g. ``"figure3"`` or ``"table1"``.
    results:
        Result objects from the experiment runners.
    config:
        Optional JSON-safe description of the configuration used.
    """
    from repro import __version__

    record = ExperimentRecord(
        experiment=str(experiment),
        created_at=time.time(),
        config=_to_jsonable(config or {}),
        results=results_to_jsonable(results),
        version=__version__,
    )
    atomic_write_json(path, dataclasses.asdict(record))
    return record


def atomic_write_json(path: PathLike, payload: Any) -> None:
    """Write *payload* as JSON via a sibling temp file + ``os.replace``.

    A crash (or kill) mid-write never leaves a truncated JSON at *path* —
    the invariant the sharded executor's resume logic relies on ("an
    existing checkpoint file is a complete checkpoint").  The temp name
    comes from :func:`tempfile.mkstemp` (not the PID): shard workers on
    *different hosts* can share a checkpoint directory over NFS, where PIDs
    collide but mkstemp's O_EXCL create cannot.  Shared by
    :func:`save_results` and the checkpoint manifest writer so both carry
    identical durability guarantees.
    """
    import tempfile

    # Write through symlinks (matching plain open(path, "w")) rather than
    # replacing the link itself.
    path = os.path.realpath(os.fspath(path))
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        # mkstemp creates 0600; restore the umask-governed mode plain
        # open() would have used, so saved results stay group/world
        # readable where the environment allows it.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def run_circuit_trials(
    graph=None,
    circuit: str = "lif_gw",
    n_trials: int = 8,
    n_samples: int = 256,
    seed: Optional[int] = 0,
    config: Optional[Any] = None,
    backend: str = "auto",
    early_stop: Optional[Any] = None,
    use_engine: bool = True,
    **request_options: Any,
):
    """Run *n_trials* independent circuit trials on one graph — batched.

    The modern replacement for looping ``circuit.sample_cuts`` per trial:
    one :class:`repro.engine.SolveRequest` is dispatched to the batched
    engine, which simulates every trial's devices and membranes together.
    ``use_engine=False`` selects :func:`repro.engine.sequential_solve`, the
    plan-driven reference that simulates one trial at a time through
    :class:`repro.neurons.lif.LIFPopulation` with identical per-trial
    seeding (the oracle for equivalence checks and speedup measurements);
    both paths return the same :class:`repro.engine.SolveResult` shape.

    Parameters
    ----------
    graph:
        Graph to cut; optional (and checked for consistency) when *circuit*
        is an already-built instance, which carries its own graph.
    circuit:
        ``"lif_gw"``/``"lif_tr"``, or an already-built circuit instance.
    n_trials, n_samples, seed:
        Batch geometry and root seed (trial *i* uses
        ``SeedSequence(seed, spawn_key=(i,))``).
    config:
        Circuit configuration forwarded when *circuit* is a name.
    backend, early_stop, use_engine, request_options:
        Engine options; see :class:`repro.engine.SolveRequest`.
    """
    from repro.engine import SolveRequest, sequential_solve, solve

    if isinstance(circuit, str):
        request = SolveRequest(
            circuit=circuit, graph=graph, n_trials=n_trials, n_samples=n_samples,
            seed=seed, config=config, backend=backend, early_stop=early_stop,
            **request_options,
        )
    else:
        # An instance carries its own graph and configuration; refuse
        # conflicting arguments instead of silently ignoring them.
        if config is not None:
            raise ValidationError(
                "config cannot be combined with an already-built circuit; "
                "configure the circuit at construction time"
            )
        if graph is not None and graph is not circuit.graph:
            raise ValidationError(
                "graph does not match the circuit instance's graph; "
                "pass graph=None (or the same graph) with a circuit instance"
            )
        request = SolveRequest(
            circuit=circuit, n_trials=n_trials, n_samples=n_samples,
            seed=seed, backend=backend, early_stop=early_stop,
            **request_options,
        )
    return solve(request) if use_engine else sequential_solve(request)


def load_results(path: PathLike) -> ExperimentRecord:
    """Load an :class:`ExperimentRecord` previously written by :func:`save_results`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    missing = {"experiment", "created_at", "config", "results"} - set(payload)
    if missing:
        raise ValidationError(f"result file {path!r} is missing fields: {sorted(missing)}")
    return ExperimentRecord(
        experiment=payload["experiment"],
        created_at=float(payload["created_at"]),
        config=payload["config"],
        results=list(payload["results"]),
        version=payload.get("version", ""),
    )
