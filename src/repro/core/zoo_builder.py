"""Parallel zoo training through the ``repro.runtime`` engine.

The paper's deployment story (Sec. IV-D, Fig. 1) is a :class:`ModelZoo`
of SplitBeam models "trained offline for various network
configurations".  This module makes building that zoo a runtime
workload like every other grid in the reproduction: a declarative
:class:`~repro.runtime.spec.TrainingGrid` (configurations x
architectures x seeds, with named presets in
:mod:`repro.runtime.registry`) expands into pure seeded
``train_splitbeam`` tasks, the multiprocess executor fans them out
(bit-identical results for any worker count), and every finished model
persists through a content-addressed :class:`CheckpointStore` so a warm
rebuild loads weights instead of spending epochs::

    from repro.core.zoo_builder import train_zoo
    from repro.runtime.checkpoints import CheckpointStore

    result = train_zoo(
        "compression-ladder",
        store=CheckpointStore("benchmarks/results/checkpoint_store"),
        n_workers=4,
    )
    zoo = result.zoo()          # a ModelZoo, ready for select_model
    result.entry("D1 K=1/8")    # one ZooEntry by grid label

Checkpoint keys are the sha256 of (dataset spec, resolved widths,
training config, measurement settings, fidelity) plus the repro source
digest — namespaced apart from result-cache keys — so editing the
library retrains everything while a fidelity or grid tweak retrains
exactly the entries it touches.

Because a :class:`ModelZoo` is keyed by what the NDP preamble announces
(the :class:`NetworkConfiguration`), two grid entries with the same
configuration *and* architecture — e.g. the E1 and E2 models of a
cross-environment grid, or a seed study — cannot coexist in one zoo.
:meth:`ZooBuildResult.zoo` therefore accepts a label subset, so one
build feeds several deployment catalogs.
"""

from __future__ import annotations

import time
from contextlib import nullcontext as _null
from dataclasses import asdict, dataclass, field

from repro.config import Fidelity
from repro.core.model import SplitBeamNet, three_layer_widths
from repro.core.training import splitbeam_training_config
from repro.core.zoo import ModelZoo, NetworkConfiguration, ZooEntry
from repro.datasets.catalog import dataset_spec
from repro.errors import ConfigurationError
from repro.nn.serialize import load_state_dict
from repro.obs import trace as trace_mod
from repro.obs.export import write_trace
from repro.runtime import faults as faults_mod
from repro.runtime.checkpoints import CHECKPOINT_KIND, CheckpointStore
from repro.runtime.dataset_nodes import DatasetNodes
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    Task,
    resolve_worker_count,
    run_tasks,
)
from repro.runtime.payloads import PayloadStore
from repro.runtime.hashing import code_version, state_digest, task_key
from repro.runtime.planner import shard_labels
from repro.runtime.spec import TrainingGrid, fidelity_from_dict

__all__ = [
    "PlannedTraining",
    "ZooBuildResult",
    "ZooBuilder",
    "checkpoint_spec",
    "plan_training_grid",
    "train_zoo",
]

#: Bump when the zoo-build manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

#: The builder's task entry point (importable in worker processes).
TRAIN_FN = "repro.runtime.tasks:train_zoo_entry"


def _resolve_entry(spec: dict) -> dict:
    """A task-ready copy of one grid spec: widths and BER budget pinned.

    ``compression`` entries resolve to the Table II 3-layer widths from
    the dataset's input dimension (known from the catalog, no dataset
    build needed); ``ber_samples=None`` resolves to the grid fidelity's
    budget.  The resolved spec — not the sugar it came from — is what
    workers receive and what checkpoint keys hash, so
    ``compression=1/8`` and the equivalent explicit widths share a
    checkpoint.
    """
    model = dict(spec["model"])
    if model.get("widths") is None:
        catalog = dataset_spec(spec["dataset"]["id"])
        config = NetworkConfiguration(
            n_tx=catalog.n_tx,
            n_rx=catalog.n_rx,
            bandwidth_mhz=catalog.bandwidth_mhz,
        )
        model["widths"] = three_layer_widths(
            config.input_dim, model["compression"]
        )
    ber_samples = spec.get("ber_samples")
    if ber_samples is None:
        ber_samples = int(spec["fidelity"]["ber_samples"])
    return {**spec, "model": model, "ber_samples": int(ber_samples)}


def checkpoint_spec(spec: dict) -> dict:
    """The checkpoint-relevant subset of one *resolved* training spec.

    Mirrors :func:`repro.runtime.planner.measurement_spec`: the display
    ``label``, free-text ``notes``, and the fidelity preset's cosmetic
    ``name`` are dropped; the derived :class:`TrainingConfig` (epochs,
    optimizer, schedule, seed) is hashed explicitly so a recipe change
    in :func:`~repro.core.training.splitbeam_training_config` can never
    serve stale weights.
    """
    fidelity = {
        key: value for key, value in spec["fidelity"].items() if key != "name"
    }
    train = dict(spec["train"])
    config = splitbeam_training_config(
        fidelity_from_dict(spec["fidelity"]), train["seed"]
    )
    return {
        "dataset": dict(spec["dataset"]),
        "model": {
            "widths": [int(w) for w in spec["model"]["widths"]],
            "activation": spec["model"]["activation"],
            "qat_bits": spec["model"]["qat_bits"],
        },
        "train": {**asdict(config), "checkpoint_on": train["checkpoint_on"]},
        "quantizer_bits": spec["quantizer_bits"],
        "link": dict(spec.get("link", {})),
        "ber_samples": spec["ber_samples"],
        "fidelity": fidelity,
    }


@dataclass(frozen=True)
class PlannedTraining:
    """One grid entry, resolved and content-addressed."""

    index: int
    label: str
    spec: dict  # resolved task params (widths + ber_samples pinned)
    key: str
    task: Task


def plan_training_grid(
    grid: TrainingGrid,
    version: "str | None" = None,
    n_workers: int = 1,
    payloads: "PayloadStore | None" = None,
) -> "list[PlannedTraining]":
    """Expand a training grid into keyed, shard-labelled executor tasks.

    With a payload store, the spec sub-mappings every entry repeats
    (the grid fidelity, the shared link settings) are interned once and
    referenced from the task parameters; keys and the recorded
    :attr:`PlannedTraining.spec` always use the raw spec.  The dataset
    recipe stays inline: the builder swaps it for the dataset its node
    built (see :mod:`repro.runtime.dataset_nodes`).
    """
    specs = [_resolve_entry(spec) for spec in grid.task_specs()]
    shards = shard_labels(specs, n_workers)
    planned = []
    for index, (spec, shard) in enumerate(zip(specs, shards)):
        key = task_key(checkpoint_spec(spec), version, kind=CHECKPOINT_KIND)
        params = spec
        if payloads is not None:
            params = {**spec, "fidelity": payloads.intern(spec["fidelity"])}
            if "link" in spec:
                params["link"] = payloads.intern(spec["link"])
        planned.append(
            PlannedTraining(
                index=index,
                label=spec["label"],
                spec=spec,
                key=key,
                task=Task(
                    task_id=f"{index:04d}:{spec['label']}",
                    fn=TRAIN_FN,
                    params=params,
                    shard=shard,
                ),
            )
        )
    return planned


@dataclass
class ZooBuildResult:
    """The outcome of one grid build: models plus build statistics.

    ``entries`` (grid order) carry the manifest row for every trained or
    checkpoint-loaded model; :meth:`zoo` assembles them into a
    :class:`ModelZoo`, optionally restricted to a label subset (a
    cross-environment grid holds same-architecture models for several
    environments, which one deployment catalog cannot).
    """

    grid: str
    title: str
    fidelity: dict
    entries: "list[dict]"  # manifest rows + a transient "cached" flag
    n_entries: int
    n_cached: int
    n_trained: int
    n_workers: int
    wall_s: float = 0.0
    code_version: str = ""
    health: dict = field(default_factory=dict)
    #: Directory the build's trace was written to (``None`` untraced).
    #: Telemetry, like ``wall_s`` — never part of :meth:`to_dict`.
    trace_dir: "str | None" = None
    _zoo_entries: "dict[str, ZooEntry]" = field(default_factory=dict, repr=False)
    #: The datasets this build's nodes built, by node id — a campaign
    #: hands them to its rounds instead of building them again.
    _datasets: dict = field(default_factory=dict, repr=False)

    def entry(self, label: str) -> ZooEntry:
        """The :class:`ZooEntry` built for one grid label."""
        try:
            return self._zoo_entries[label]
        except KeyError:
            raise ConfigurationError(
                f"no zoo entry labelled {label!r}; "
                f"options: {sorted(self._zoo_entries)}"
            ) from None

    def labels(self) -> "list[str]":
        """All entry labels, in grid order."""
        return [row["label"] for row in self.entries]

    def zoo(self, labels=None) -> ModelZoo:
        """Assemble a :class:`ModelZoo` from all (or selected) labels.

        Raises :class:`ConfigurationError` when two selected entries
        share a (configuration, architecture) pair — pass ``labels`` to
        split such grids into per-environment (or per-seed) zoos.
        """
        selected = self.labels() if labels is None else list(labels)
        zoo = ModelZoo()
        for label in selected:
            zoo.register(self.entry(label))
        return zoo

    def to_dict(self, include_health: bool = False) -> dict:
        """Deterministic manifest payload (no timestamps, no wall time).

        ``include_health=True`` appends fault-tolerance statistics; the
        default omits them so the manifest stays byte-identical across
        worker counts, cold/warm stores, and fault schedules.
        """
        rows = [
            {key: value for key, value in row.items() if key != "cached"}
            for row in self.entries
        ]
        payload = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "grid": self.grid,
            "title": self.title,
            "fidelity": self.fidelity,
            "code_version": self.code_version,
            "entries": rows,
        }
        if include_health:
            payload["health"] = self.health
        return payload

    def write_json(self, path) -> None:
        """Write the manifest (2-space indent, sorted keys, trailing \\n)."""
        from repro.utils.artifacts import write_json_artifact

        write_json_artifact(path, self.to_dict())


class ZooBuilder:
    """Runs training grids through the planner, checkpoints, and pool.

    Parameters
    ----------
    store:
        A :class:`CheckpointStore` (or ``None`` to always retrain).
    n_workers:
        Worker processes; ``None`` reads ``$REPRO_RUNTIME_WORKERS``
        (default 1 = the deterministic in-process executor).
    policy:
        A :class:`~repro.runtime.executor.RetryPolicy` bounding
        retries/timeouts (``None`` = the default).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` of injected chaos
        (``None`` = the installed plan or ``$REPRO_RUNTIME_FAULTS``).
    trace:
        Observability: a directory path (or a
        :class:`~repro.obs.trace.Tracer`) recording the build's span
        timeline and metrics; ``None`` joins an already-installed
        tracer (a campaign's zoo build lands in the campaign timeline)
        or honours ``$REPRO_RUNTIME_TRACE``; ``False`` disables.
    """

    def __init__(
        self,
        store: "CheckpointStore | None" = None,
        n_workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults=None,
        trace=None,
    ) -> None:
        self.store = store
        self.n_workers = resolve_worker_count(n_workers)
        self.policy = policy
        self.faults = faults
        self.trace = trace

    def build(self, grid: TrainingGrid) -> ZooBuildResult:
        """Train (or checkpoint-load) every entry of ``grid``."""
        # Installed for the build's duration so checkpoint writes see
        # the same chaos schedule (and trace timeline) as the tasks.
        plan = faults_mod.active_plan(self.faults)
        previous = faults_mod.install(plan)
        tracer, owned = trace_mod.tracer_for_run(
            self.trace, f"zoo:{grid.name}"
        )
        prev_tracer = trace_mod.install_tracer(tracer) if tracer else None
        try:
            if tracer is None:
                return self._build(grid, plan)
            with tracer.span(f"zoo:{grid.name}", "engine"):
                result = self._build(grid, plan)
            self._finalize_trace(result, tracer, owned)
            return result
        finally:
            if tracer is not None:
                trace_mod.install_tracer(prev_tracer)
            faults_mod.install(previous)

    def _finalize_trace(self, result, tracer, owned: bool) -> None:
        metrics = tracer.metrics
        metrics.ratio_gauge(
            "checkpoint.hit_ratio", result.n_cached, result.n_entries
        )
        interned = metrics.counter("payloads.interned")
        if interned:
            # Dedupe ratio: interns served from an existing entry.
            metrics.ratio_gauge(
                "payloads.dedupe_ratio",
                interned - metrics.counter("payloads.unique"),
                interned,
            )
        for family, counters in result.health.items():
            if not isinstance(counters, dict):
                continue
            for key, value in counters.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    metrics.set_gauge(f"health.{family}.{key}", value)
        if owned:
            result.trace_dir = write_trace(tracer)
        else:
            result.trace_dir = tracer.out_dir

    def _build(self, grid: TrainingGrid, plan) -> ZooBuildResult:
        start = time.perf_counter()
        tracer = trace_mod.current_tracer()
        version = code_version()
        health = RunHealth()
        payloads = PayloadStore()
        if tracer is None:
            planned = plan_training_grid(
                grid, version=version, n_workers=self.n_workers,
                payloads=payloads,
            )
        else:
            with tracer.span("plan", "engine", entries=len(grid.task_specs())):
                planned = plan_training_grid(
                    grid, version=version, n_workers=self.n_workers,
                    payloads=payloads,
                )
        results: "dict[int, dict]" = {}
        to_run: "list[PlannedTraining]" = []
        checkpoint_check = (
            tracer.span("checkpoint_check", "engine", entries=len(planned))
            if tracer
            else _null()
        )
        with checkpoint_check:
            for entry in planned:
                # `is not None`, not truthiness: an empty store is falsy
                # (__len__ == 0), which would skip gets on cold builds.
                checkpoint = (
                    self.store.get(entry.key)
                    if self.store is not None
                    else None
                )
                if checkpoint is not None:
                    results[entry.index] = {
                        "state": checkpoint.state,
                        # Reuse the digest get() just verified; _assemble
                        # then skips re-hashing megabytes of weights on
                        # the warm path.
                        "state_sha256": checkpoint.state_sha256,
                        **checkpoint.meta,
                    }
                else:
                    to_run.append(entry)

        by_task_id = {entry.task.task_id: entry for entry in to_run}
        # Pending trainings depend on one dataset node per recipe; a
        # pool run ships each dataset to each worker once.
        nodes = DatasetNodes(
            grid.fidelity, payloads=payloads if self.n_workers > 1 else None
        )
        trainings = [
            nodes.consumer(entry.task, ("dataset",)) for entry in to_run
        ]

        def persist(task_id: str, result) -> None:
            if nodes.absorb(task_id, result):
                return
            # Checkpoint each model the moment training finishes, so an
            # interrupted build resumes from every completed entry.
            # Digest once here; _assemble and the store both reuse it.
            result["state_sha256"] = state_digest(result["state"])
            if self.store is not None:
                entry = by_task_id[task_id]
                meta = {
                    key: value
                    for key, value in result.items()
                    if key not in ("state", "state_sha256")
                }
                self.store.put(
                    entry.key,
                    checkpoint_spec(entry.spec),
                    result["state"],
                    meta=meta,
                    state_sha256=result["state_sha256"],
                )

        with payloads:
            executed = run_tasks(
                nodes.tasks + trainings,
                n_workers=self.n_workers,
                on_result=persist,
                payloads=payloads,
                policy=self.policy,
                faults=plan,
                health=health,
            )
            rehydrated = payloads.rehydrated
        if self.store is not None:
            # Publish the packed index so the next open recovers from a
            # snapshot instead of rescanning every segment tail.
            self.store.flush()
        for entry in to_run:
            results[entry.index] = executed[entry.task.task_id]
        executed_indices = {entry.index for entry in to_run}
        with tracer.span("assemble", "engine") if tracer else _null():
            return self._assemble(
                grid, planned, results,
                executed_indices=executed_indices,
                datasets=nodes.built,
                version=version,
                wall_s=time.perf_counter() - start,
                health={
                    "executor": health.to_dict(),
                    "checkpoints": (
                        self.store.health.to_dict()
                        if self.store is not None
                        else None
                    ),
                    "payloads": {"rehydrated": rehydrated},
                },
            )

    def _assemble(
        self, grid, planned, results, executed_indices, datasets, version,
        wall_s, health,
    ) -> ZooBuildResult:
        """Reconstruct models in the coordinator, in grid order."""
        rows: "list[dict]" = []
        zoo_entries: "dict[str, ZooEntry]" = {}
        for entry in planned:
            result = results[entry.index]
            model = SplitBeamNet(
                result["widths"], activation=result["activation"]
            )
            load_state_dict(model, result["state"])
            catalog = dataset_spec(entry.spec["dataset"]["id"])
            config = NetworkConfiguration(
                n_tx=catalog.n_tx,
                n_rx=catalog.n_rx,
                bandwidth_mhz=catalog.bandwidth_mhz,
            )
            notes = entry.spec.get("notes") or entry.label
            zoo_entries[entry.label] = ZooEntry(
                config=config,
                model=model,
                quantizer_bits=entry.spec["quantizer_bits"],
                measured_ber=float(result["measured_ber"]),
                notes=notes,
            )
            rows.append(
                {
                    "label": entry.label,
                    "key": entry.key,
                    "config": config.label(),
                    "widths": [int(w) for w in result["widths"]],
                    "activation": result["activation"],
                    "quantizer_bits": entry.spec["quantizer_bits"],
                    "measured_ber": float(result["measured_ber"]),
                    "state_sha256": (
                        result.get("state_sha256")
                        or state_digest(result["state"])
                    ),
                    "history": dict(result["history"]),
                    "notes": notes,
                    # Transient (stripped from to_dict): where this
                    # entry came from on *this* build.
                    "cached": entry.index not in executed_indices,
                }
            )
        return ZooBuildResult(
            grid=grid.name,
            title=grid.title,
            fidelity=dict(grid.fidelity),
            entries=rows,
            n_entries=len(planned),
            n_cached=len(planned) - len(executed_indices),
            n_trained=len(executed_indices),
            n_workers=self.n_workers,
            wall_s=wall_s,
            code_version=version,
            health=health,
            _zoo_entries=zoo_entries,
            _datasets=datasets,
        )


def train_zoo(
    grid: "TrainingGrid | str",
    fidelity: "Fidelity | None" = None,
    store: "CheckpointStore | None" = None,
    n_workers: "int | None" = None,
    policy: "RetryPolicy | None" = None,
    faults=None,
    trace=None,
    **kwargs,
) -> ZooBuildResult:
    """Build a model zoo from a grid (or a registered preset name).

    The one-call entry point: ``train_zoo("compression-ladder",
    store=...)`` resolves the preset via
    :func:`repro.runtime.registry.get_training_grid` (extra keyword
    arguments reach the preset builder) and runs it through a
    :class:`ZooBuilder`.
    """
    if isinstance(grid, str):
        from repro.runtime.registry import get_training_grid

        grid = get_training_grid(grid, fidelity=fidelity, **kwargs)
    elif fidelity is not None or kwargs:
        raise ConfigurationError(
            "fidelity/preset overrides apply to named grids only; "
            "build the TrainingGrid with them instead"
        )
    return ZooBuilder(
        store=store, n_workers=n_workers, policy=policy, faults=faults,
        trace=trace,
    ).build(grid)
