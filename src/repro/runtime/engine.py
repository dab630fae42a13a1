"""The experiment engine: plan, cache-check, execute, store, report.

:class:`ExperimentEngine` is the orchestration entry point the figure
benchmarks and examples use::

    engine = ExperimentEngine(cache=ResultCache("benchmarks/results/runtime_cache"),
                              n_workers=4)
    run = engine.run(get_scenario("fig09"))
    engine.write_results(run, "benchmarks/results/fig09.json")

Determinism contract: ``run.to_dict()`` is byte-identical whatever the
worker count and whether points came from workers or the cache, because
every task is a pure seeded function and cache keys embed the code
version.  Wall-clock statistics live on the :class:`EngineRun` object
only — the JSON artifact carries no timestamps, so re-runs diff clean.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext as _null
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs import trace as trace_mod
from repro.obs.export import write_trace
from repro.runtime import faults as faults_mod
from repro.runtime.cache import ResultCache
from repro.runtime.dataset_nodes import DatasetNodes
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    resolve_worker_count,
    run_tasks,
)
from repro.runtime.hashing import code_version
from repro.runtime.payloads import PayloadStore
from repro.runtime.planner import plan_scenario
from repro.runtime.spec import Scenario
from repro.utils.artifacts import write_json_artifact

__all__ = ["EngineRun", "ExperimentEngine"]

#: Bump when the result-artifact layout changes incompatibly.
RESULT_SCHEMA_VERSION = 1

#: The recipe fields of a scenario point that its dataset nodes build.
POINT_DATASETS = ("dataset", "eval_dataset")


@dataclass
class EngineRun:
    """The outcome of one scenario execution."""

    scenario: str
    title: str
    fidelity: dict
    points: "list[dict]"  # {"label", "key", "result"} in scenario order
    n_tasks: int
    n_cached: int
    n_executed: int
    n_workers: int
    wall_s: float = 0.0
    code_version: str = ""
    health: dict = field(default_factory=dict)
    #: Directory the run's trace was written to (``None`` untraced).
    #: Telemetry, like ``wall_s`` — never part of :meth:`to_dict`.
    trace_dir: "str | None" = None

    def result(self, label: str) -> dict:
        """The result mapping for one point label."""
        for entry in self.points:
            if entry["label"] == label:
                return entry["result"]
        raise ConfigurationError(f"no point labelled {label!r}")

    def values(self, metric: str = "ber") -> "dict[str, float]":
        """``{label: result[metric]}`` over all points."""
        return {p["label"]: p["result"][metric] for p in self.points}

    def to_dict(self, include_health: bool = False) -> dict:
        """Deterministic artifact payload (no timestamps, no wall time).

        ``include_health=True`` appends the run's fault-tolerance
        statistics (:class:`~repro.runtime.executor.RunHealth` plus
        store counters).  The default omits them so the artifact stays
        byte-identical across worker counts, cold/warm caches, *and*
        fault schedules — injected chaos costs retries, never bytes.
        """
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "title": self.title,
            "fidelity": self.fidelity,
            "code_version": self.code_version,
            "points": self.points,
        }
        if include_health:
            payload["health"] = self.health
        return payload

    def write_json(self, path: "str | os.PathLike") -> None:
        """Write the artifact (2-space indent, sorted keys, trailing \\n)."""
        write_json_artifact(path, self.to_dict())


class ExperimentEngine:
    """Runs scenarios through the planner, cache, and worker pool.

    Parameters
    ----------
    cache:
        A :class:`ResultCache` (or ``None`` to always recompute).
    n_workers:
        Worker processes; ``None`` reads ``$REPRO_RUNTIME_WORKERS``
        (default 1 = the deterministic in-process executor).
    policy:
        A :class:`~repro.runtime.executor.RetryPolicy` bounding
        retries/timeouts (``None`` = the default: 2 retries, no
        timeout).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` of injected chaos
        (``None`` = the installed plan or ``$REPRO_RUNTIME_FAULTS``).
    trace:
        Observability: a directory path (or a
        :class:`~repro.obs.trace.Tracer`) to record the run's span
        timeline and metrics into; ``None`` joins an already-installed
        tracer or honours ``$REPRO_RUNTIME_TRACE``; ``False`` disables
        tracing even under the environment variable.  Tracing never
        changes result bytes — see :mod:`repro.obs.trace`.
    """

    def __init__(
        self,
        cache: "ResultCache | None" = None,
        n_workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults=None,
        trace=None,
    ) -> None:
        self.cache = cache
        self.n_workers = resolve_worker_count(n_workers)
        self.policy = policy
        self.faults = faults
        self.trace = trace

    def run(self, scenario: Scenario) -> EngineRun:
        """Execute every point of ``scenario`` (reusing cached ones)."""
        # Install the active plan (and tracer) for the run's duration so
        # store reads/writes — which happen far from any executor kwarg
        # — see the same chaos schedule and land in the same timeline.
        plan = faults_mod.active_plan(self.faults)
        previous = faults_mod.install(plan)
        tracer, owned = trace_mod.tracer_for_run(
            self.trace, f"engine:{scenario.name}"
        )
        prev_tracer = trace_mod.install_tracer(tracer) if tracer else None
        try:
            if tracer is None:
                return self._run(scenario, plan)
            with tracer.span(f"engine:{scenario.name}", "engine"):
                run = self._run(scenario, plan)
            self._finalize_trace(run, tracer, owned)
            return run
        finally:
            if tracer is not None:
                trace_mod.install_tracer(prev_tracer)
            faults_mod.install(previous)

    def _finalize_trace(self, run: EngineRun, tracer, owned: bool) -> None:
        """Fold run health into the metrics; export when we own the tracer."""
        metrics = tracer.metrics
        metrics.ratio_gauge("cache.hit_ratio", run.n_cached, run.n_tasks)
        for family, counters in run.health.items():
            if not isinstance(counters, dict):
                continue
            for key, value in counters.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    metrics.set_gauge(f"health.{family}.{key}", value)
        if owned:
            run.trace_dir = write_trace(tracer)
        else:
            run.trace_dir = tracer.out_dir

    def _run(self, scenario: Scenario, plan) -> EngineRun:
        start = time.perf_counter()
        tracer = trace_mod.current_tracer()
        version = code_version()
        health = RunHealth()
        if tracer is None:
            planned = plan_scenario(
                scenario, version=version, n_workers=self.n_workers
            )
        else:
            with tracer.span("plan", "engine", points=len(scenario.points)):
                planned = plan_scenario(
                    scenario, version=version, n_workers=self.n_workers
                )
        results: "dict[int, dict]" = {}
        to_run = []
        with tracer.span(
            "cache_check", "engine", tasks=len(planned)
        ) if tracer else _null():
            for entry in planned:
                # `is not None`, not truthiness: an *empty* cache is
                # falsy (__len__ == 0), which would silently skip gets
                # on every cold run — and with them the miss telemetry.
                cached = (
                    self.cache.get(entry.key)
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    results[entry.index] = cached
                else:
                    to_run.append(entry)

        by_task_id = {entry.task.task_id: entry for entry in to_run}
        # Pending points depend on one dataset node per recipe; a pool
        # run ships each dataset to each worker once, as a payload.
        payloads = PayloadStore() if self.n_workers > 1 else None
        nodes = DatasetNodes(scenario.fidelity, payloads=payloads)
        points = [
            nodes.consumer(entry.task, POINT_DATASETS) for entry in to_run
        ]

        def persist(task_id: str, result) -> None:
            # Store each point the moment it completes, so an
            # interrupted run resumes from every finished point.
            if nodes.absorb(task_id, result) or self.cache is None:
                return
            entry = by_task_id[task_id]
            self.cache.put(entry.key, entry.spec, result)

        with payloads if payloads is not None else _null():
            executed = run_tasks(
                nodes.tasks + points,
                n_workers=self.n_workers,
                on_result=persist,
                payloads=payloads,
                policy=self.policy,
                faults=plan,
                health=health,
            )
        if self.cache is not None:
            # Publish the packed index so the next open recovers from a
            # snapshot instead of rescanning every segment tail.
            self.cache.flush()
        with tracer.span("assemble", "engine") if tracer else _null():
            run = self._assemble(
                scenario, plan, planned, to_run, results, executed,
                version, health, start,
            )
        return run

    def _assemble(
        self, scenario, plan, planned, to_run, results, executed,
        version, health, start,
    ) -> EngineRun:
        for entry in to_run:
            results[entry.index] = executed[entry.task.task_id]
        return EngineRun(
            scenario=scenario.name,
            title=scenario.title,
            fidelity=dict(scenario.fidelity),
            points=[
                {
                    "label": entry.label,
                    "key": entry.key,
                    "result": results[entry.index],
                }
                for entry in planned
            ],
            n_tasks=len(planned),
            n_cached=len(planned) - len(to_run),
            n_executed=len(to_run),
            n_workers=self.n_workers,
            wall_s=time.perf_counter() - start,
            code_version=version,
            health={
                "executor": health.to_dict(),
                "cache": (
                    self.cache.health.to_dict()
                    if self.cache is not None
                    else None
                ),
            },
        )

    def write_results(self, run: EngineRun, path: "str | os.PathLike") -> None:
        """Alias for :meth:`EngineRun.write_json` (symmetry with ``run``)."""
        run.write_json(path)
