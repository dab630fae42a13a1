"""Scenario -> task-DAG expansion with content-addressed keys.

Scenario points are independent measurements, so the plan is a flat DAG
(no edges) of :class:`~repro.runtime.executor.Task` entries; dependency
edges are the executor's job for sequential workloads such as network
campaigns.  The planner's value is the bookkeeping: every point gets a
stable cache key, and a shard label chosen so workers that memoize
trained models per process see related tasks back to back.  (Datasets
are not a planner concern: the engine rewires pending points onto the
run's dataset nodes, see :mod:`repro.runtime.dataset_nodes`.)

Cache keys hash only the fields that determine the measurement — the
display ``label`` and the fidelity's cosmetic ``name`` are excluded —
so the same physical point reached from two scenarios (or after a
relabel) shares one cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.executor import Task
from repro.runtime.hashing import task_key
from repro.runtime.spec import Scenario

__all__ = ["PlannedTask", "plan_scenario", "measurement_spec", "shard_labels"]

#: The engine's point-task entry point (importable in worker processes).
POINT_FN = "repro.runtime.tasks:run_point"


def measurement_spec(spec: dict) -> dict:
    """The cache-relevant subset of a task spec.

    Drops the display ``label`` and the fidelity preset's ``name`` —
    neither influences any computed number — so equal measurements are
    content-equal regardless of which scenario (or label wording)
    requested them.
    """
    trimmed = {key: value for key, value in spec.items() if key != "label"}
    trimmed["fidelity"] = {
        key: value
        for key, value in spec["fidelity"].items()
        if key != "name"
    }
    return trimmed


@dataclass(frozen=True)
class PlannedTask:
    """One scenario point, expanded and addressed."""

    index: int
    label: str
    spec: dict
    key: str
    task: Task


def shard_labels(specs, n_workers: int) -> "list[str | None]":
    """Shard by dataset when that still saturates the pool.

    Datasets are built once per run by their dataset nodes whatever the
    sharding; what sharding still buys is model locality.  Points that
    train on one dataset land on one worker, so its per-process model
    memo trains each scheme once.  Pinning them together is only worth
    it when there are clearly more dataset groups than workers —
    otherwise sharding would serialize the scenario.  Any spec carrying
    a ``{"dataset": {"id", "seed"}}`` mapping works — scenario points
    and zoo-training entries alike.
    """
    datasets = [
        (spec["dataset"]["id"], spec["dataset"]["seed"]) for spec in specs
    ]
    if len(set(datasets)) >= 2 * max(n_workers, 1):
        return [f"{ds}:{seed}" for ds, seed in datasets]
    return [None] * len(specs)


def plan_scenario(
    scenario: Scenario,
    version: "str | None" = None,
    n_workers: int = 1,
) -> "list[PlannedTask]":
    """Expand a scenario into keyed, shard-labelled executor tasks."""
    specs = scenario.task_specs()
    shards = shard_labels(specs, n_workers)
    planned = []
    for index, (spec, shard) in enumerate(zip(specs, shards)):
        key = task_key(measurement_spec(spec), version)
        planned.append(
            PlannedTask(
                index=index,
                label=spec["label"],
                spec=spec,
                key=key,
                task=Task(
                    task_id=f"{index:04d}:{spec['label']}",
                    fn=POINT_FN,
                    params=spec,
                    shard=shard,
                ),
            )
        )
    return planned
