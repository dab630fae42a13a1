"""CSI datasets as task nodes of a run's DAG.

Every consumer of a CSI dataset — the engine's measurement points
(:func:`~repro.runtime.tasks.run_point`), the zoo builder's trainings
(:func:`~repro.runtime.tasks.train_zoo_entry`) and a campaign's round
resolves — depends on one *dataset node* per build recipe (the
``{"id", "seed", "reset_interval"}`` mapping plus the run's fidelity)
instead of building its own copy.  :class:`DatasetNodes` plans at most
one node per recipe and run, only for recipes a pending task needs (a
fully warm run samples no channel), and hands each built dataset to its
consumers through their ``resolve`` hooks:

- serial runs pass the dataset object itself — never pickled;
- pool runs intern it in the run's
  :class:`~repro.runtime.payloads.PayloadStore`, so each worker
  unpickles a dataset at most once per run;
- campaign rounds read it in the coordinator and ship round slices only.

A dataset is a pure function of its recipe and fidelity, so where its
node runs never changes a byte.  Nodes are not points, rounds or
trainings: callers keep them out of every count and never cache them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

from repro.config import Fidelity
from repro.errors import ConfigurationError
from repro.runtime.executor import Task

__all__ = ["DATASET_FN", "DatasetNodes", "build_dataset_node", "node_id"]

#: The dataset node's task entry point (importable in worker processes).
DATASET_FN = "repro.runtime.dataset_nodes:build_dataset_node"


def node_id(recipe: Mapping) -> str:
    """The task id of the node that builds ``recipe``.

    Commas and ``=`` are avoided so fault-plan globs
    (``crash,dataset:D1/*``) can address nodes from the environment.
    """
    return (
        f"dataset:{recipe['id']}/seed{recipe['seed']}"
        f"/reset{recipe.get('reset_interval')}"
    )


def build_dataset_node(params: Mapping):
    """Build one recipe's :class:`~repro.datasets.CsiDataset`.

    The dataset node's task function: ``params`` holds the ``dataset``
    recipe and the run's ``fidelity`` mapping.
    """
    from repro.datasets import build_dataset, dataset_spec

    recipe = params["dataset"]
    return build_dataset(
        dataset_spec(recipe["id"]),
        fidelity=Fidelity(**dict(params["fidelity"])),
        reset_interval=recipe.get("reset_interval"),
        seed=recipe["seed"],
    )


class DatasetNodes:
    """One run's dataset nodes: planned once per recipe, consumed by resolve.

    Parameters
    ----------
    fidelity:
        The run's fidelity mapping (one per run, so node ids omit it).
    built:
        Datasets an earlier phase of the same run already built, by node
        id (a campaign's zoo build hands its datasets to the rounds);
        consumers of these recipes get no node and no dependency edge.
    payloads:
        The pool run's payload store: consumers receive an interned
        reference instead of the object.  ``None`` (serial runs) passes
        datasets by reference.
    """

    def __init__(self, fidelity: Mapping, built=None, payloads=None) -> None:
        self.fidelity = dict(fidelity)
        #: node id -> built dataset (absorbed as nodes finish).
        self.built: dict = dict(built or {})
        self.payloads = payloads
        self._nodes: "dict[str, Task]" = {}

    @property
    def tasks(self) -> "list[Task]":
        """The planned node tasks, in plan order."""
        return list(self._nodes.values())

    def need(self, recipe: Mapping) -> "tuple[str, ...]":
        """The dependency edge a consumer of ``recipe`` takes.

        Plans the recipe's node on first use; ``()`` once it is built.
        """
        task_id = node_id(recipe)
        if task_id in self.built:
            return ()
        node = self._nodes.get(task_id)
        if node is None:
            self._nodes[task_id] = Task(
                task_id=task_id,
                fn=DATASET_FN,
                params={"dataset": dict(recipe), "fidelity": self.fidelity},
            )
        elif node.params["dataset"] != dict(recipe):
            raise ConfigurationError(
                f"recipes {node.params['dataset']} and {dict(recipe)} "
                f"share node id {task_id!r}"
            )
        return (task_id,)

    def absorb(self, task_id: str, result) -> bool:
        """``on_result`` hook: keep a finished node's dataset.

        Returns whether ``task_id`` was a node, so callers skip their own
        bookkeeping (cache puts, checkpoints) for it.
        """
        if task_id not in self._nodes:
            return False
        self.built[task_id] = result
        return True

    def get(self, recipe: Mapping):
        """The built dataset of ``recipe`` (coordinator side)."""
        return self.built[node_id(recipe)]

    def consumer(self, task: Task, fields: "tuple[str, ...]") -> Task:
        """``task`` rewired onto the nodes of its recipe ``fields``.

        The returned task depends on each recipe's node and resolves to
        ``task.params`` with every recipe field swapped for its dataset
        (``None`` fields stay ``None``).
        """
        params = task.params
        recipes = {
            name: params[name] for name in fields if params.get(name) is not None
        }
        deps = []
        for recipe in recipes.values():
            deps.extend(d for d in self.need(recipe) if d not in deps)

        def resolve(_dep_results: dict) -> dict:
            return {
                **params,
                **{name: self._ship(r) for name, r in recipes.items()},
            }

        return replace(task, deps=task.deps + tuple(deps), resolve=resolve)

    def _ship(self, recipe: Mapping):
        dataset = self.get(recipe)
        if self.payloads is None:
            return dataset
        return self.payloads.intern(dataset)
