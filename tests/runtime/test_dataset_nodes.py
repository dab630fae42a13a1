"""Dataset nodes: one build per recipe and run, wherever consumers run.

The build counts are taken with a spy on ``repro.datasets.build_dataset``
that appends one line per call to a log file, so builds in forked pool
workers are counted too (pools fork after the spy is installed).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict

import pytest

import repro.datasets
from repro.config import SMOKE
from repro.core.network import NetworkCampaign
from repro.errors import ConfigurationError
from repro.runtime import (
    CheckpointStore,
    ExperimentEngine,
    NetworkCampaignSpec,
    ResultCache,
    get_scenario,
    sta_profile,
)
from repro.runtime.dataset_nodes import DATASET_FN, DatasetNodes, node_id
from repro.runtime.executor import Task
from repro.runtime.tasks import clear_memos

D1 = {"id": "D1", "seed": 7, "reset_interval": None}
D5 = {"id": "D5", "seed": 7, "reset_interval": None}


@pytest.fixture
def build_log(tmp_path, monkeypatch):
    """Count ``build_dataset`` calls, per (pid, recipe), across forks."""
    path = tmp_path / "builds.log"
    original = repro.datasets.build_dataset

    def spy(spec, fidelity, reset_interval=None, seed=0, **kwargs):
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    [os.getpid(), spec.dataset_id, seed, reset_interval]
                )
                + "\n"
            )
        return original(spec, fidelity, reset_interval, seed=seed, **kwargs)

    monkeypatch.setattr(repro.datasets, "build_dataset", spy)

    def read():
        if not path.exists():
            return []
        lines = path.read_text().splitlines()
        path.unlink()
        return [json.loads(line) for line in lines]

    return read


def _recipes(builds) -> Counter:
    return Counter(
        node_id({"id": i, "seed": s, "reset_interval": r})
        for _pid, i, s, r in builds
    )


def _campaign_spec() -> NetworkCampaignSpec:
    # D1 feeds the ladder (zoo phase) and two STAs' rounds; D5 serves
    # an 802.11 STA only, so the round phase must add its node.
    return NetworkCampaignSpec(
        name="nodes",
        title="dataset-node build counts",
        fidelity=asdict(SMOKE),
        stas=(
            sta_profile("a", "D1", compressions=(1 / 8,), max_ber=0.5,
                        samples_per_round=2, seed=0),
            sta_profile("b", "D1", scheme="dot11", samples_per_round=2,
                        seed=1),
            sta_profile("c", "D5", scheme="dot11", samples_per_round=2,
                        seed=2),
        ),
        n_rounds=2,
    )


class TestBuildCounts:
    def test_cold_campaign_builds_each_recipe_once_in_the_pool(
        self, tmp_path, build_log
    ):
        clear_memos()
        cache = ResultCache(tmp_path / "cache")
        store = CheckpointStore(tmp_path / "store")
        cold = NetworkCampaign(
            _campaign_spec(), cache=cache, store=store, n_workers=2,
            trace=False,
        ).run()
        builds = build_log()
        assert _recipes(builds) == {node_id(D1): 1, node_id(D5): 1}
        # No coordinator-side build: both nodes ran on pool workers.
        assert os.getpid() not in {pid for pid, *_ in builds}
        # Nodes count as neither rounds, trainings nor cache entries.
        assert cold.zoo_trained == 1
        assert cold.n_executed_rounds == 6 and cold.n_cached_rounds == 0
        assert len(cache) == 6

        clear_memos()
        warm = NetworkCampaign(
            _campaign_spec(), cache=cache, store=store, n_workers=2,
            trace=False,
        ).run()
        assert build_log() == []
        assert warm.n_executed_rounds == 0 and warm.zoo_trained == 0
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )

    def test_fig12_builds_each_recipe_once_on_two_workers(
        self, tmp_path, build_log
    ):
        scenario = get_scenario("fig12-ber", fidelity=SMOKE)
        recipes = {
            node_id(p[field])
            for p in scenario.points
            for field in ("dataset", "eval_dataset")
            if p.get(field) is not None
        }
        clear_memos()
        cache = ResultCache(tmp_path / "cache")
        run = ExperimentEngine(cache=cache, n_workers=2, trace=False).run(
            scenario
        )
        builds = build_log()
        assert _recipes(builds) == {recipe: 1 for recipe in recipes}
        assert len(recipes) == 2
        assert os.getpid() not in {pid for pid, *_ in builds}
        assert run.n_tasks == run.n_executed == len(cache) == 8


class TestDatasetNodes:
    def test_one_node_per_recipe_and_none_once_built(self):
        nodes = DatasetNodes(asdict(SMOKE))
        assert nodes.need(D1) == nodes.need(dict(D1)) == (node_id(D1),)
        assert [t.task_id for t in nodes.tasks] == [node_id(D1)]
        assert nodes.tasks[0].fn == DATASET_FN
        adopted = DatasetNodes(asdict(SMOKE), built={node_id(D1): "ds"})
        assert adopted.need(D1) == () and adopted.tasks == []
        assert adopted.get(D1) == "ds"

    def test_absorb_keeps_node_results_only(self):
        nodes = DatasetNodes(asdict(SMOKE))
        nodes.need(D1)
        assert nodes.absorb(node_id(D1), "ds") is True
        assert nodes.absorb("sta/round-0000", {"ber": 0.1}) is False
        assert nodes.built == {node_id(D1): "ds"}

    def test_consumer_swaps_recipes_for_datasets(self):
        nodes = DatasetNodes(asdict(SMOKE))
        task = Task(
            "p", "m:f", params={"dataset": D1, "eval_dataset": None, "x": 1}
        )
        wired = nodes.consumer(task, ("dataset", "eval_dataset"))
        assert wired.deps == (node_id(D1),)
        nodes.absorb(node_id(D1), "ds")
        assert wired.resolve({}) == {
            "dataset": "ds", "eval_dataset": None, "x": 1,
        }

    def test_id_collision_is_rejected(self):
        nodes = DatasetNodes(asdict(SMOKE))
        nodes.need(D1)
        with pytest.raises(ConfigurationError, match="share node id"):
            nodes.need({**D1, "extra": 1})
