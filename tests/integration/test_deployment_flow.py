"""Integration: the full deployment flow of Fig. 1.

Offline: train a ladder, measure it, publish a zoo, persist it to disk.
Online: reload the zoo (a different process in reality), let the QoS
selector pick a model for the announced NDP configuration, and run a
one-STA network campaign with the adaptive controller — asserting the
pieces agree with each other (same bits, same models, consistent costs).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.config import SMOKE
from repro.core.adaptive import QosProfile, select_model
from repro.core.costs import StaCostModel
from repro.core.network import NetworkCampaign, run_campaign
from repro.core.training import train_splitbeam
from repro.core.zoo import ModelZoo, NetworkConfiguration
from repro.core.zoo_builder import train_zoo
from repro.runtime import CheckpointStore, NetworkCampaignSpec, sta_profile


@pytest.fixture(scope="module")
def deployment(smoke_dataset_2x2, tmp_path_factory):
    """Offline phase: ladder -> zoo -> disk -> reload."""
    dataset = smoke_dataset_2x2
    zoo = ModelZoo()
    for k in (1 / 8, 1 / 4):
        zoo.register_trained(
            train_splitbeam(dataset, compression=k, fidelity=SMOKE, seed=0)
        )
    directory = str(tmp_path_factory.mktemp("zoo"))
    zoo.save(directory)
    return dataset, ModelZoo.load(directory)


@pytest.fixture(scope="module")
def one_sta_campaign(tmp_path_factory):
    """Online phase: a one-STA campaign, cold and then warm from a store.

    The warm run trains nothing — its ladder is the zoo reloaded from
    the checkpoint store, as an STA would receive it from the AP.
    """
    spec = NetworkCampaignSpec(
        name="deployment-flow",
        title="One STA deploying a reloaded SplitBeam ladder",
        fidelity=asdict(SMOKE),
        stas=(
            sta_profile(
                "sta0",
                "D1",
                compressions=(1 / 8, 1 / 4),
                max_ber=0.5,
                samples_per_round=4,
                seed=9,
            ),
        ),
        n_rounds=2,
        link={"snr_db": 20.0},
    )
    store = CheckpointStore(tmp_path_factory.mktemp("store"))
    cold = run_campaign(spec, store=store, n_workers=1)
    warm = run_campaign(spec, store=store, n_workers=1)
    return spec, store, cold, warm


class TestDeploymentFlow:
    def test_reloaded_zoo_serves_ndp_lookup(self, deployment):
        dataset, zoo = deployment
        config = NetworkConfiguration(
            n_tx=dataset.spec.n_tx,
            n_rx=dataset.spec.n_rx,
            bandwidth_mhz=dataset.spec.bandwidth_mhz,
        )
        entry = zoo.on_ndp(config)
        assert entry.model.input_dim == dataset.input_dim
        assert len(zoo.candidates(config)) == 2

    def test_selector_and_controller_agree_on_candidates(self, deployment):
        dataset, zoo = deployment
        config = NetworkConfiguration(
            n_tx=dataset.spec.n_tx,
            n_rx=dataset.spec.n_rx,
            bandwidth_mhz=dataset.spec.bandwidth_mhz,
        )
        qos = QosProfile(max_ber=0.9, max_delay_s=1.0)
        outcome = select_model(zoo, config, qos, StaCostModel())
        assert not outcome.fell_back
        # Permissive QoS -> the objective picks the cheapest rung, which
        # is the most compressed candidate.
        assert outcome.selected.compression == min(
            e.compression for e in zoo.candidates(config)
        )

    def test_campaign_runs_with_reloaded_zoo(self, one_sta_campaign):
        spec, store, cold, warm = one_sta_campaign
        assert cold.zoo_trained == 2
        assert warm.zoo_trained == 0
        assert warm.zoo_cached == 2
        ladder = train_zoo(NetworkCampaign(spec)._training_grid(), store=store)
        assert ladder.n_trained == 0
        bits_by_label = {
            entry.model.label(): entry.feedback_bits
            for entry in map(ladder.entry, ladder.labels())
        }
        row = warm.sta("sta0")
        assert row["mode"] == "splitbeam"
        assert len(row["rounds"]) == 2
        # Every round deploys a ladder rung and reports that rung's bits.
        for record in row["rounds"]:
            assert record["scheme"] in bits_by_label
            assert record["feedback_bits"] == bits_by_label[record["scheme"]]
        # Reloaded models reproduce the freshly trained ones exactly.
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )
