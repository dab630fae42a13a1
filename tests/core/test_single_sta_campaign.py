"""One-STA campaigns: the single-link sounding loop as a network campaign.

A lone STA sounded round after round is the smallest
:class:`NetworkCampaign` — one profile built with ``sta_profile``.  These
tests pin that case end to end (802.11 and SplitBeam rounds, worker
invariance, goodput/occupancy accounting, the controller's saturated
action) plus the per-round payloads the campaign ships to
:func:`~repro.runtime.tasks.network_round`.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.config import SMOKE
from repro.core.network import (
    MCS_BACKOFF_DB,
    NetworkCampaign,
    _dot11_round_scheme,
    _entry_round_scheme,
    run_campaign,
)
from repro.core.training import train_splitbeam
from repro.core.zoo import ModelZoo
from repro.core.zoo_builder import train_zoo
from repro.datasets import dataset_spec
from repro.errors import ConfigurationError
from repro.phy.link import LinkConfig
from repro.phy.mcs import select_mcs
from repro.runtime import (
    CheckpointStore,
    NetworkCampaignSpec,
    mobility_episode,
    sta_profile,
)
from repro.runtime.payloads import PayloadRef, PayloadStore
from repro.runtime.tasks import network_round
from repro.standard.feedback import Dot11FeedbackConfig, bmr_bits

N_ROUNDS = 3


def one_sta_spec(name: str, sta: dict, episodes=()):
    return NetworkCampaignSpec(
        name=name,
        title=f"one STA: {name}",
        fidelity=asdict(SMOKE),
        stas=(sta,),
        n_rounds=N_ROUNDS,
        link={"snr_db": 20.0},
        episodes=episodes,
    )


def splitbeam_sta(max_ber: float = 0.5) -> dict:
    # A one-rung ladder: the deployed rung is also the safest one.
    return sta_profile(
        "sta0",
        "D1",
        compressions=(1 / 8,),
        max_ber=max_ber,
        samples_per_round=4,
        seed=3,
    )


def dot11_sta() -> dict:
    return sta_profile(
        "sta0", "D1", scheme="dot11", samples_per_round=4, seed=3
    )


def manifest(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return CheckpointStore(tmp_path_factory.mktemp("store"))


@pytest.fixture(scope="module")
def dot11_runs():
    spec = one_sta_spec("one-dot11", dot11_sta())
    serial = run_campaign(spec, n_workers=1)
    pooled = run_campaign(spec, n_workers=2)
    return spec, serial, pooled


@pytest.fixture(scope="module")
def splitbeam_runs(store):
    spec = one_sta_spec("one-splitbeam", splitbeam_sta())
    serial = run_campaign(spec, store=store, n_workers=1)
    pooled = run_campaign(spec, store=store, n_workers=2)
    return spec, serial, pooled


class TestDot11Sta:
    def test_runs_and_reports(self, dot11_runs):
        _, result, _ = dot11_runs
        row = result.sta("sta0")
        assert row["mode"] == "802.11"
        assert row["selection"] is None
        assert [r["round"] for r in row["rounds"]] == list(range(N_ROUNDS))
        assert all(r["scheme"] == "802.11" for r in row["rounds"])
        assert all(r["action"] == "n/a" for r in row["rounds"])
        assert 0.0 <= row["summary"]["mean_ber"] < 0.2
        assert len(result.rounds) == N_ROUNDS
        assert result.summary["mean_goodput_bps"] > 0
        assert 0.0 < result.summary["mean_occupancy"] < 1.0

    def test_workers_do_not_change_records(self, dot11_runs):
        _, serial, pooled = dot11_runs
        assert manifest(serial) == manifest(pooled)

    def test_reports_the_full_beamforming_report(self, dot11_runs):
        _, result, _ = dot11_runs
        catalog = dataset_spec("D1")
        bits = bmr_bits(
            Dot11FeedbackConfig(
                n_tx=catalog.n_tx,
                n_rx=catalog.n_rx,
                n_streams=1,
                bandwidth_mhz=catalog.bandwidth_mhz,
            )
        )
        row = result.sta("sta0")
        assert all(r["feedback_bits"] == bits for r in row["rounds"])
        assert all(r["feedback_bits_total"] == bits for r in result.rounds)


class TestSplitBeamSta:
    def test_zoo_alone_is_enough(self, splitbeam_runs, store):
        # The ladder's zoo entries carry model + quantizer width: every
        # round deploys the one rung and reports that rung's bits.
        spec, result, _ = splitbeam_runs
        ladder = train_zoo(NetworkCampaign(spec)._training_grid(), store=store)
        assert ladder.n_trained == 0
        (label,) = ladder.labels()
        entry = ladder.entry(label)
        row = result.sta("sta0")
        assert row["mode"] == "splitbeam"
        assert row["selection"]["selected"] == entry.model.label()
        for record in row["rounds"]:
            assert record["scheme"] == entry.model.label()
            assert record["feedback_bits"] == entry.feedback_bits

    def test_controller_trajectory_worker_invariant(self, splitbeam_runs):
        # The controller chain resolves round by round in the
        # coordinator, so a worker pool reproduces the serial trajectory
        # (actions and measurements) exactly.
        _, serial, pooled = splitbeam_runs
        assert pooled.zoo_trained == 0
        assert manifest(serial) == manifest(pooled)

    def test_goodput_accounting_positive(self, splitbeam_runs):
        _, result, _ = splitbeam_runs
        for round_row in result.rounds:
            assert round_row["feasible"]
            assert round_row["goodput_bps"] > 0
        for record in result.sta("sta0")["rounds"]:
            mcs = select_mcs(record["mean_sinr_db"], backoff_db=MCS_BACKOFF_DB)
            assert 0 <= mcs.index <= 9

    def test_splitbeam_lowers_occupancy(self, splitbeam_runs, dot11_runs):
        # Same STA, same CSI draws: only the feedback scheme differs.
        _, split, _ = splitbeam_runs
        _, dot11, _ = dot11_runs
        for split_round, dot11_round in zip(split.rounds, dot11.rounds):
            assert split_round["occupancy"] < dot11_round["occupancy"]
        assert (
            split.summary["mean_occupancy"] < dot11.summary["mean_occupancy"]
        )


class TestSaturation:
    def test_violation_at_the_only_rung_saturates(self, store):
        # γ admits the rung at selection (its validation BER at the
        # 20 dB link), then a -30 dB blockage from round 1 on makes every
        # round violate while the one-rung ladder is already at its
        # safest model: each is a hard QoS failure recorded as
        # "saturated", never as an in-band "hold".
        probe = one_sta_spec("probe", splitbeam_sta())
        ladder = train_zoo(
            NetworkCampaign(probe)._training_grid(), store=store
        )
        (label,) = ladder.labels()
        max_ber = ladder.entry(label).measured_ber + 0.05
        spec = one_sta_spec(
            "saturated",
            splitbeam_sta(max_ber=max_ber),
            episodes=(
                mobility_episode(0),
                mobility_episode(1, snr_offset_db=-30.0),
            ),
        )
        result = run_campaign(spec, store=store, n_workers=1)
        row = result.sta("sta0")
        assert row["mode"] == "splitbeam"
        calm, *blocked = row["rounds"]
        assert calm["ber"] <= max_ber
        assert calm["action"] != "saturated"
        assert all(r["ber"] > max_ber for r in blocked)
        assert all(r["action"] == "saturated" for r in blocked)
        assert result.summary["hard_qos_failures"] == len(blocked)
        assert result.summary["qos_violations"] == len(blocked)


@pytest.fixture(scope="module")
def trained_entry(smoke_dataset_2x2):
    trained = train_splitbeam(
        smoke_dataset_2x2, compression=1 / 8, fidelity=SMOKE, seed=0
    )
    return ModelZoo().register_trained(trained, measured_ber=0.02)


class TestRoundPayloads:
    def test_dot11_payload_ships_only_the_round_slice(
        self, smoke_dataset_2x2
    ):
        dataset = smoke_dataset_2x2
        indices = dataset.splits.test[:3]
        scheme = _dot11_round_scheme(dataset, indices)
        assert scheme["kind"] == "dot11"
        assert scheme["bits"] == bmr_bits(
            Dot11FeedbackConfig(
                n_tx=dataset.spec.n_tx,
                n_rx=dataset.spec.n_rx,
                n_streams=1,
                bandwidth_mhz=dataset.spec.bandwidth_mhz,
            )
        )
        np.testing.assert_array_equal(
            scheme["bf_true"], dataset.link_bf(indices)
        )
        assert scheme["bf_true"].shape[0] == 3

    def test_entry_payload_interns_model_and_quantizer(
        self, smoke_dataset_2x2, trained_entry
    ):
        dataset = smoke_dataset_2x2
        inline = _entry_round_scheme(
            dataset, dataset.splits.test[:2], trained_entry
        )
        assert inline["model"] is trained_entry.model
        assert inline["quantizer"].bits == trained_entry.quantizer_bits
        assert inline["bits"] == trained_entry.feedback_bits
        np.testing.assert_array_equal(
            inline["x"], dataset.model_arrays(dataset.splits.test[:2])[0]
        )
        test = dataset.splits.test
        with PayloadStore() as payloads:
            first, second = (
                _entry_round_scheme(
                    dataset, indices, trained_entry, payloads=payloads
                )
                for indices in (test[:2], test[2:4])
            )
            # Rounds on the same rung share one interned model/quantizer;
            # the per-round input rows travel inline.
            assert isinstance(first["model"], PayloadRef)
            assert first["model"] == second["model"]
            assert first["quantizer"] == second["quantizer"]
            assert payloads.get(first["model"]) is trained_entry.model
            assert not np.array_equal(first["x"], second["x"])

    def test_network_round_measures_a_dot11_round(self, smoke_dataset_2x2):
        dataset = smoke_dataset_2x2
        indices = dataset.splits.test[:2]
        params = {
            "channels": dataset.link_channels(indices),
            "link_config": LinkConfig(snr_db=17.5, seed=5),
            "scheme": _dot11_round_scheme(dataset, indices),
        }
        measured = network_round(params)
        assert measured["scheme"] == "802.11"
        assert measured["feedback_bits"] == params["scheme"]["bits"]
        assert measured["effective_snr_db"] == 17.5
        assert 0.0 <= measured["ber"] <= 0.5
        assert measured == network_round(params)  # pure and seeded

    def test_network_round_rejects_unknown_scheme(self):
        params = {
            "channels": np.zeros((1, 1, 4, 2, 2), dtype=complex),
            "link_config": LinkConfig(),
            "scheme": {"kind": "carrier-pigeon", "bits": 0},
        }
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            network_round(params)
