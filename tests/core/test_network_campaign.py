"""Tests for the heterogeneous multi-STA network campaign."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.config import SMOKE
from repro.core.adaptive import AdaptiveCompressionController, QosProfile
from repro.core.network import (
    NetworkCampaign,
    campaign_round_spec,
    run_campaign,
)
from repro.core.zoo import NetworkConfiguration
from repro.core.zoo_builder import train_zoo
from repro.datasets import dataset_spec
from repro.errors import ConfigurationError
from repro.perf import profile_summary, reset_profiles
from repro.runtime import (
    CheckpointStore,
    NetworkCampaignSpec,
    ResultCache,
    RetryPolicy,
    mobility_episode,
    parse_plan,
    sta_profile,
)
from repro.runtime.tasks import clear_memos

SMOKE_FIDELITY = asdict(SMOKE)

N_STAS = 16
N_ROUNDS = 3


def sixteen_sta_spec() -> NetworkCampaignSpec:
    """The acceptance workload: 16 STAs, heterogeneous in every axis.

    Two bandwidths (D1 @ 20 MHz, D5 @ 40 MHz), SplitBeam ladders and
    802.11 baselines, one STA whose γ no trained model can meet (the
    802.11 fallback path), three device tiers, three Doppler spreads,
    and a mid-campaign mobility burst.
    """
    tiers = ({"sta_flops_per_s": 0.5e9}, {}, {"sta_flops_per_s": 8e9})
    stas = []
    for i in range(N_STAS):
        dataset_id = "D1" if i % 2 == 0 else "D5"
        if i % 4 == 3:
            stas.append(
                sta_profile(
                    f"sta{i:03d}",
                    dataset_id,
                    scheme="dot11",
                    cost=tiers[i % 3],
                    doppler_hz=(0.0, 2.0, 6.0)[i % 3],
                    samples_per_round=2,
                    seed=i,
                )
            )
            continue
        stas.append(
            sta_profile(
                f"sta{i:03d}",
                dataset_id,
                compressions=(1 / 16, 1 / 8) if dataset_id == "D1" else (1 / 8,),
                # SMOKE-fidelity models are rough; γ=0.5 keeps them
                # selectable except for the deliberately impossible STA.
                max_ber=1e-9 if i == 5 else 0.5,
                mu=0.2 + 0.05 * i,
                cost=tiers[i % 3],
                doppler_hz=(0.0, 2.0, 6.0)[i % 3],
                samples_per_round=2,
                seed=i,
            )
        )
    return NetworkCampaignSpec(
        name="test-16sta",
        title="16 heterogeneous STAs",
        fidelity=SMOKE_FIDELITY,
        stas=tuple(stas),
        n_rounds=N_ROUNDS,
        episodes=(
            mobility_episode(0),
            mobility_episode(2, doppler_scale=25.0, snr_offset_db=-6.0),
        ),
    )


@pytest.fixture(scope="module")
def campaign_runs(tmp_path_factory):
    """Cold 1-worker, cold 4-worker, and warm re-runs of the 16-STA spec."""
    root = tmp_path_factory.mktemp("campaign")
    spec = sixteen_sta_spec()
    store = CheckpointStore(root / "store")
    cache_serial = ResultCache(root / "cache-serial")
    cache_pool = ResultCache(root / "cache-pool")

    clear_memos()
    cold_serial = NetworkCampaign(
        spec, cache=cache_serial, store=store, n_workers=1
    ).run()
    clear_memos()
    cold_pool = NetworkCampaign(
        spec, cache=cache_pool, store=store, n_workers=4
    ).run()
    clear_memos()
    reset_profiles()
    warm = NetworkCampaign(
        spec, cache=cache_serial, store=store, n_workers=1
    ).run()
    warm_profiles = {entry.name for entry in profile_summary()}
    return {
        "spec": spec,
        "store": store,
        "cold_serial": cold_serial,
        "cold_pool": cold_pool,
        "warm": warm,
        "warm_profiles": warm_profiles,
    }


class TestDeterminism:
    def test_worker_count_does_not_change_a_byte(self, campaign_runs):
        serial = json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        pooled = json.dumps(
            campaign_runs["cold_pool"].to_dict(), sort_keys=True
        )
        assert serial == pooled

    def test_warm_rerun_is_byte_identical(self, campaign_runs):
        cold = json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        warm = json.dumps(campaign_runs["warm"].to_dict(), sort_keys=True)
        assert cold == warm

    def test_warm_rerun_executes_zero_link_simulations(self, campaign_runs):
        warm = campaign_runs["warm"]
        assert warm.n_executed_rounds == 0
        assert warm.n_cached_rounds == N_STAS * N_ROUNDS
        assert warm.zoo_trained == 0
        # The @profiled registry confirms no link simulator ran — and no
        # CSI dataset was even sampled (rounds replay from the store;
        # datasets build lazily only for rounds that execute).
        assert "link.measure_ber" not in campaign_runs["warm_profiles"]
        assert "sampler.collect_session" not in campaign_runs["warm_profiles"]

    def test_cold_runs_executed_everything(self, campaign_runs):
        cold = campaign_runs["cold_serial"]
        assert cold.n_executed_rounds == N_STAS * N_ROUNDS
        assert cold.n_cached_rounds == 0
        assert cold.zoo_trained == 3  # D1 K=1/16, D1 K=1/8, D5 K=1/8

    def test_second_cold_run_loads_zoo_from_store(self, campaign_runs):
        assert campaign_runs["cold_pool"].zoo_trained == 0
        assert campaign_runs["cold_pool"].zoo_cached == 3


class TestHeterogeneity:
    def test_modes_cover_all_three_paths(self, campaign_runs):
        modes = campaign_runs["cold_serial"].summary["modes"]
        assert modes["splitbeam"] >= 8
        assert modes["802.11"] == 4  # every fourth STA
        assert modes["802.11-fallback"] == 1  # the γ=1e-9 STA

    def test_fallback_sta_records_selection_and_uses_dot11(
        self, campaign_runs
    ):
        row = campaign_runs["cold_serial"].sta("sta005")
        assert row["mode"] == "802.11-fallback"
        assert row["selection"]["selected"] is None
        assert row["selection"]["rejected"]  # every rung explained
        assert all(r["scheme"] == "802.11" for r in row["rounds"])
        assert all(r["action"] == "n/a" for r in row["rounds"])

    def test_splitbeam_sta_deploys_its_ladder(self, campaign_runs):
        row = campaign_runs["cold_serial"].sta("sta000")
        assert row["mode"] == "splitbeam"
        assert row["selection"]["selected"] is not None
        assert all(r["scheme"] != "802.11" for r in row["rounds"])
        # SplitBeam reports are far smaller than the 802.11 BMR.
        dot11_row = campaign_runs["cold_serial"].sta("sta003")
        assert (
            row["summary"]["mean_feedback_bits"]
            < dot11_row["summary"]["mean_feedback_bits"]
        )

    def test_round_zero_deploys_the_selected_model(self, campaign_runs):
        # The Fig. 1 flow: the Eq. (7) winner is what the STA deploys;
        # the controller adapts *from* it rather than from an unvetted
        # safest rung that selection may have rejected on delay.
        for row in campaign_runs["cold_serial"].stas:
            if row["mode"] == "splitbeam":
                assert (
                    row["rounds"][0]["scheme"]
                    == row["selection"]["selected"]
                )

    def test_mobility_burst_degrades_operating_snr(self, campaign_runs):
        # sta001 (2 Hz Doppler): the round-2 episode scales Doppler by
        # 25x and subtracts 6 dB, so its effective SNR must collapse.
        row = campaign_runs["cold_serial"].sta("sta001")
        calm = row["rounds"][0]["effective_snr_db"]
        burst = row["rounds"][2]["effective_snr_db"]
        assert burst < calm - 6.0

    def test_static_sta_unaffected_by_doppler_scaling(self, campaign_runs):
        # sta000 has zero Doppler: scaling 0 by 25 is still 0, so only
        # the -6 dB offset moves its operating point.
        row = campaign_runs["cold_serial"].sta("sta000")
        calm = row["rounds"][0]["effective_snr_db"]
        burst = row["rounds"][2]["effective_snr_db"]
        assert burst == pytest.approx(calm - 6.0, abs=0.2)

    def test_every_sta_reports_every_round(self, campaign_runs):
        for row in campaign_runs["cold_serial"].stas:
            assert [r["round"] for r in row["rounds"]] == list(range(N_ROUNDS))

    def test_rounds_replay_through_a_fresh_controller(self, campaign_runs):
        # The Fig. 1 online loop: each round deploys the controller's
        # current rung, then its measured BER drives the next action.
        # Replaying the recorded BERs through a fresh controller must
        # reproduce the manifest's schemes, bits and actions exactly.
        spec = campaign_runs["spec"]
        ladder = train_zoo(
            NetworkCampaign(spec)._training_grid(),
            store=campaign_runs["store"],
        )
        assert ladder.n_trained == 0
        zoo = ladder.zoo()
        replayed = 0
        for sta, row in zip(spec.stas, campaign_runs["cold_serial"].stas):
            if row["mode"] != "splitbeam":
                continue
            catalog = dataset_spec(sta["dataset"]["id"])
            entries = zoo.candidates(
                NetworkConfiguration(
                    n_tx=catalog.n_tx,
                    n_rx=catalog.n_rx,
                    bandwidth_mhz=catalog.bandwidth_mhz,
                )
            )
            assert len(entries) == len(sta["scheme"]["compressions"])
            (selected,) = [
                entry
                for entry in entries
                if entry.model.label() == row["selection"]["selected"]
            ]
            controller = AdaptiveCompressionController(
                entries, QosProfile(**sta["qos"]), initial=selected
            )
            actions = []
            for record in row["rounds"]:
                assert record["scheme"] == controller.current.model.label()
                assert (
                    record["feedback_bits"]
                    == controller.current.feedback_bits
                )
                controller.observe(record["ber"])
                actions.append(controller.history[-1][1])
            assert actions == [record["action"] for record in row["rounds"]]
            replayed += 1
        assert replayed == campaign_runs["cold_serial"].summary["modes"][
            "splitbeam"
        ]


class TestAggregation:
    def test_round_rows_sum_sta_feedback_bits(self, campaign_runs):
        result = campaign_runs["cold_serial"]
        for round_row in result.rounds:
            expected = sum(
                row["rounds"][round_row["round"]]["feedback_bits"]
                for row in result.stas
            )
            assert round_row["feedback_bits_total"] == expected

    def test_occupancy_ratio_at_least_occupancy(self, campaign_runs):
        for round_row in campaign_runs["cold_serial"].rounds:
            assert round_row["occupancy_ratio"] >= round_row["occupancy"]
            assert 0.0 < round_row["occupancy"] <= 1.0

    def test_infeasible_rounds_report_zero_goodput(self, campaign_runs):
        for round_row in campaign_runs["cold_serial"].rounds:
            if not round_row["feasible"]:
                assert round_row["goodput_bps"] == 0.0
            else:
                assert round_row["goodput_bps"] > 0.0

    def test_summary_counts_are_consistent(self, campaign_runs):
        result = campaign_runs["cold_serial"]
        assert result.summary["n_stas"] == N_STAS
        assert result.summary["n_rounds"] == N_ROUNDS
        assert sum(result.summary["modes"].values()) == N_STAS
        assert result.summary["hard_qos_failures"] == sum(
            row["summary"]["saturated"] for row in result.stas
        )

    def test_sixteen_stas_tax_the_interval(self, campaign_runs):
        # 16 STAs' sounding within 10 ms eats a substantial airtime
        # fraction even with compressed reports (~26% here) — the
        # paper's scaling argument in campaign form.
        assert campaign_runs["cold_serial"].summary["max_occupancy_ratio"] > 0.2

    def test_manifest_round_trips_through_json(self, campaign_runs, tmp_path):
        path = tmp_path / "manifest.json"
        campaign_runs["cold_serial"].write_json(path)
        payload = json.loads(path.read_text())
        assert payload == campaign_runs["cold_serial"].to_dict()

    def test_unknown_sta_rejected(self, campaign_runs):
        with pytest.raises(ConfigurationError):
            campaign_runs["cold_serial"].sta("nope")


class TestCacheSemantics:
    def test_longer_campaign_reuses_shorter_prefix(self, tmp_path):
        # Round keys exclude n_rounds, so extending a campaign re-uses
        # every cached round and only the new tail executes.
        def spec(n_rounds):
            return NetworkCampaignSpec(
                name="prefix-test",
                title="prefix",
                fidelity=SMOKE_FIDELITY,
                stas=(
                    sta_profile(
                        "a",
                        "D1",
                        compressions=(1 / 8,),
                        max_ber=0.5,
                        samples_per_round=2,
                        seed=0,
                    ),
                    sta_profile(
                        "b", "D1", scheme="dot11", samples_per_round=2, seed=1
                    ),
                ),
                n_rounds=n_rounds,
            )

        cache = ResultCache(tmp_path / "cache")
        store = CheckpointStore(tmp_path / "store")
        clear_memos()
        short = NetworkCampaign(spec(2), cache=cache, store=store).run()
        assert short.n_executed_rounds == 4
        longer = NetworkCampaign(spec(3), cache=cache, store=store).run()
        assert longer.n_cached_rounds == 4
        assert longer.n_executed_rounds == 2
        # The shared prefix is bit-identical between the two runs.
        for name in ("a", "b"):
            assert longer.sta(name)["rounds"][:2] == short.sta(name)["rounds"]

    def test_round_spec_excludes_cosmetic_names(self):
        spec = sixteen_sta_spec()
        payload = campaign_round_spec(spec, spec.stas[0], 1)
        assert "name" not in payload["sta"]
        assert "name" not in payload["campaign"]["fidelity"]
        assert payload["round"] == 1
        # Canonically JSON-able (the cache-key requirement).
        json.dumps(payload, sort_keys=True)

    def test_round_spec_ignores_future_episodes(self):
        # A round's measurement never consults episodes that start
        # later, so neither may its cache key: a campaign whose episode
        # schedule shifted with its length (e.g. mobility-episodes
        # placing its burst at n_rounds // 3) still shares the calm
        # prefix with the shorter run.
        def spec(episodes):
            return NetworkCampaignSpec(
                name="episode-key",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta_profile("a", "D1"),),
                n_rounds=8,
                episodes=episodes,
            )

        short = spec((mobility_episode(0), mobility_episode(4, doppler_scale=9.0)))
        longer = spec((mobility_episode(0), mobility_episode(5, doppler_scale=9.0)))
        for round_index in range(4):  # before either burst: shared keys
            assert campaign_round_spec(
                short, short.stas[0], round_index
            ) == campaign_round_spec(longer, longer.stas[0], round_index)
        # From the earlier burst onward the environments diverge.
        assert campaign_round_spec(
            short, short.stas[0], 4
        ) != campaign_round_spec(longer, longer.stas[0], 4)


class TestSpecValidation:
    def test_duplicate_sta_names_rejected(self):
        sta = sta_profile("dup", "D1")
        with pytest.raises(ConfigurationError, match="duplicate"):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta, dict(sta)),
                n_rounds=1,
            )

    def test_unordered_episodes_rejected(self):
        with pytest.raises(ConfigurationError, match="ordered"):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta_profile("a", "D1"),),
                n_rounds=2,
                episodes=(mobility_episode(1), mobility_episode(0)),
            )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            sta_profile("a", "D1", scheme="carrier-pigeon")

    def test_empty_ladder_rejected(self):
        with pytest.raises(ConfigurationError, match="compression"):
            sta_profile("a", "D1", compressions=())

    def test_zero_samples_per_round_rejected(self):
        with pytest.raises(ConfigurationError, match="samples_per_round"):
            sta_profile("a", "D1", samples_per_round=0)

    def test_no_stas_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(),
                n_rounds=1,
            )

    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta_profile("a", "D1"),),
                n_rounds=0,
            )

    def test_override_kwargs_require_named_campaign(self):
        spec = NetworkCampaignSpec(
            name="x",
            title="x",
            fidelity=SMOKE_FIDELITY,
            stas=(sta_profile("a", "D1"),),
            n_rounds=1,
        )
        with pytest.raises(ConfigurationError, match="named campaigns"):
            run_campaign(spec, n_stas=4)


class TestChaosCampaign:
    """The robustness acceptance gate: chaos costs retries, never bytes."""

    @pytest.fixture(scope="class")
    def chaos_run(self, campaign_runs, tmp_path_factory):
        # One worker hard-crash, a 50% first-attempt error rate on the
        # middle round, a scheduling delay, and torn writes on half the
        # cache entries — all seeded, all recoverable within the
        # default retry budget.
        plan = parse_plan(
            "crash,sta004/round-0000,count=1;"
            "error,*/round-0001,rate=0.5,count=1;"
            "delay,sta002/round-0002,count=1,delay_s=0.01;"
            "torn,cache:*,rate=0.5"
        )
        cache = ResultCache(tmp_path_factory.mktemp("chaos") / "cache")
        clear_memos()
        result = NetworkCampaign(
            campaign_runs["spec"],
            cache=cache,
            store=campaign_runs["store"],
            n_workers=2,
            faults=plan,
        ).run()
        return {"result": result, "cache": cache}

    def test_chaotic_run_is_byte_identical_to_clean(
        self, campaign_runs, chaos_run
    ):
        clean = json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        chaotic = json.dumps(
            chaos_run["result"].to_dict(), sort_keys=True
        )
        assert chaotic == clean

    def test_chaos_is_visible_in_health_not_manifest(self, chaos_run):
        result = chaos_run["result"]
        executor = result.health["executor"]
        assert executor["worker_crashes"] >= 1
        assert executor["pool_rebuilds"] >= 1
        assert executor["task_errors"] >= 1
        assert executor["injected_faults"] >= 1
        assert executor["serial_fallbacks"] == 0
        assert executor["failed"] == []
        assert "health" not in result.to_dict()
        assert (
            result.to_dict(include_health=True)["health"] == result.health
        )

    def test_warm_rerun_quarantines_torn_entries_and_matches(
        self, campaign_runs, chaos_run
    ):
        # The chaotic run committed torn cache entries. A warm, fault-
        # free re-run must quarantine them, recompute those rounds, and
        # still produce the clean bytes.
        clear_memos()
        warm = NetworkCampaign(
            campaign_runs["spec"],
            cache=chaos_run["cache"],
            store=campaign_runs["store"],
            n_workers=1,
        ).run()
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        assert warm.health["cache"]["quarantined"] >= 1
        # Every quarantined entry forces a recompute; chained STAs also
        # recompute the tail of rounds behind a torn one.
        assert warm.n_executed_rounds >= warm.health["cache"]["quarantined"]
        assert (
            warm.n_executed_rounds + warm.n_cached_rounds
            == N_STAS * N_ROUNDS
        )


class TestDatasetNodeChaos:
    """Chaos inside dataset nodes costs retries, never bytes."""

    def _run(self, campaign_runs, tmp_path, plan, n_workers, store=None):
        clear_memos()
        return NetworkCampaign(
            campaign_runs["spec"],
            cache=ResultCache(tmp_path / "cache"),
            store=campaign_runs["store"] if store is None else store,
            n_workers=n_workers,
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            faults=parse_plan(plan),
        ).run()

    def _clean(self, campaign_runs) -> str:
        return json.dumps(campaign_runs["cold_serial"].to_dict(), sort_keys=True)

    def test_worker_crash_inside_a_node_is_byte_identical(
        self, campaign_runs, tmp_path
    ):
        # The ladders are checkpointed, so both recipes are round-phase
        # nodes; the D5 node kills its pool worker once.
        result = self._run(
            campaign_runs, tmp_path, "crash,dataset:D5/*,count=1", n_workers=2
        )
        assert json.dumps(result.to_dict(), sort_keys=True) == self._clean(
            campaign_runs
        )
        executor = result.health["executor"]
        assert executor["worker_crashes"] == 1
        assert executor["pool_rebuilds"] == 1
        assert executor["injected_faults"] == 1
        assert executor["failed"] == [] and executor["skipped"] == []
        assert result.n_executed_rounds == N_STAS * N_ROUNDS

    def test_injected_error_on_zoo_nodes_is_byte_identical(
        self, campaign_runs, tmp_path
    ):
        # A fresh store: the zoo build plans both recipes' nodes, each
        # fails its first attempt, and the rounds reuse what they built.
        result = self._run(
            campaign_runs,
            tmp_path,
            "error,dataset:*,count=1",
            n_workers=1,
            store=CheckpointStore(tmp_path / "store"),
        )
        assert json.dumps(result.to_dict(), sort_keys=True) == self._clean(
            campaign_runs
        )
        zoo = result.health["zoo"]["executor"]
        assert zoo["task_errors"] == zoo["injected_faults"] == 2
        assert zoo["retries"] == 2
        assert result.health["executor"]["task_errors"] == 0
        assert result.zoo_trained == 3

    def test_failed_node_degrades_only_its_recipes_stas(
        self, campaign_runs, tmp_path
    ):
        result = self._run(
            campaign_runs, tmp_path, "error,dataset:D5/*,count=99", n_workers=1
        )
        d5 = [f"sta{i:03d}" for i in range(N_STAS) if i % 2 == 1]
        assert result.summary["degraded_stas"] == d5
        executor = result.health["executor"]
        assert [row["task"] for row in executor["failed"]] == [
            "dataset:D5/seed7/resetNone"
        ]
        assert executor["skipped"] == sorted(
            f"{name}/round-{r:04d}" for name in d5 for r in range(N_ROUNDS)
        )
        for name in d5:
            degraded = result.sta(name)["degraded"]
            assert degraded["skipped_rounds"] == list(range(N_ROUNDS))
            assert degraded["failed_rounds"] == []
        clean = campaign_runs["cold_serial"]
        for i in range(0, N_STAS, 2):
            name = f"sta{i:03d}"
            assert result.sta(name) == clean.sta(name)
        assert result.n_executed_rounds == (N_STAS - len(d5)) * N_ROUNDS


class TestGracefulDegradation:
    """A STA whose round exhausts retries degrades alone."""

    def _spec(self):
        return NetworkCampaignSpec(
            name="degrade-test",
            title="degradation",
            fidelity=SMOKE_FIDELITY,
            stas=(
                sta_profile(
                    "a",
                    "D1",
                    compressions=(1 / 8,),
                    max_ber=0.5,
                    samples_per_round=2,
                    seed=0,
                ),
                sta_profile(
                    "b", "D1", scheme="dot11", samples_per_round=2, seed=1
                ),
            ),
            n_rounds=3,
        )

    @pytest.fixture(scope="class")
    def degraded_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("degrade")
        spec = self._spec()
        store = CheckpointStore(root / "store")
        clear_memos()
        clean = NetworkCampaign(
            spec, cache=ResultCache(root / "cache-clean"), store=store
        ).run()
        # STA "a" is chained (splitbeam): its round 1 fails beyond the
        # retry budget, so round 2 (which depends on it) is skipped.
        plan = parse_plan("error,a/round-0001,count=99")
        clear_memos()
        degraded = NetworkCampaign(
            spec,
            cache=ResultCache(root / "cache-chaos"),
            store=store,
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            faults=plan,
        ).run()
        return {"clean": clean, "degraded": degraded}

    def test_campaign_completes_with_partial_coverage(self, degraded_runs):
        result = degraded_runs["degraded"]
        assert result.summary["degraded_stas"] == ["a"]
        assert result.summary["partial_coverage"] is True
        assert degraded_runs["clean"].summary["degraded_stas"] == []
        assert degraded_runs["clean"].summary["partial_coverage"] is False

    def test_degraded_sta_reports_failed_and_skipped_rounds(
        self, degraded_runs
    ):
        row = degraded_runs["degraded"].sta("a")
        assert [r["round"] for r in row["rounds"]] == [0]
        assert row["degraded"]["n_reported"] == 1
        assert [f["round"] for f in row["degraded"]["failed_rounds"]] == [1]
        assert "InjectedFaultError" in (
            row["degraded"]["failed_rounds"][0]["error"]
        )
        assert row["degraded"]["skipped_rounds"] == [2]

    def test_healthy_sta_is_untouched(self, degraded_runs):
        assert degraded_runs["degraded"].sta("b") == degraded_runs[
            "clean"
        ].sta("b")

    def test_accounting_reflects_completed_rounds_only(self, degraded_runs):
        result = degraded_runs["degraded"]
        assert result.n_executed_rounds == 4  # 6 tasks - 1 failed - 1 skipped
        executor = result.health["executor"]
        assert [row["task"] for row in executor["failed"]] == [
            "a/round-0001"
        ]
        assert executor["skipped"] == ["a/round-0002"]

    def test_aggregates_cover_reporting_stas_only(self, degraded_runs):
        result = degraded_runs["degraded"]
        # Rounds 1 and 2 aggregate over STA "b" alone.
        by_round = {row["round"]: row for row in result.rounds}
        assert set(by_round) == {0, 1, 2}
        b_rounds = {r["round"]: r for r in result.sta("b")["rounds"]}
        for idx in (1, 2):
            assert (
                by_round[idx]["feedback_bits_total"]
                == b_rounds[idx]["feedback_bits"]
            )

    def test_degraded_manifest_round_trips_through_json(
        self, degraded_runs, tmp_path
    ):
        path = tmp_path / "degraded.json"
        degraded_runs["degraded"].write_json(path)
        assert json.loads(path.read_text()) == degraded_runs[
            "degraded"
        ].to_dict()


class TestPresetExecution:
    def test_heterogeneous_qos_preset_runs_by_name(self, tmp_path):
        clear_memos()
        result = run_campaign(
            "heterogeneous-qos",
            fidelity=SMOKE,
            cache=ResultCache(tmp_path / "cache"),
            store=CheckpointStore(tmp_path / "store"),
            n_stas=3,
            n_rounds=2,
        )
        assert result.campaign == "heterogeneous-qos"
        assert result.summary["n_stas"] == 3
        # The strictest-γ STA cannot be served by SMOKE-grade models.
        assert result.summary["modes"].get("802.11-fallback", 0) >= 1
        assert result.n_executed_rounds == 6
