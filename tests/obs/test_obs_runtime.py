"""Acceptance tests: end-to-end tracing of engine runs and campaigns.

The issue's acceptance criteria live here at smoke scale:

- a 4-worker engine run and a 16-STA campaign, traced, produce result
  artifacts **byte-identical** to their untraced runs;
- the Chrome trace-event JSON contains coordinator spans *and* a
  worker-recorded task span for every executed task;
- ``python -m repro.obs report`` (``render_report``) names the
  critical path;
- span trees are structurally deterministic (same ids across runs and
  across worker counts);
- ``$REPRO_RUNTIME_TRACE`` activates tracing and writes all three
  artifacts;
- worker ``@profiled`` registries merge into the coordinator's.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

from repro.config import SMOKE
from repro.core.network import NetworkCampaign
from repro.obs import (
    CHROME_NAME,
    JSONL_NAME,
    SUMMARY_NAME,
    load_trace,
    render_report,
    validate_events,
)
from repro.perf import profile_summary, reset_profiles
from repro.runtime import (
    CheckpointStore,
    ExperimentEngine,
    NetworkCampaignSpec,
    ResultCache,
    Scenario,
    dot11,
    fidelity_to_dict,
    ideal,
    point,
    splitbeam,
    sta_profile,
)
from repro.runtime.tasks import clear_memos

N_WORKERS = 4
N_STAS = 16
N_ROUNDS = 2

#: Every engine point and campaign STA here uses the D1 preset recipe,
#: so each cold run has exactly one dataset node.
D1_NODES = {"dataset:D1/seed7/resetNone"}


def _scenario() -> Scenario:
    points = [
        point(
            f"SB seed {seed}",
            "D1",
            splitbeam(1 / 8, seed=seed),
            link={"snr_db": 20.0},
            ber_samples=6,
        )
        for seed in range(4)
    ]
    points.append(
        point("802.11", "D1", dot11(), link={"snr_db": 20.0}, ber_samples=6)
    )
    points.append(
        point("ideal", "D1", ideal(), link={"snr_db": 20.0}, ber_samples=6)
    )
    return Scenario(
        name="obs-acceptance",
        title="tracing acceptance scenario",
        fidelity=fidelity_to_dict(SMOKE),
        points=tuple(points),
    )


def _sixteen_sta_spec() -> NetworkCampaignSpec:
    stas = []
    for i in range(N_STAS):
        if i % 4 == 3:
            stas.append(
                sta_profile(
                    f"sta{i:03d}",
                    "D1",
                    scheme="dot11",
                    samples_per_round=2,
                    seed=i % 2,
                )
            )
        else:
            stas.append(
                sta_profile(
                    f"sta{i:03d}",
                    "D1",
                    compressions=(1 / 8,),
                    max_ber=0.5,
                    samples_per_round=2,
                    seed=i % 2,
                )
            )
    return NetworkCampaignSpec(
        name="obs-16sta",
        title="16-STA tracing acceptance campaign",
        fidelity=asdict(SMOKE),
        stas=tuple(stas),
        n_rounds=N_ROUNDS,
    )


def _task_events(chrome: dict) -> "list[dict]":
    return [
        event
        for event in chrome["traceEvents"]
        if event.get("ph") == "X" and event.get("cat") == "task"
    ]


@pytest.fixture(scope="module")
def engine_runs(tmp_path_factory):
    """Untraced serial + traced 4-worker + traced serial runs."""
    root = tmp_path_factory.mktemp("obs-engine")
    scenario = _scenario()

    def run(tag, n_workers, trace):
        clear_memos()
        cache = ResultCache(root / f"cache-{tag}")
        return ExperimentEngine(
            cache=cache, n_workers=n_workers, trace=trace
        ).run(scenario)

    untraced = run("untraced", N_WORKERS, False)
    reset_profiles()
    pooled = run("pooled", N_WORKERS, str(root / "trace-pooled"))
    pooled_profiles = {entry.name: entry for entry in profile_summary()}
    serial = run("serial", 1, str(root / "trace-serial"))
    repeat = run("repeat", N_WORKERS, str(root / "trace-repeat"))
    return {
        "scenario": scenario,
        "untraced": untraced,
        "pooled": pooled,
        "pooled_profiles": pooled_profiles,
        "serial": serial,
        "repeat": repeat,
    }


class TestEngineAcceptance:
    def test_traced_artifact_is_byte_identical(self, engine_runs):
        untraced = json.dumps(
            engine_runs["untraced"].to_dict(), sort_keys=True
        )
        for tag in ("pooled", "serial", "repeat"):
            traced = json.dumps(engine_runs[tag].to_dict(), sort_keys=True)
            assert traced == untraced, tag

    def test_trace_dir_reported_and_artifacts_written(self, engine_runs):
        assert engine_runs["untraced"].trace_dir is None
        trace_dir = engine_runs["pooled"].trace_dir
        assert sorted(os.listdir(trace_dir)) == [
            CHROME_NAME, SUMMARY_NAME, JSONL_NAME,
        ]

    def test_trace_validates_against_schema(self, engine_runs):
        events = load_trace(engine_runs["pooled"].trace_dir)
        assert validate_events(events) == []

    def test_chrome_trace_has_worker_span_per_task_plus_coordinator(
        self, engine_runs
    ):
        with open(
            os.path.join(engine_runs["pooled"].trace_dir, CHROME_NAME)
        ) as handle:
            chrome = json.load(handle)
        tasks = _task_events(chrome)
        run = engine_runs["pooled"]
        labels = {event["args"]["task"] for event in tasks}
        expected = {
            f"{index:04d}:{p['label']}"
            for index, p in enumerate(engine_runs["scenario"].points)
        }
        # (b) a span for every executed task and dataset node...
        assert labels == expected | D1_NODES
        assert len(tasks) == run.n_executed + len(D1_NODES)
        # ...recorded by worker processes (lane != coordinator's 0)...
        assert all(event["pid"] != 0 for event in tasks)
        # ...alongside the coordinator's own engine/executor spans.
        coordinator = [
            event
            for event in chrome["traceEvents"]
            if event.get("ph") == "X" and event["pid"] == 0
        ]
        names = {event["name"] for event in coordinator}
        assert {"execute", "dispatch", "wave", "plan", "cache_check"} <= names
        lanes = {
            event["args"]["name"]
            for event in chrome["traceEvents"]
            if event.get("ph") == "M"
        }
        assert "coordinator" in lanes and "worker-1" in lanes

    def test_serial_run_records_tasks_on_the_coordinator(self, engine_runs):
        with open(
            os.path.join(engine_runs["serial"].trace_dir, CHROME_NAME)
        ) as handle:
            chrome = json.load(handle)
        tasks = _task_events(chrome)
        run = engine_runs["serial"]
        assert {event["args"]["task"] for event in tasks} >= D1_NODES
        assert len(tasks) == run.n_executed + len(D1_NODES)
        assert all(event["pid"] == 0 for event in tasks)

    def test_report_names_the_critical_path(self, engine_runs):
        report = render_report(load_trace(engine_runs["pooled"].trace_dir))
        assert "critical path" in report
        assert "->" in report
        # The named chain is one of the scenario's points.
        labels = [p["label"] for p in engine_runs["scenario"].points]
        assert any(label in report for label in labels)

    def test_span_tree_identical_across_runs_and_worker_counts(
        self, engine_runs
    ):
        def tree(tag, category=None):
            events = load_trace(engine_runs[tag].trace_dir)
            return {
                (event["id"], event["parent"], event["name"])
                for event in events
                if event.get("type") == "span"
                and (category is None or event["cat"] == category)
            }

        # Same configuration -> identical full span tree (ids included).
        assert tree("pooled") == tree("repeat")
        # Task spans have logical (wave/chunk-independent) parents, so
        # even serial vs 4-worker runs agree on every task span id.
        assert tree("pooled", "task") == tree("serial", "task")

    def test_worker_profiles_merge_into_coordinator(self, engine_runs):
        profiles = engine_runs["pooled_profiles"]
        # The link simulator only ever ran inside pool workers, yet the
        # coordinator registry sees it (satellite 1: shipped deltas).
        assert "link.measure_ber" in profiles
        assert profiles["link.measure_ber"].calls >= 2  # baseline points

    def test_metrics_record_cache_and_ipc_counters(self, engine_runs):
        events = load_trace(engine_runs["pooled"].trace_dir)
        metrics = next(e for e in events if e.get("type") == "metrics")
        counters = metrics["counters"]
        run = engine_runs["pooled"]
        assert counters["cache.misses"] == run.n_tasks
        assert counters["cache.puts"] == run.n_executed
        assert counters["executor.messages"] >= 1
        assert counters["executor.message_bytes"] > 0
        assert metrics["gauges"]["cache.hit_ratio"] == 0.0
        assert metrics["gauges"]["health.executor.task_errors"] == 0.0


@pytest.fixture(scope="module")
def campaign_runs(tmp_path_factory):
    """Untraced and traced 4-worker runs of the 16-STA campaign."""
    root = tmp_path_factory.mktemp("obs-campaign")
    spec = _sixteen_sta_spec()
    store = CheckpointStore(root / "store")

    clear_memos()
    untraced = NetworkCampaign(
        spec,
        cache=ResultCache(root / "cache-untraced"),
        store=store,
        n_workers=N_WORKERS,
        trace=False,
    ).run()
    clear_memos()
    traced = NetworkCampaign(
        spec,
        cache=ResultCache(root / "cache-traced"),
        store=store,
        n_workers=N_WORKERS,
        trace=str(root / "trace"),
    ).run()
    return {"spec": spec, "untraced": untraced, "traced": traced}


class TestCampaignAcceptance:
    def test_traced_manifest_is_byte_identical(self, campaign_runs):
        untraced = json.dumps(
            campaign_runs["untraced"].to_dict(), sort_keys=True
        )
        traced = json.dumps(campaign_runs["traced"].to_dict(), sort_keys=True)
        assert traced == untraced

    def test_trace_contains_worker_span_for_every_round(self, campaign_runs):
        traced = campaign_runs["traced"]
        with open(
            os.path.join(traced.trace_dir, CHROME_NAME)
        ) as handle:
            chrome = json.load(handle)
        tasks = _task_events(chrome)
        round_events = [
            event for event in tasks if "/round-" in event["args"]["task"]
        ]
        expected = {
            f"sta{i:03d}/round-{r:04d}"
            for i in range(N_STAS)
            for r in range(N_ROUNDS)
        }
        assert {e["args"]["task"] for e in round_events} == expected
        assert len(round_events) == traced.n_executed_rounds
        assert all(event["pid"] != 0 for event in round_events)
        # The zoo build's one D1 node serves the rounds too: one span,
        # recorded by a worker.
        node_events = [
            event
            for event in tasks
            if event["args"]["task"].startswith("dataset:")
        ]
        assert {e["args"]["task"] for e in node_events} == D1_NODES
        assert len(node_events) == len(D1_NODES)
        assert all(event["pid"] != 0 for event in node_events)
        # The embedded zoo build joined the campaign's timeline.
        names = {
            event["name"]
            for event in chrome["traceEvents"]
            if event.get("ph") == "X"
        }
        assert f"campaign:{campaign_runs['spec'].name}" in names
        assert any(name.startswith("zoo:") for name in names)
        assert {"plan_rounds", "drain", "assemble"} <= names

    def test_trace_validates_and_reports_critical_path(self, campaign_runs):
        events = load_trace(campaign_runs["traced"].trace_dir)
        assert validate_events(events) == []
        report = render_report(events)
        assert "critical path" in report
        # Chained STA rounds: the critical path spans multiple rounds.
        assert "/round-" in report and "->" in report

    def test_campaign_metrics_fold_health_and_dedupe(self, campaign_runs):
        events = load_trace(campaign_runs["traced"].trace_dir)
        metrics = next(e for e in events if e.get("type") == "metrics")
        counters = metrics["counters"]
        gauges = metrics["gauges"]
        traced = campaign_runs["traced"]
        assert counters["cache.puts"] == traced.n_executed_rounds
        assert counters["payloads.interned"] >= counters["payloads.unique"]
        assert gauges["payloads.dedupe_ratio"] >= 0.0
        assert gauges["health.executor.worker_crashes"] == 0.0


class TestEnvActivation:
    def test_env_var_traces_a_run_end_to_end(self, tmp_path, monkeypatch):
        from repro.obs.trace import TRACE_ENV

        trace_dir = tmp_path / "env-trace"
        monkeypatch.setenv(TRACE_ENV, str(trace_dir))
        clear_memos()
        scenario = _scenario()
        run = ExperimentEngine(cache=ResultCache(tmp_path / "cache")).run(
            scenario
        )
        assert run.trace_dir == str(trace_dir)
        assert sorted(os.listdir(trace_dir)) == [
            CHROME_NAME, SUMMARY_NAME, JSONL_NAME,
        ]
        assert validate_events(load_trace(trace_dir)) == []

    def test_trace_false_wins_over_env(self, tmp_path, monkeypatch):
        from repro.obs.trace import TRACE_ENV

        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "never"))
        clear_memos()
        run = ExperimentEngine(
            cache=ResultCache(tmp_path / "cache"), trace=False
        ).run(_scenario())
        assert run.trace_dir is None
        assert not (tmp_path / "never").exists()
