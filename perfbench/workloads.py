"""The benchmark's workloads: seeded inputs, set-up, one measured run, checks.

Seeds: ``--seed s`` shifts the seeds the generated specs carry, so
``s = 0`` (``DEFAULT_SEED``) reproduces the registry presets exactly:

- fig12 dataset (and cross-environment eval dataset) seeds: ``+ 1000 * s``;
- fig12 SplitBeam / LB-SciFi scheme (training) seeds: ``+ s``;
- campaign STA seeds (round CSI draws, link noise): ``+ 1000 * s``.

The campaign's ladder datasets and train seeds stay the preset's.  A
retrained ladder changes which STAs fall back to 802.11 (100 to 150 of
the 150 SplitBeam STAs keep SplitBeam over seeds 0-5), and that moves
wall time, peak memory and mean BER by 10-15% from seed to seed, more
than the benchmark's bounds could absorb.

Only the public entry points are driven:
``ExperimentEngine.run(get_scenario("fig12-ber", ...))`` and
``run_campaign(<the "network-scale" spec>, ...)``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from repro.config import SMOKE, Fidelity
from repro.core.network import run_campaign
from repro.runtime import ExperimentEngine, get_campaign, get_scenario
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoints import CheckpointStore
from repro.runtime.registry import FIG12_FIDELITY
from repro.runtime.tasks import clear_memos

DEFAULT_SEED = 0
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Size:
    """Input size: the fig12 fidelity and the campaign's shape."""

    fig12: Fidelity
    campaign: "Fidelity | None"  # None = the preset default (FAST)
    n_stas: int
    n_rounds: int


SIZES = {
    # 8 points, 4 trainings of 300 samples x 6 epochs (3x3 @ 80 MHz);
    # 200 STAs x 20 rounds = 4000 STA-round tasks at FAST.  The fig12
    # budget keeps a traced run, which also runs it on two workers (up
    # to ~7x slower than serial today), well inside three minutes.
    "full": Size(
        fig12=replace(FIG12_FIDELITY, name="bench-fig12", n_samples=300, epochs=6),
        campaign=None,
        n_stas=200,
        n_rounds=20,
    ),
    # Smoke-test size: seconds per workload.
    "tiny": Size(
        fig12=Fidelity(
            name="bench-fig12-tiny",
            n_samples=64,
            n_sessions=2,
            epochs=2,
            ber_samples=6,
            ofdm_symbols=1,
            reset_interval=8,
        ),
        campaign=SMOKE,
        n_stas=8,
        n_rounds=2,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fig12" | "campaign"
    n_workers: int

    @property
    def compare_workers(self) -> int:
        """The other side of ``executor.speedup_vs_serial`` (1 <-> 2)."""
        return 3 - self.n_workers


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig12-serial", "fig12", 1),
        Workload("campaign-cold", "campaign", 2),
    )
}


def fig12_scenario(seed: int, size: Size):
    scenario = get_scenario("fig12-ber", fidelity=size.fig12)
    points = []
    for entry in scenario.points:
        entry = copy.deepcopy(entry)
        entry["dataset"]["seed"] += SEED_STRIDE * seed
        if entry.get("eval_dataset"):
            entry["eval_dataset"]["seed"] += SEED_STRIDE * seed
        entry["scheme"]["seed"] += seed
        points.append(entry)
    return replace(scenario, points=tuple(points))


def campaign_spec(seed: int, size: Size):
    spec = get_campaign(
        "network-scale",
        fidelity=size.campaign,
        n_stas=size.n_stas,
        n_rounds=size.n_rounds,
    )
    stas = []
    for sta in spec.stas:
        sta = copy.deepcopy(sta)
        sta["seed"] += SEED_STRIDE * seed
        stas.append(sta)
    return replace(spec, stas=tuple(stas))


def seed_map(seed: int, size: Size) -> dict:
    """The concrete seeds a run uses (recorded with every result)."""
    points = fig12_scenario(seed, size).points
    stas = campaign_spec(seed, size).stas
    return {
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "fig12_dataset_seeds": sorted({p["dataset"]["seed"] for p in points}),
        "fig12_scheme_seeds": sorted({p["scheme"]["seed"] for p in points}),
        "campaign_sta_seeds": [stas[0]["seed"], stas[-1]["seed"]],
    }


def artifact_sha(result) -> str:
    """sha256 of the artifact bytes the library would write."""
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# -- set-up ------------------------------------------------------------------------


def prepare(workload: Workload, seed: int, size: Size, root: Path) -> dict:
    """Workload set-up (campaigns: in a fresh interpreter), into ``setup_s``.

    ``campaign-cold``: train every SplitBeam ladder into a fresh
    checkpoint store (one round per STA, nothing cached).
    """
    if workload.kind != "campaign":
        return {}
    prefill = run_campaign(
        replace(campaign_spec(seed, size), n_rounds=1),
        store=CheckpointStore(root / "checkpoints"),
        n_workers=workload.n_workers,
        trace=False,
    )
    return {"prefill_trained": prefill.zoo_trained}


def entry_call(workload: Workload, seed: int, size: Size, root: Path, tag: str, n_workers: int):
    """A zero-argument call into the workload's entry point.

    Opening the stores and clearing the per-process memos happen here,
    outside the timed call, so every cold run really starts cold.  Calling
    a campaign's entry twice replays the second time from the first
    call's result cache.
    """
    clear_memos()
    cache = ResultCache(root / f"cache-{tag}")
    if workload.kind == "fig12":
        scenario = fig12_scenario(seed, size)
        engine = ExperimentEngine(cache=cache, n_workers=n_workers, trace=False)
        return lambda: engine.run(scenario)
    spec = campaign_spec(seed, size)
    store = CheckpointStore(root / "checkpoints")
    return lambda: run_campaign(
        spec, cache=cache, store=store, n_workers=n_workers, trace=False
    )


# -- outputs -----------------------------------------------------------------------


def summarize(workload: Workload, result) -> dict:
    """Items, BERs, health and artifact digest of one run's result."""
    if workload.kind == "fig12":
        items = result.n_tasks
        bers = [p["result"]["ber"] for p in result.points]
        executed, cached = result.n_executed, result.n_cached
        trained = 0
    else:
        items = result.n_round_tasks
        bers = [
            row["ber"]
            for sta in result.stas
            for row in sta["rounds"]
            if "ber" in row
        ]
        executed, cached = result.n_executed_rounds, result.n_cached_rounds
        trained = result.zoo_trained
    health = (result.health or {}).get("executor") or {}
    return {
        "items": items,
        "bers": bers,
        "executed": executed,
        "cached": cached,
        "trained": trained,
        "retries": int(health.get("retries", 0)),
        "task_failures": len(health.get("failed", ())) + len(health.get("skipped", ())),
        "degraded": (
            list(result.summary.get("degraded_stas", ()))
            if workload.kind == "campaign"
            else []
        ),
        "sha256": artifact_sha(result),
    }


def check(workload: Workload, size: Size, out: dict, expect: dict) -> "dict[str, bool]":
    """Output checks of one run; each False counts as a failed operation.

    ``expect`` carries ``sha256``, the digest earlier runs of the same
    inputs and code produced (``None`` if there were none).  A campaign
    run's ``out["replay"]`` summarizes the untimed warm replay from its
    result cache.
    """
    bers = out["bers"]
    checks = {
        "ber_finite_in_range": bool(bers)
        and all(math.isfinite(b) and 0.0 <= b <= 0.5 for b in bers),
        "no_task_failures": out["task_failures"] == 0 and not out["degraded"],
        "trains_nothing": workload.kind != "campaign" or out["trained"] == 0,
    }
    checks["executes_every_task"] = (
        out["executed"] == out["items"] and out["cached"] == 0
    )
    if workload.kind == "campaign":
        replay = out["replay"]
        checks["all_rounds_present"] = out["items"] == size.n_stas * size.n_rounds
        checks["replay_executes_nothing"] = (
            replay["executed"] == 0 and replay["cached"] == out["items"]
        )
        checks["replay_trains_nothing"] = replay["trained"] == 0
        checks["replay_bytes_equal_cold"] = replay["sha256"] == out["sha256"]
    if expect["sha256"] is not None:
        checks["bytes_equal_earlier_runs"] = out["sha256"] == expect["sha256"]
    return checks
