"""Multi-STA network campaigns: the paper's headline scenario at scale.

The intro's argument is about a *network*: an AP serving "heterogeneous
devices and a wide range of performance requirements" (Sec. IV-B) under
the 10 ms MU-MIMO sounding deadline (Sec. I).  :class:`NetworkCampaign`
simulates exactly that — N STAs (tens to hundreds), each with its own
dataset (antenna configuration, bandwidth, environment), QoS profile,
device cost model, and feedback scheme, sounded every ``interval_s``
for ``n_rounds`` rounds while mobility/aging episodes make the measured
BER drift and each STA's :class:`AdaptiveCompressionController` walks
its compression ladder in response.

Execution reuses the whole ``repro.runtime`` stack:

- SplitBeam ladders build through :func:`~repro.core.zoo_builder.
  train_zoo` (one merged :class:`TrainingGrid`, deduplicated across
  STAs, warm-loaded from a :class:`CheckpointStore`);
- each CSI dataset is built once per campaign by a dataset node
  (:mod:`repro.runtime.dataset_nodes`): the rounds adopt what the zoo
  build's nodes built and add nodes only for recipes still missing;
- every STA-round is a pure seeded :func:`~repro.runtime.tasks.
  network_round` task.  A SplitBeam STA's rounds form a feedback chain
  (round *r* plans only after round *r-1*'s BER is observed, via
  ``resolve`` hooks in the coordinator), 802.11 STAs' rounds are
  independent — and different STAs' chains always run in parallel on
  the worker pool;
- results flow through the content-addressed :class:`ResultCache`
  (keys exclude the cosmetic STA ``name`` and fidelity ``name``), so a
  warm re-run replays every round from the store and executes **zero**
  link simulations, and manifests are byte-identical for any worker
  count.

Per-round aggregate airtime/occupancy numbers come from
:mod:`repro.sounding.campaign`: STAs group by bandwidth into
:class:`SoundingCampaign` rounds whose reports combine via
:func:`combine_reports` — surfacing both the clamped medium occupancy
and the honest (unclamped) ``occupancy_ratio``/``feasible`` overload
signals.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext as _null
from dataclasses import dataclass, replace

import numpy as np

from repro.channels.doppler import jakes_ar1_coefficient
from repro.config import Fidelity
from repro.core.adaptive import (
    AdaptiveCompressionController,
    QosProfile,
    select_model,
)
from repro.core.costs import StaCostModel
from repro.core.split import BottleneckQuantizer
from repro.core.zoo import ModelZoo, NetworkConfiguration, ZooEntry
from repro.core.zoo_builder import train_zoo
from repro.datasets import CsiDataset, dataset_spec
from repro.errors import ConfigurationError
from repro.obs import trace as trace_mod
from repro.obs.export import write_trace
from repro.phy.link import LinkConfig
from repro.phy.mcs import data_rate_bps, select_mcs
from repro.runtime import faults as faults_mod
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoints import CheckpointStore
from repro.runtime.dataset_nodes import DatasetNodes
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    Task,
    resolve_worker_count,
    run_tasks,
)
from repro.runtime.hashing import code_version, task_key
from repro.runtime.payloads import PayloadStore
from repro.runtime.spec import NetworkCampaignSpec, TrainingGrid, zoo_entry
from repro.sounding.aging import stale_sinr_db
from repro.sounding.campaign import SoundingCampaign, combine_reports
from repro.standard.feedback import Dot11FeedbackConfig, bmr_bits
from repro.standard.flopmodel import dot11_flops
from repro.utils.artifacts import write_json_artifact

__all__ = [
    "NetworkCampaign",
    "NetworkCampaignResult",
    "run_campaign",
    "campaign_round_spec",
]

#: Bump when the campaign-manifest layout changes incompatibly.
CAMPAIGN_SCHEMA_VERSION = 1

#: Result-cache namespace for STA-round measurements (never collides
#: with scenario-point or checkpoint addresses).
CAMPAIGN_ROUND_KIND = "network-round"

#: The campaign's task entry point (importable in worker processes).
ROUND_FN = "repro.runtime.tasks:network_round"

#: Link-adaptation backoff applied when mapping a round's measured SINR
#: to the MCS behind the goodput accounting.
MCS_BACKOFF_DB = 3.0


def campaign_round_spec(
    spec: NetworkCampaignSpec, sta: dict, round_index: int
) -> dict:
    """The cache-relevant spec of one STA-round (JSON-able, stable).

    A round's measurement is a pure function of the campaign-level
    environment (interval, base link, episodes, fidelity), the STA's
    own profile, and the round index — the adaptive chain is
    deterministic, so earlier rounds are implied.  Other STAs never
    influence it, and the cosmetic ``name`` fields are dropped, so a
    renamed STA (or the same profile inside a different campaign) keeps
    its cache entries.  ``n_rounds`` and episodes that only start
    *after* this round are likewise excluded (``_episode_at`` never
    consults them, and the implied earlier rounds consult strictly
    fewer): a longer campaign — even one whose later episode schedule
    shifted with its length — re-uses a shorter one's cached prefix.
    """
    return {
        "campaign": {
            "interval_s": spec.interval_s,
            "link": dict(spec.link),
            "episodes": [
                dict(episode)
                for episode in spec.episodes
                if episode["start_round"] <= round_index
            ],
            "fidelity": {
                key: value
                for key, value in spec.fidelity.items()
                if key != "name"
            },
        },
        "sta": {key: value for key, value in sta.items() if key != "name"},
        "round": int(round_index),
    }


def _episode_at(episodes, round_index: int) -> "tuple[float, float]":
    """(doppler_scale, snr_offset_db) in force at one round."""
    scale, offset = 1.0, 0.0
    for episode in episodes:
        if episode["start_round"] > round_index:
            break
        scale = episode["doppler_scale"]
        offset = episode["snr_offset_db"]
    return scale, offset


def _round_snr_db(
    base_snr_db: float,
    doppler_hz: float,
    interval_s: float,
    n_users: int,
    scale: float,
    offset_db: float,
) -> float:
    """The round's operating SNR after the mobility/aging episode.

    CSI inside a sounding interval is on average ``interval/2`` old, so
    the Jakes correlation at that lag (``channels.doppler``) sets how
    much of the beamforming still points at the channel; the stale-CSI
    SINR model (``sounding.aging``) converts the de-correlated residue
    into inter-user interference.  Episodes scale the Doppler spread
    (mobility bursts) and shift the fresh SNR (blockage).
    """
    rho = jakes_ar1_coefficient(doppler_hz * scale, interval_s / 2.0)
    return stale_sinr_db(base_snr_db + offset_db, rho, n_users=n_users)


def _ladder_label(dataset: dict, scheme: dict, compression: float) -> str:
    """Deterministic training-grid label for one (dataset, rung) pair."""
    return (
        f"{dataset['id']} seed{dataset['seed']} "
        f"reset{dataset['reset_interval']} K={compression:g} "
        f"q{scheme['quantizer_bits']} t{scheme['train_seed']}"
    )


def _dot11_round_scheme(dataset: CsiDataset, indices: np.ndarray) -> dict:
    """The 802.11 payload for one round task.

    Ships the ground-truth beamforming slice the standard quantizer
    reconstructs from — never the dataset itself.  The slice is unique
    per round, so it travels inline: interning it would pin every
    round's arrays in the payload store for the whole run for zero
    dedup benefit.
    """
    spec = dataset.spec
    bits = bmr_bits(
        Dot11FeedbackConfig(
            n_tx=spec.n_tx,
            n_rx=spec.n_rx,
            n_streams=1,
            bandwidth_mhz=spec.bandwidth_mhz,
        )
    )
    return {
        "kind": "dot11",
        "bits": bits,
        "bf_true": dataset.link_bf(indices),
    }


def _entry_round_scheme(
    dataset: CsiDataset, indices: np.ndarray, entry: ZooEntry, payloads=None
) -> dict:
    """A zoo entry's payload for one round task (model + inputs).

    With ``payloads``, the model and quantizer are interned: the pair
    is shared by every round that deploys the same rung, so each worker
    deserializes it once per run instead of once per round task.  The
    per-round input rows are unique, so they always travel inline
    (interning them would pin every round's arrays for the whole run).
    """
    model = entry.model
    quantizer = (
        BottleneckQuantizer(entry.quantizer_bits)
        if entry.quantizer_bits is not None
        else None
    )
    x, _ = dataset.model_arrays(indices)
    if payloads is not None:
        model = payloads.intern(model)
        quantizer = payloads.intern(quantizer)
    return {
        "kind": "model",
        "label": entry.model.label(),
        "bits": entry.feedback_bits,
        "model": model,
        "quantizer": quantizer,
        "x": x,
    }


class _StaState:
    """Coordinator-side bookkeeping for one STA's rounds.

    Per-round facts live in dicts keyed by round index, because an
    uncoupled (802.11) STA's rounds may complete in any order; a
    chained STA's :meth:`observe` calls are forced into round order by
    the task dependencies, which keeps its controller trajectory exact.

    The STA's CSI dataset comes from the run's dataset nodes, and only
    rounds that actually execute read it, so a fully warm replay never
    samples a channel.  Static facts (antenna counts, bandwidth,
    subcarriers, group size) come from the Table I catalog entry
    instead.
    """

    def __init__(
        self, profile: dict, catalog, nodes: DatasetNodes, base_link: LinkConfig
    ) -> None:
        self.profile = profile
        self.catalog = catalog
        self.nodes = nodes
        self.base_link = base_link
        self.config = NetworkConfiguration(
            n_tx=catalog.n_tx,
            n_rx=catalog.n_rx,
            bandwidth_mhz=catalog.bandwidth_mhz,
        )
        self.qos = QosProfile(**profile["qos"])
        self.cost = StaCostModel(**profile["cost"])
        self.mode = "802.11"
        self.selection: "dict | None" = None
        self.controller: "AdaptiveCompressionController | None" = None
        self.measured: "dict[int, dict]" = {}
        self.actions: "dict[int, str]" = {}
        self.rungs: "dict[int, ZooEntry | None]" = {}
        self.keys: "list[str]" = []  # cache keys, one per round
        self.first_pending = 0  # chains: rounds before this replayed

    @property
    def name(self) -> str:
        return self.profile["name"]

    @property
    def chained(self) -> bool:
        return self.controller is not None

    def attach_ladder(self, entries: "list[ZooEntry]") -> None:
        """Run the Eq. (7) selection; fall back to 802.11 if infeasible."""
        zoo = ModelZoo()
        for entry in entries:
            zoo.register(entry)
        outcome = select_model(zoo, self.config, self.qos, self.cost)
        self.selection = {
            "selected": (
                None
                if outcome.selected is None
                else outcome.selected.model.label()
            ),
            "rejected": [
                [entry.model.label(), reason]
                for entry, reason in outcome.rejected
            ],
        }
        if outcome.fell_back:
            # The paper's escape hatch: no trained model satisfies this
            # STA's constraints, so it keeps the standard feedback path.
            self.mode = "802.11-fallback"
            return
        self.mode = "splitbeam"
        # Deploy the Eq. (7) winner from round 0 (the Fig. 1 flow:
        # select offline, adapt at runtime) — never an unvetted rung.
        self.controller = AdaptiveCompressionController(
            entries, self.qos, initial=outcome.selected
        )

    def observe(self, round_index: int, measured: dict) -> None:
        """Record one round's measurement (idempotent per round).

        For a chained STA the controller consumes the BER exactly once,
        in round order — replayed prefix first, then each executed
        round as its successor's ``resolve`` (or the final drain) sees
        it.
        """
        if round_index in self.actions:
            return
        self.measured[round_index] = measured
        if self.controller is None:
            self.actions[round_index] = "n/a"
        else:
            self.controller.observe(measured["ber"])
            self.actions[round_index] = self.controller.history[-1][1]

    def _dataset(self) -> CsiDataset:
        return self.nodes.get(self.profile["dataset"])

    def round_indices(self, round_index: int) -> np.ndarray:
        """The round's CSI draw — a pure function of (profile, round)."""
        pool = self._dataset().splits.test
        rng = np.random.default_rng(
            [0x5E55, int(self.profile["seed"]), int(round_index)]
        )
        size = min(int(self.profile["samples_per_round"]), int(pool.size))
        return rng.choice(pool, size=size, replace=False)

    def round_link(self, round_index: int, interval_s, episodes) -> LinkConfig:
        """The round's link: episode-shifted SNR, per-round noise seed."""
        scale, offset = _episode_at(episodes, round_index)
        snr_db = _round_snr_db(
            self.base_link.snr_db,
            self.profile["doppler_hz"],
            interval_s,
            self.catalog.n_users,
            scale,
            offset,
        )
        return replace(
            self.base_link,
            snr_db=snr_db,
            seed=(int(self.profile["seed"]) * 100_003 + round_index * 7919)
            % (2**31 - 1),
        )

    def round_params(
        self, round_index: int, interval_s, episodes, payloads=None
    ) -> dict:
        """Task parameters for one round (slices + model, no dataset).

        With a payload store, the deployed model/quantizer (shared by
        every round on the same rung) travel as content-addressed
        references — each worker materializes the model once per
        campaign instead of once per round task.  The unique per-round
        slices travel inline, so coordinator memory stays O(one round).
        """
        rung = (
            self.controller.current if self.controller is not None else None
        )
        self.rungs[round_index] = rung
        dataset = self._dataset()
        indices = self.round_indices(round_index)
        if rung is not None:
            scheme = _entry_round_scheme(
                dataset, indices, rung, payloads=payloads
            )
        else:
            scheme = _dot11_round_scheme(dataset, indices)
        return {
            "channels": dataset.link_channels(indices),
            "link_config": self.round_link(round_index, interval_s, episodes),
            "scheme": scheme,
        }

    def round_compute_s(self, round_index: int) -> float:
        """Feedback-computation time feeding the sounding schedule."""
        rung = self.rungs.get(round_index)
        if rung is not None:
            return self.cost.head_time_s(rung.head_flops)
        return (
            dot11_flops(
                self.catalog.n_tx,
                self.catalog.n_rx,
                n_subcarriers=self.config.n_subcarriers,
            )
            / self.cost.sta_flops_per_s
        )

    def deadline_misses(self) -> int:
        """Rounds whose end-to-end reporting delay overran τ (Eq. (7d)).

        The controller optimizes for BER only, so a step-down to a less
        compressed rung can push a slow device past its own deadline —
        the campaign-level accounting surfaces that.
        """
        misses = 0
        for rung in self.rungs.values():
            if rung is None:
                continue
            delay = self.cost.end_to_end_delay_s(
                rung.head_flops, rung.tail_flops, rung.feedback_bits
            )
            if delay > self.qos.max_delay_s:
                misses += 1
        return misses


@dataclass
class NetworkCampaignResult:
    """The outcome of one campaign: manifest rows plus run statistics.

    :meth:`to_dict` is the deterministic manifest — byte-identical for
    any worker count and for cold vs warm caches; the execution
    statistics (``n_executed_rounds``, ``wall_s``, ...) live only on
    the in-memory object.
    """

    campaign: str
    title: str
    fidelity: dict
    interval_s: float
    n_rounds: int
    stas: "list[dict]"  # per-STA manifest rows, campaign order
    rounds: "list[dict]"  # aggregate per-round rows
    summary: dict
    n_round_tasks: int
    n_cached_rounds: int
    n_executed_rounds: int
    zoo_trained: int
    zoo_cached: int
    n_workers: int
    wall_s: float = 0.0
    code_version: str = ""
    health: dict = None
    #: Directory the campaign's trace was written to (``None``
    #: untraced).  Telemetry — never part of :meth:`to_dict`.
    trace_dir: "str | None" = None

    def sta(self, name: str) -> dict:
        """The manifest row for one STA name."""
        for row in self.stas:
            if row["name"] == name:
                return row
        raise ConfigurationError(f"no STA named {name!r}")

    def to_dict(self, include_health: bool = False) -> dict:
        """Deterministic manifest payload (no timestamps, no wall time).

        ``include_health=True`` appends fault-tolerance statistics
        (executor retries/crashes, store quarantines, payload
        rehydrations).  The default omits them so the manifest stays
        byte-identical across worker counts, cold/warm caches, and
        fault schedules — a chaos run that fully recovers diffs clean
        against the fault-free run.
        """
        payload = {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "campaign": self.campaign,
            "title": self.title,
            "fidelity": self.fidelity,
            "interval_s": self.interval_s,
            "n_rounds": self.n_rounds,
            "code_version": self.code_version,
            "stas": self.stas,
            "rounds": self.rounds,
            "summary": self.summary,
        }
        if include_health:
            payload["health"] = self.health
        return payload

    def write_json(self, path: "str | os.PathLike") -> None:
        """Write the manifest (2-space indent, sorted keys, trailing \\n)."""
        write_json_artifact(path, self.to_dict())


class NetworkCampaign:
    """Runs a :class:`NetworkCampaignSpec` on the runtime engine.

    Parameters
    ----------
    spec:
        The declarative campaign (see :func:`repro.runtime.spec.
        sta_profile` and the presets in :mod:`repro.runtime.registry`).
    cache:
        A :class:`ResultCache` for completed STA-rounds (``None`` =
        always re-measure).
    store:
        A :class:`CheckpointStore` for the SplitBeam ladders (``None``
        = retrain on every run).
    n_workers:
        Worker processes; ``None`` reads ``$REPRO_RUNTIME_WORKERS``.
        STA chains parallelize across the pool; each chain stays
        sequential.  Results never depend on this.
    policy:
        A :class:`~repro.runtime.executor.RetryPolicy` bounding
        retries/timeouts (``None`` = the default).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` of injected chaos
        (``None`` = the installed plan or ``$REPRO_RUNTIME_FAULTS``).
    trace:
        Observability: a directory path (or a
        :class:`~repro.obs.trace.Tracer`) recording the campaign's
        span timeline and metrics — the embedded zoo build and every
        round task land in the same trace; ``None`` joins an installed
        tracer or honours ``$REPRO_RUNTIME_TRACE``; ``False`` disables
        tracing.  Tracing never changes manifest bytes.

    Graceful degradation: the campaign runs its rounds in
    collect-errors mode — an STA-round that exhausts its retries marks
    only *that* STA degraded (its remaining chained rounds are skipped,
    the manifest's per-STA ``degraded`` entry and the summary's
    ``degraded_stas``/``partial_coverage`` flags record the gap) while
    the other N-1 STAs complete normally.
    """

    def __init__(
        self,
        spec: NetworkCampaignSpec,
        cache: "ResultCache | None" = None,
        store: "CheckpointStore | None" = None,
        n_workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults=None,
        trace=None,
    ) -> None:
        self.spec = spec
        self.cache = cache
        self.store = store
        self.n_workers = resolve_worker_count(n_workers)
        self.policy = policy
        self.faults = faults
        self.trace = trace

    # -- offline phase ----------------------------------------------------------

    def _training_grid(self) -> "TrainingGrid | None":
        """The merged, deduplicated ladder grid for all SplitBeam STAs."""
        entries: "dict[str, dict]" = {}
        for sta in self.spec.stas:
            scheme = sta["scheme"]
            if scheme["kind"] != "splitbeam":
                continue
            for compression in scheme["compressions"]:
                label = _ladder_label(sta["dataset"], scheme, compression)
                if label in entries:
                    continue
                entries[label] = zoo_entry(
                    label,
                    sta["dataset"]["id"],
                    dataset_seed=sta["dataset"]["seed"],
                    reset_interval=sta["dataset"]["reset_interval"],
                    compression=compression,
                    quantizer_bits=scheme["quantizer_bits"],
                    train_seed=scheme["train_seed"],
                    link=dict(self.spec.link),
                    notes=label,
                )
        if not entries:
            return None
        return TrainingGrid(
            name=f"campaign-{self.spec.name}",
            title=f"SplitBeam ladders for campaign {self.spec.name!r}",
            fidelity=dict(self.spec.fidelity),
            entries=tuple(entries.values()),
        )

    # -- execution --------------------------------------------------------------

    def run(self) -> NetworkCampaignResult:
        """Build ladders, run every STA's rounds, aggregate the network."""
        # Installed for the campaign's duration so cache/checkpoint
        # writes see the same chaos schedule as the round tasks — and,
        # when traced, so the embedded zoo build and every store access
        # land in the campaign's own timeline.
        plan = faults_mod.active_plan(self.faults)
        previous = faults_mod.install(plan)
        tracer, owned = trace_mod.tracer_for_run(
            self.trace, f"campaign:{self.spec.name}"
        )
        prev_tracer = trace_mod.install_tracer(tracer) if tracer else None
        try:
            if tracer is None:
                return self._run(plan)
            with tracer.span(f"campaign:{self.spec.name}", "engine"):
                result = self._run(plan)
            self._finalize_trace(result, tracer, owned)
            return result
        finally:
            if tracer is not None:
                trace_mod.install_tracer(prev_tracer)
            faults_mod.install(previous)

    def _finalize_trace(
        self, result: NetworkCampaignResult, tracer, owned: bool
    ) -> None:
        """Fold campaign health into the metrics; export when owned."""
        metrics = tracer.metrics
        metrics.ratio_gauge(
            "cache.hit_ratio", result.n_cached_rounds, result.n_round_tasks
        )
        interned = metrics.counter("payloads.interned")
        if interned:
            metrics.ratio_gauge(
                "payloads.dedupe_ratio",
                interned - metrics.counter("payloads.unique"),
                interned,
            )
        for family, counters in (result.health or {}).items():
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

    def _run(self, plan) -> NetworkCampaignResult:
        start = time.perf_counter()
        spec = self.spec
        version = code_version()
        health = RunHealth()
        grid = self._training_grid()
        build = (
            train_zoo(
                grid,
                store=self.store,
                n_workers=self.n_workers,
                policy=self.policy,
                faults=plan,
            )
            if grid is not None
            else None
        )

        # One dataset node per recipe and run: the rounds adopt what the
        # zoo build's nodes built and plan nodes only for recipes a
        # pending round still needs, so a warm replay builds none.
        nodes = DatasetNodes(
            spec.fidelity, built=None if build is None else build._datasets
        )
        base_link = LinkConfig(**dict(spec.link))
        states: "list[_StaState]" = []
        for sta in spec.stas:
            state = _StaState(
                sta, dataset_spec(sta["dataset"]["id"]), nodes, base_link
            )
            scheme = sta["scheme"]
            if scheme["kind"] == "splitbeam":
                state.attach_ladder(
                    [
                        build.entry(
                            _ladder_label(sta["dataset"], scheme, compression)
                        )
                        for compression in scheme["compressions"]
                    ]
                )
            states.append(state)

        tracer = trace_mod.current_tracer()
        payloads = PayloadStore()
        with tracer.span(
            "plan_rounds", "engine", stas=len(states)
        ) if tracer else _null():
            tasks, by_task_id, n_cached = self._plan_rounds(
                states, version, payloads
            )

        def persist(task_id: str, result) -> None:
            # Store each round the moment it completes, so an
            # interrupted campaign resumes from every finished round.
            if nodes.absorb(task_id, result) or self.cache is None:
                return
            state, round_index = by_task_id[task_id]
            self.cache.put(
                state.keys[round_index],
                campaign_round_spec(spec, state.profile, round_index),
                result,
            )

        with payloads:
            # collect_errors: a round (or dataset node) that exhausts
            # its retries fails only the STAs that depend on it
            # (graceful degradation), never the others.
            executed = run_tasks(
                nodes.tasks + tasks,
                n_workers=self.n_workers,
                on_result=persist,
                payloads=payloads,
                policy=self.policy,
                faults=plan,
                health=health,
                collect_errors=True,
            )
            rehydrated = payloads.rehydrated

        if self.cache is not None:
            # Publish the packed index so the next open recovers from a
            # snapshot instead of rescanning every segment tail.
            self.cache.flush()

        # Drain: record every executed round.  observe() is idempotent
        # and the ascending sweep keeps chain order, so rounds already
        # consumed by a successor's resolve hook are not re-observed.
        with tracer.span("drain", "engine") if tracer else _null():
            for state in states:
                for round_index in range(spec.n_rounds):
                    task_id = f"{state.name}/round-{round_index:04d}"
                    if task_id in executed:
                        state.observe(round_index, executed[task_id])

        # Dataset nodes are neither rounds nor cached: count rounds only.
        n_executed = sum(1 for task_id in executed if task_id in by_task_id)
        with tracer.span("assemble", "engine") if tracer else _null():
            return self._assemble(
                states,
                n_cached=n_cached,
                n_executed=n_executed,
                build=build,
                version=version,
                wall_s=time.perf_counter() - start,
                health={
                    "executor": health.to_dict(),
                    "cache": (
                        self.cache.health.to_dict()
                        if self.cache is not None
                        else None
                    ),
                    "payloads": {"rehydrated": rehydrated},
                    "zoo": None if build is None else build.health,
                },
                run_health=health,
            )

    def _plan_rounds(
        self, states: "list[_StaState]", version: str, payloads=None
    ):
        """Cache-walk every STA and build tasks for the rest.

        A SplitBeam STA is a feedback chain: its cached *prefix* is
        replayed (observing each stored BER keeps the controller
        trajectory exact) and execution resumes at the first miss, each
        task depending on its predecessor so the ``resolve`` hook can
        observe the previous round before planning the next.  An
        802.11 STA has no cross-round coupling: every cached round is a
        hit wherever it falls, and only the misses become (independent)
        tasks.  Every pending round also depends on its STA's dataset
        node while the run still has to build that recipe.
        """
        spec = self.spec
        tasks: "list[Task]" = []
        by_task_id: dict = {}
        n_cached = 0
        for state in states:
            state.keys = [
                task_key(
                    campaign_round_spec(spec, state.profile, round_index),
                    version,
                    kind=CAMPAIGN_ROUND_KIND,
                )
                for round_index in range(spec.n_rounds)
            ]
            if state.chained:
                # Only the contiguous prefix is usable for a chain, so
                # stop reading the store at the first miss — entries
                # past a gap would be discarded (and re-written with
                # identical content) anyway.
                prefix = 0
                while prefix < spec.n_rounds:
                    # `is not None`, not truthiness: an *empty* cache
                    # is falsy (__len__ == 0), which silently skipped
                    # gets — and miss telemetry — on cold campaigns.
                    result = (
                        self.cache.get(state.keys[prefix])
                        if self.cache is not None
                        else None
                    )
                    if result is None:
                        break
                    state.rungs[prefix] = state.controller.current
                    state.observe(prefix, result)
                    n_cached += 1
                    prefix += 1
                state.first_pending = prefix
                pending = list(range(prefix, spec.n_rounds))
            else:
                state.first_pending = 0
                pending = []
                for round_index, key in enumerate(state.keys):
                    result = (
                        self.cache.get(key)
                        if self.cache is not None
                        else None
                    )
                    if result is None:
                        pending.append(round_index)
                    else:
                        state.observe(round_index, result)
                        n_cached += 1

            for round_index in pending:
                task_id = f"{state.name}/round-{round_index:04d}"
                needs_dep = state.chained and round_index > state.first_pending
                tasks.append(
                    Task(
                        task_id=task_id,
                        fn=ROUND_FN,
                        deps=(
                            (f"{state.name}/round-{round_index - 1:04d}",)
                            if needs_dep
                            else ()
                        )
                        + state.nodes.need(state.profile["dataset"]),
                        resolve=self._make_resolve(
                            state, round_index, payloads
                        ),
                    )
                )
                by_task_id[task_id] = (state, round_index)
        return tasks, by_task_id, n_cached

    def _make_resolve(self, state: _StaState, round_index: int, payloads=None):
        spec = self.spec

        def resolve(dep_results: dict) -> dict:
            if state.chained and round_index > state.first_pending:
                state.observe(
                    round_index - 1,
                    dep_results[f"{state.name}/round-{round_index - 1:04d}"],
                )
            return state.round_params(
                round_index, spec.interval_s, spec.episodes, payloads
            )

        return resolve

    # -- aggregation ------------------------------------------------------------

    def _assemble(
        self,
        states,
        n_cached,
        n_executed,
        build,
        version,
        wall_s,
        health,
        run_health,
    ) -> NetworkCampaignResult:
        spec = self.spec
        # Collect-errors post-mortem: which rounds never produced a
        # measurement, and why (failed outright vs skipped behind a
        # failed chain predecessor).
        failure_summaries = {
            row["task"]: row["summary"] for row in run_health.failed
        }
        skipped_tasks = set(run_health.skipped)
        sta_rows = []
        for state in states:
            rows = []
            failed_rounds = []
            skipped_rounds = []
            for round_index in range(spec.n_rounds):
                measured = state.measured.get(round_index)
                if measured is None:
                    task_id = f"{state.name}/round-{round_index:04d}"
                    if task_id in skipped_tasks:
                        skipped_rounds.append(round_index)
                    else:
                        failed_rounds.append(
                            {
                                "round": round_index,
                                "error": failure_summaries.get(
                                    task_id, "round missing"
                                ),
                            }
                        )
                    continue
                rows.append(
                    {
                        "round": round_index,
                        "scheme": measured["scheme"],
                        "feedback_bits": int(measured["feedback_bits"]),
                        "ber": float(measured["ber"]),
                        "mean_sinr_db": float(measured["mean_sinr_db"]),
                        "effective_snr_db": float(
                            measured["effective_snr_db"]
                        ),
                        "action": state.actions[round_index],
                    }
                )
            bers = [row["ber"] for row in rows]
            actions = [row["action"] for row in rows]
            degraded = None
            if failed_rounds or skipped_rounds:
                degraded = {
                    "failed_rounds": failed_rounds,
                    "skipped_rounds": skipped_rounds,
                    "n_reported": len(rows),
                }
            sta_rows.append(
                {
                    "name": state.name,
                    "dataset": dict(state.profile["dataset"]),
                    "config": state.config.label(),
                    "mode": state.mode,
                    "selection": state.selection,
                    "qos": dict(state.profile["qos"]),
                    "cost": dict(state.profile["cost"]),
                    "doppler_hz": state.profile["doppler_hz"],
                    "degraded": degraded,
                    "rounds": rows,
                    "summary": {
                        "mean_ber": float(np.mean(bers)) if bers else None,
                        "qos_violations": sum(
                            1 for ber in bers if ber > state.qos.max_ber
                        ),
                        "saturated": actions.count("saturated"),
                        "step_downs": actions.count("step-down"),
                        "step_ups": actions.count("step-up"),
                        "deadline_misses": int(state.deadline_misses()),
                        "final_scheme": rows[-1]["scheme"] if rows else None,
                        "mean_feedback_bits": (
                            float(
                                np.mean([row["feedback_bits"] for row in rows])
                            )
                            if rows
                            else None
                        ),
                    },
                }
            )

        groups: "dict[int, list[_StaState]]" = {}
        for state in states:
            groups.setdefault(state.catalog.bandwidth_mhz, []).append(state)
        round_rows = []
        for round_index in range(spec.n_rounds):
            reports = []
            total_rate = 0.0
            for bandwidth, members in sorted(groups.items()):
                # A degraded STA simply stops reporting: the round's
                # airtime aggregates cover the STAs that actually
                # sounded, exactly as a real AP would account them.
                reporting = [
                    m for m in members if round_index in m.measured
                ]
                if not reporting:
                    continue
                reports.append(
                    SoundingCampaign(
                        n_users=len(reporting),
                        bandwidth_mhz=bandwidth,
                        feedback_bits=[
                            int(m.measured[round_index]["feedback_bits"])
                            for m in reporting
                        ],
                        compute_times_s=[
                            m.round_compute_s(round_index)
                            for m in reporting
                        ],
                        interval_s=spec.interval_s,
                    ).report()
                )
                for member in reporting:
                    mcs = select_mcs(
                        member.measured[round_index]["mean_sinr_db"],
                        backoff_db=MCS_BACKOFF_DB,
                    )
                    total_rate += data_rate_bps(
                        mcs.index, bandwidth, n_streams=1
                    )
            if not reports:
                continue  # every STA degraded before this round
            combined = combine_reports(reports)
            round_rows.append(
                {
                    "round": round_index,
                    "feedback_bits_total": int(combined.feedback_bits_total),
                    "round_duration_s": float(combined.round_duration_s),
                    "occupancy": float(combined.occupancy),
                    "occupancy_ratio": float(combined.occupancy_ratio),
                    "feasible": bool(combined.feasible),
                    "data_fraction": float(combined.data_fraction),
                    "goodput_bps": float(combined.goodput_bps(total_rate)),
                }
            )

        modes: "dict[str, int]" = {}
        for row in sta_rows:
            modes[row["mode"]] = modes.get(row["mode"], 0) + 1
        degraded_stas = sorted(
            row["name"] for row in sta_rows if row["degraded"] is not None
        )
        reporting_bers = [
            row["summary"]["mean_ber"]
            for row in sta_rows
            if row["summary"]["mean_ber"] is not None
        ]
        summary = {
            "n_stas": spec.n_stas,
            "n_rounds": spec.n_rounds,
            "modes": modes,
            "degraded_stas": degraded_stas,
            "partial_coverage": bool(degraded_stas),
            "mean_ber": (
                float(np.mean(reporting_bers)) if reporting_bers else None
            ),
            "mean_occupancy": (
                float(np.mean([row["occupancy"] for row in round_rows]))
                if round_rows
                else None
            ),
            "max_occupancy_ratio": (
                float(max(row["occupancy_ratio"] for row in round_rows))
                if round_rows
                else None
            ),
            "infeasible_rounds": sum(
                1 for row in round_rows if not row["feasible"]
            ),
            "mean_goodput_bps": (
                float(np.mean([row["goodput_bps"] for row in round_rows]))
                if round_rows
                else None
            ),
            "hard_qos_failures": sum(
                row["summary"]["saturated"] for row in sta_rows
            ),
            "qos_violations": sum(
                row["summary"]["qos_violations"] for row in sta_rows
            ),
            "deadline_misses": sum(
                row["summary"]["deadline_misses"] for row in sta_rows
            ),
            "step_downs": sum(
                row["summary"]["step_downs"] for row in sta_rows
            ),
            "step_ups": sum(row["summary"]["step_ups"] for row in sta_rows),
        }

        return NetworkCampaignResult(
            campaign=spec.name,
            title=spec.title,
            fidelity=dict(spec.fidelity),
            interval_s=spec.interval_s,
            n_rounds=spec.n_rounds,
            stas=sta_rows,
            rounds=round_rows,
            summary=summary,
            n_round_tasks=spec.n_stas * spec.n_rounds,
            n_cached_rounds=n_cached,
            n_executed_rounds=n_executed,
            zoo_trained=0 if build is None else build.n_trained,
            zoo_cached=0 if build is None else build.n_cached,
            n_workers=self.n_workers,
            wall_s=wall_s,
            code_version=version,
            health=health,
        )


def run_campaign(
    spec: "NetworkCampaignSpec | str",
    fidelity: "Fidelity | None" = None,
    cache: "ResultCache | None" = None,
    store: "CheckpointStore | None" = None,
    n_workers: "int | None" = None,
    policy: "RetryPolicy | None" = None,
    faults=None,
    trace=None,
    **kwargs,
) -> NetworkCampaignResult:
    """Run a campaign (or a registered preset name).

    The one-call entry point: ``run_campaign("network-scale",
    n_stas=32, cache=..., store=...)`` resolves the preset via
    :func:`repro.runtime.registry.get_campaign` (extra keyword
    arguments reach the preset builder) and runs it through a
    :class:`NetworkCampaign`.
    """
    if isinstance(spec, str):
        from repro.runtime.registry import get_campaign

        spec = get_campaign(spec, fidelity=fidelity, **kwargs)
    elif fidelity is not None or kwargs:
        raise ConfigurationError(
            "fidelity/preset overrides apply to named campaigns only; "
            "build the NetworkCampaignSpec with them instead"
        )
    return NetworkCampaign(
        spec,
        cache=cache,
        store=store,
        n_workers=n_workers,
        policy=policy,
        faults=faults,
        trace=trace,
    ).run()
