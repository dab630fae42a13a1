"""Layer tracing from outside the library: wrappers, spans, self times.

``install()`` replaces public (and a few coordinator-private) callables
of ``repro`` with thin wrappers that push a span onto a per-process
stack.  Spans are folded into per-layer aggregates as they close (self
time = duration minus the time covered by child spans), kept in memory,
and never touch the library's own results.

Pool workers are forked from the coordinator after ``install()``, so
they inherit the wrappers.  A fork hook clears the inherited state, and
each worker writes its aggregates to ``<dump_dir>/worker-<pid>.json``
when it exits cleanly (a ``multiprocessing`` finalizer); ``collect()``
reads them after the benchmark has reaped the pool.

Attribution (``layer_table``): a layer's number is the wall-clock time
it accounts for on the coordinator's timeline.  In a serial run that is
exactly its self time.  While a pool runs, the coordinator sits inside
``run_tasks``; that blocked time is shared out to the layers the workers
ran, in proportion to their summed self time and capped at the workers'
mean busy time.  What is left is ``executor.self_s`` (dispatch, IPC and
idle workers).  The entry point's own self time is ``unattributed_s``,
so the table adds up to the traced wall time by construction.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

#: Root span: the call into the workload's entry point.
ENTRY = "entry"

#: Layers whose wrapped spans count only when called straight from the
#: training loop; elsewhere (inference) they stay in their caller.
TRAINING_ONLY = ("nn.forward", "nn.backward", "nn.optim_step", "nn.clip")

#: ``(module, attribute path, layer, counter)``.  A counter name makes
#: every call bump ``counters[counter]``.  Missing targets are skipped
#: and reported, so a refactor degrades attribution instead of crashing.
TARGETS = (
    ("repro.datasets.builder", "build_dataset", "datasets", "datasets.builds"),
    ("repro.channels.sampler", "CsiSampler.collect_session", "channels", None),
    ("repro.datasets.preprocess", "moving_median", "datasets.median", None),
    ("repro.phy.svd", "beamforming_matrices", "svd", None),
    ("repro.core.training", "train_splitbeam", "training", None),
    ("repro.baselines.lbscifi", "train_lbscifi", "training", None),
    ("repro.nn.trainer", "Trainer.fit", "training", "training.fits"),
    ("repro.nn.trainer", "Trainer._run_epoch", "training", "training.epochs"),
    ("repro.core.model", "SplitBeamNet.forward", "nn.forward", None),
    ("repro.core.model", "SplitBeamNet.backward", "nn.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optim_step", None),
    ("repro.nn.optim", "SGD.step", "nn.optim_step", None),
    ("repro.nn.optim", "Optimizer.clip_global_norm", "nn.clip", None),
    ("repro.core.training", "predict_bf", "feedback", None),
    ("repro.core.training", "bf_from_model_inputs", "feedback", None),
    ("repro.core.split", "SplitExecutor.run", "feedback", None),
    ("repro.core.split", "BottleneckQuantizer.quantize", "feedback", None),
    ("repro.core.split", "BottleneckQuantizer.dequantize", "feedback", None),
    ("repro.core.pipeline", "SplitBeamFeedback.reconstruct_bf", "feedback", None),
    ("repro.baselines.lbscifi", "LbSciFi.reconstruct_bf", "feedback", None),
    ("repro.baselines.dot11", "Dot11Feedback.reconstruct_bf", "feedback", None),
    ("repro.baselines.dot11", "Dot11Feedback.quantize_reconstruct", "feedback", None),
    ("repro.standard.givens", "givens_decompose", "codec.givens", None),
    ("repro.standard.givens", "givens_reconstruct", "codec.givens", None),
    ("repro.phy.link", "LinkSimulator.measure_ber", "link.ber", "link.calls"),
    ("repro.phy.link", "LinkSimulator.measure_metrics", "link.metrics", "link.calls"),
    ("repro.runtime.cache", "ResultCache.get", "store.get", "store.gets"),
    ("repro.runtime.cache", "ResultCache.put", "store.put", "store.puts"),
    ("repro.runtime.cache", "ResultCache.flush", "store.put", None),
    ("repro.runtime.hashing", "task_key", "store.key", None),
    ("repro.runtime.hashing", "code_version", "store.key", None),
    ("repro.runtime.checkpoints", "CheckpointStore.get", "checkpoints.get", None),
    ("repro.core.zoo_builder", "train_zoo", "zoo", None),
    ("repro.runtime.executor", "run_tasks", "executor", None),
    ("repro.runtime.tasks", "run_point", "executor.task", "executor.tasks"),
    ("repro.runtime.tasks", "train_zoo_entry", "executor.task", "executor.tasks"),
    ("repro.runtime.tasks", "network_round", "executor.task", "executor.tasks"),
    ("repro.runtime.planner", "plan_scenario", "coordinator", None),
    ("repro.runtime.engine", "ExperimentEngine._assemble", "coordinator", None),
    ("repro.core.network", "NetworkCampaign._plan_rounds", "coordinator", None),
    ("repro.core.network", "NetworkCampaign._assemble", "coordinator", None),
    ("repro.core.network", "_StaState.round_params", "coordinator", None),
    ("repro.core.network", "_StaState.observe", "coordinator", None),
    ("repro.sounding.campaign", "SoundingCampaign.report", "sounding", None),
    ("repro.sounding.campaign", "combine_reports", "sounding", None),
)

#: Layer-table rows: metric name -> the span layers it sums.  Their
#: values plus ``unattributed_s`` add up to the traced wall time.
TABLE = {
    "datasets.build_s": ("datasets",),
    "channels.collect_s": ("channels",),
    "datasets.median_s": ("datasets.median",),
    "svd.bf_s": ("svd",),
    "training.fit_s": ("training",),
    "nn.forward_s": ("nn.forward",),
    "nn.backward_s": ("nn.backward",),
    "nn.optim_step_s": ("nn.optim_step",),
    "nn.clip_s": ("nn.clip",),
    "feedback.s": ("feedback",),
    "codec.givens_s": ("codec.givens",),
    "link.ber_s": ("link.ber",),
    "link.metrics_s": ("link.metrics",),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
    "store.key_s": ("store.key",),
    "checkpoints.get_s": ("checkpoints.get",),
    "zoo.build_s": ("zoo",),
    "executor.self_s": ("executor", "executor.task"),
    "coordinator.self_s": ("coordinator",),
    "sounding.airtime_s": ("sounding",),
}


class _State:
    """Per-process span stack and aggregates."""

    def __init__(self) -> None:
        self.reset()
        self.active = False
        self.dump_dir: "str | None" = None
        self.coordinator_pid = os.getpid()

    def reset(self) -> None:
        self.stack: list = []  # [layer, start, child_time]
        self.layers: dict = {}  # layer -> [self_s, total_s, entries]
        self.counters: dict = {}
        self.models: set = set()
        self.cache_hits = 0
        self.zoo = [0, 0]  # trained, cached
        self.finalizer = None


STATE = _State()
_INSTALLED: list = []  # (owner, name, original)


def _after_fork_in_child() -> None:
    STATE.reset()


def _worker_dump() -> None:
    if STATE.dump_dir is None:
        return
    payload = {
        "layers": STATE.layers,
        "counters": STATE.counters,
        "models": sorted(STATE.models),
    }
    path = Path(STATE.dump_dir) / f"worker-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _model_key(fn, args, kwargs) -> str:
    """Content key of one training call: dataset bytes + settings."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    settings = dict(bound.arguments)
    dataset = settings.pop("dataset")
    digest = hashlib.sha256(dataset.csi.tobytes()).hexdigest()[:16]
    return f"{fn.__name__}:{digest}:{sorted(settings.items())!r}"


def _note_result(fn, layer, args, kwargs, result) -> None:
    if fn.__name__ in ("train_splitbeam", "train_lbscifi"):
        STATE.models.add(_model_key(fn, args, kwargs))
    elif layer == "store.get" and result is not None:
        STATE.cache_hits += 1
    elif layer == "zoo":
        STATE.zoo[0] += int(result.n_trained)
        STATE.zoo[1] += int(result.n_cached)


def _wrap(fn, layer: str, counter: "str | None"):
    training_only = layer in TRAINING_ONLY

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = STATE
        if not state.active:
            return fn(*args, **kwargs)
        stack = state.stack
        if training_only and (not stack or stack[-1][0] != "training"):
            return fn(*args, **kwargs)
        if state.finalizer is None and os.getpid() != state.coordinator_pid:
            state.finalizer = multiprocessing.util.Finalize(
                None, _worker_dump, exitpriority=10
            )
        if counter is not None:
            state.counters[counter] = state.counters.get(counter, 0) + 1
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            stack.pop()
            record = state.layers.get(layer)
            if record is None:
                record = state.layers[layer] = [0.0, 0.0, 0]
            record[0] += duration - frame[2]
            if not (stack and stack[-1][0] == layer):
                record[1] += duration
                record[2] += 1
            if stack:
                stack[-1][2] += duration
        _note_result(fn, layer, args, kwargs, result)
        return result

    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind ``original`` in every loaded ``repro`` module namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                _INSTALLED.append((module, attr, original))


def install(dump_dir: str) -> "list[str]":
    """Wrap every target; returns the targets that could not be found."""
    import importlib

    if _INSTALLED:
        raise RuntimeError("layer wrappers are already installed")
    missing = []
    for module_name, path, layer, counter in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if outer else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        wrapper = _wrap(original, layer, counter)
        if outer:  # a method: patch the class that defines it
            setattr(owner, name, wrapper)
            _INSTALLED.append((owner, name, original))
        else:
            _replace_everywhere(original, wrapper)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    STATE.dump_dir = dump_dir
    return missing


def uninstall() -> None:
    """Restore every wrapped callable (the fork hook stays, inert)."""
    while _INSTALLED:
        owner, name, original = _INSTALLED.pop()
        setattr(owner, name, original)
    STATE.active = False


def run_traced(call):
    """Run ``call()`` as the entry span; returns ``(result, wall_s)``."""
    STATE.reset()
    STATE.active = True
    frame = [ENTRY, time.perf_counter(), 0.0]
    STATE.stack.append(frame)
    try:
        result = call()
    finally:
        wall = time.perf_counter() - frame[1]
        STATE.stack.pop()
        STATE.active = False
    STATE.layers[ENTRY] = [wall - frame[2], wall, 1]
    return result, wall


def collect() -> "list[dict]":
    """Read (and delete) the aggregates dumped by exited pool workers."""
    dumps = []
    for path in sorted(Path(STATE.dump_dir).glob("worker-*.json")):
        dumps.append(json.loads(path.read_text()))
        path.unlink()
    return dumps


def layer_table(wall_s: float, n_workers: int, workers: "list[dict]") -> dict:
    """Per-layer metrics of one traced run (see the module docstring)."""
    coordinator = {k: list(v) for k, v in STATE.layers.items()}
    worker_self: dict = {}
    worker_task_s = 0.0
    models = set(STATE.models)
    counters = dict(STATE.counters)
    for dump in workers:
        for layer, (self_s, total_s, _entries) in dump["layers"].items():
            worker_self[layer] = worker_self.get(layer, 0.0) + self_s
            if layer == "executor.task":
                worker_task_s += total_s
        for name, count in dump["counters"].items():
            counters[name] = counters.get(name, 0) + count
        models.update(dump["models"])

    def self_of(layer):
        return coordinator.get(layer, [0.0, 0.0, 0])[0]

    def total_of(layer):
        return coordinator.get(layer, [0.0, 0.0, 0])[1]

    blocked = self_of("executor")
    busy = sum(worker_self.values())
    shared = min(blocked, busy / max(n_workers, 1)) if busy > 0 else 0.0
    attributed = {
        layer: self_s + (shared * worker_self.get(layer, 0.0) / busy if busy else 0.0)
        for layer, (self_s, _t, _n) in coordinator.items()
    }
    for layer, self_s in worker_self.items():
        if layer not in attributed:
            attributed[layer] = shared * self_s / busy
    attributed["executor"] = attributed.get("executor", 0.0) - shared

    metrics = {
        name: sum(attributed.get(layer, 0.0) for layer in layers)
        for name, layers in TABLE.items()
    }
    metrics["unattributed_s"] = attributed.get(ENTRY, 0.0)
    metrics["trace.wall_s"] = wall_s
    metrics["unattributed_share"] = metrics["unattributed_s"] / wall_s

    fits = counters.get("training.fits", 0)
    task_s = total_of("executor.task") + worker_task_s
    run_s = total_of("executor")
    gets = counters.get("store.gets", 0)
    metrics.update(
        {
            "datasets.builds": counters.get("datasets.builds", 0),
            "training.fits": fits,
            "training.models": len(models),
            "training.useful_ratio": len(models) / fits if fits else 1.0,
            "training.epochs": counters.get("training.epochs", 0),
            "feedback.calls": coordinator.get("feedback", [0, 0, 0])[2]
            + sum(d["layers"].get("feedback", [0, 0, 0])[2] for d in workers),
            "link.calls": counters.get("link.calls", 0),
            "store.gets": gets,
            "store.hit_ratio": STATE.cache_hits / gets if gets else 0.0,
            "store.puts": counters.get("store.puts", 0),
            "zoo.trained": STATE.zoo[0],
            "zoo.cached": STATE.zoo[1],
            "executor.run_s": run_s,
            "executor.task_s": task_s,
            "executor.busy_share": (
                task_s / (run_s * max(n_workers, 1)) if run_s > 0 else 0.0
            ),
            "executor.tasks": counters.get("executor.tasks", 0),
        }
    )
    return metrics
