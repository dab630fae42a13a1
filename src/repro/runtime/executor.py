"""Task-DAG execution: fault-tolerant worker pools with a serial fallback.

A :class:`Task` names a *pure* function (an importable ``"module:name"``
string, or a picklable callable) and the parameters it receives as a
single mapping.  Because tasks are pure and fully seeded, and BLAS runs
one thread wide in every process, the result of :func:`run_tasks` is
bit-identical whatever the worker count or host — the pool only changes
wall time, never values.  The same purity powers the
fault-tolerance contract: a failed attempt can always be retried (and a
crashed worker's chunk replayed) with byte-identical results, so chaos
costs retries, never bytes.

Dependencies form a DAG.  A dependent task may compute its parameters
from its dependencies' results through a ``resolve`` hook, which runs in
the coordinating process, in plan order — sequential logic (such as an
adaptive controller reacting round by round) stays deterministic while
the measurement itself still ships to a worker.  Hooks run exactly once
per task, before its first dispatch; retries and crash replays reuse the
already-computed parameters, so coordinator state (RNG draws, controller
observations) is never consumed twice.

Sharding: tasks carrying the same ``shard`` label are executed by the
same worker in plan order, so per-process memoization (e.g. one worker
training one model that several points reuse) stays effective.

Dispatch economics: within a wave, shard chunks are *packed* into a
small bounded number of messages (at most 4 per worker, keeping the
pool's dynamic balancing effective), so a hundred small independent
tasks cost a handful of IPC round-trips instead of a hundred — and with a
:class:`~repro.runtime.payloads.PayloadStore` attached, large repeated
payloads (models, round slices) travel as content-addressed references
that each worker materializes once per run.  Both are pure transport
optimizations: parameters are computed in plan order either way and
results are byte-identical for any worker count.

Fault tolerance (see :mod:`repro.runtime.faults` for injection):

- every failed attempt is retried up to :attr:`RetryPolicy.retries`
  times with deterministic exponential backoff; the remote traceback is
  captured as a string in the worker and carried on
  :attr:`TaskExecutionError.remote_traceback`;
- a worker hard-crash (``os._exit``, OOM kill, segfault) breaks the
  pool; the coordinator salvages every chunk that already completed,
  rebuilds the pool, and replays only the in-flight chunks' unfinished
  tasks;
- a chunk that overruns its per-task timeout budget is treated the same
  way (pool killed + rebuilt, unfinished tasks replayed);
- after :attr:`RetryPolicy.max_pool_failures` consecutive pool
  failures the run degrades to the deterministic in-process executor
  for its remainder;
- everything is tallied in a :class:`RunHealth` object the engines
  thread into their run statistics.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError
from repro.obs.trace import current_tracer, span_id
from repro.perf.profile import merge_profiles, profile_snapshot
from repro.runtime import knobs
from repro.runtime.blas import pin_blas_thread, single_blas_thread
from repro.runtime.faults import FaultPlan, InjectedFaultError, active_plan
from repro.runtime.payloads import PayloadStore, collect_refs, load_payload, resolve_refs

__all__ = [
    "Task",
    "TaskExecutionError",
    "RetryPolicy",
    "RunHealth",
    "run_tasks",
    "resolve_worker_count",
]

#: Environment variable consulted when ``n_workers`` is not given
#: (canonical home: :mod:`repro.runtime.knobs`; re-exported here).
WORKERS_ENV = knobs.WORKERS_ENV


class TaskExecutionError(ReproError):
    """A task failed in the executor after exhausting its retries.

    ``remote_traceback`` carries the formatted traceback captured where
    the failure actually happened — inside a worker process, where the
    live exception object (and its ``__cause__`` chain) would not
    survive pickling back to the coordinator.
    """

    def __init__(
        self,
        message: str,
        task_id: "str | None" = None,
        remote_traceback: "str | None" = None,
        injected: bool = False,
    ) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.remote_traceback = remote_traceback
        self.injected = injected

    def __reduce__(self):
        # Exception.__reduce__ would replay __init__ with args only,
        # dropping the remote traceback across pickling — the very
        # debuggability this class exists to preserve.
        return (
            type(self),
            (self.args[0], self.task_id, self.remote_traceback, self.injected),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry / timeout knobs for one :func:`run_tasks` call.

    Parameters
    ----------
    retries:
        Failed attempts each task may absorb beyond its first try.
    timeout_s:
        Per-task timeout budget; a packed chunk's budget is
        ``timeout_s * len(chunk)``.  ``None`` disables timeouts.  Only
        the pool path can preempt a stuck task — the in-process
        executor cannot interrupt itself and ignores this knob.
    backoff_s:
        Base of the deterministic exponential backoff between retry
        rounds (``backoff_s * 2**round``, capped at 2^6); no jitter,
        so runs with identical failures sleep identically.
    max_pool_failures:
        Consecutive pool crashes/timeouts tolerated before the run
        degrades to the in-process executor.
    """

    retries: int = 2
    timeout_s: "float | None" = None
    backoff_s: float = 0.05
    max_pool_failures: int = 3

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.max_pool_failures < 1:
            raise ConfigurationError("max_pool_failures must be >= 1")


DEFAULT_POLICY = RetryPolicy()


@dataclass
class RunHealth:
    """Fault-tolerance statistics for one executor run.

    The engines attach :meth:`to_dict` to their run statistics (and,
    opt-in, to JSON manifests).  Counter semantics: ``task_errors``
    counts failed *attempts* (``injected_faults`` of which the fault
    plan predicted or marked), ``retries`` counts re-dispatches that
    followed them, ``worker_crashes``/``timeouts`` count pool-level
    failures, ``pool_rebuilds``/``serial_fallbacks`` the recoveries.
    ``failed`` lists tasks that exhausted their retries (collect-error
    mode), ``skipped`` their never-attempted dependents.
    """

    retries: int = 0
    task_errors: int = 0
    injected_faults: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    fallback_reason: "str | None" = None
    failed: "list[dict]" = field(default_factory=list)
    skipped: "list[str]" = field(default_factory=list)

    @property
    def faulted(self) -> bool:
        """Whether anything at all went wrong (or was injected)."""
        return bool(
            self.task_errors
            or self.timeouts
            or self.worker_crashes
            or self.serial_fallbacks
            or self.failed
            or self.skipped
        )

    def to_dict(self) -> dict:
        """JSON-able summary (failure lists sorted for stable output)."""
        return {
            "retries": self.retries,
            "task_errors": self.task_errors,
            "injected_faults": self.injected_faults,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
            "fallback_reason": self.fallback_reason,
            "failed": sorted(self.failed, key=lambda row: row["task"]),
            "skipped": sorted(self.skipped),
        }


@dataclass(frozen=True)
class Task:
    """One pure unit of work in a DAG.

    Parameters
    ----------
    task_id:
        Unique name; dependency edges and the result dict use it.
    fn:
        ``"module:callable"`` or a picklable callable taking one mapping.
    params:
        The argument mapping (ignored when ``resolve`` is given).
    deps:
        Task ids that must complete first.
    resolve:
        Optional hook ``resolve({dep_id: result, ...}) -> params`` run in
        the coordinator, in plan order, once all ``deps`` completed.
    shard:
        Optional affinity label: tasks sharing a shard run serially on
        one worker (within a wave), preserving plan order.
    """

    task_id: str
    fn: "str | Callable[[Mapping], object]"
    params: Mapping | None = None
    deps: tuple[str, ...] = ()
    resolve: "Callable[[dict], Mapping] | None" = None
    shard: str | None = None


def resolve_worker_count(n_workers: "int | None") -> int:
    """Effective worker count: explicit value, else $REPRO_RUNTIME_WORKERS, else 1."""
    if n_workers is None:
        raw = knobs.read_knob(WORKERS_ENV, "1")
        try:
            n_workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    return int(n_workers)


def _call(fn, params: Mapping | None):
    if isinstance(fn, str):
        module_name, _, attr = fn.partition(":")
        if not module_name or not attr:
            raise ConfigurationError(
                f"task fn must be 'module:callable', got {fn!r}"
            )
        fn = getattr(importlib.import_module(module_name), attr)
    return fn(dict(params or {}))


def _error_summary(exc: BaseException) -> str:
    """One stable line describing ``exc`` (class + message, no paths)."""
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


#: Worker-process baseline of the ``@profiled`` registry.  Forked
#: workers inherit the coordinator's registry contents; the first chunk
#: snapshots them so only worker-observed time ships back, and each
#: later chunk ships the delta since the previous one.
_WORKER_PROFILE_BASE: "dict[str, tuple[int, float, float]] | None" = None


def _worker_profile_delta() -> "dict[str, tuple[int, float, float]]":
    global _WORKER_PROFILE_BASE
    snapshot = profile_snapshot()
    base = _WORKER_PROFILE_BASE or {}
    delta = {}
    for name, (calls, total_s, max_s) in snapshot.items():
        prev_calls, prev_total, _ = base.get(name, (0, 0.0, 0.0))
        if calls != prev_calls or total_s != prev_total:
            delta[name] = (calls - prev_calls, total_s - prev_total, max_s)
    _WORKER_PROFILE_BASE = snapshot
    return delta


def _run_chunk(message):
    """Worker entry point: run one packed chunk serially, in plan order.

    ``message`` is ``(spool_root, fault_plan, trace_ctx, [(task_id, fn,
    params, attempt), ...])``; parameters may contain
    :class:`PayloadRef` markers, resolved here against the spool
    (memoized per worker process, so a payload shared by many tasks is
    unpickled once).

    Failures never raise across the process boundary: each task yields
    an outcome tuple — ``("ok", task_id, result)`` or ``("error",
    task_id, formatted_traceback, summary, injected)`` — so one task's
    exception cannot take down its chunk-mates, and the original
    traceback travels as a plain string that survives pickling.

    The return value is ``(outcomes, profile_delta, spans)``:
    ``profile_delta`` is this worker's ``@profiled`` registry delta
    since its previous chunk (always shipped — without it, worker-side
    profiling is silently lost when the pool exits), and ``spans`` are
    per-task execute spans recorded when ``trace_ctx = (epoch,
    execute_parent_id)`` is set.  Span ids derive from the
    coordinator-supplied logical parent via :func:`~repro.obs.trace.
    span_id`, so the merged tree is identical whatever the worker count;
    timestamps use the coordinator's ``perf_counter`` epoch, which
    forked workers share.
    """
    global _WORKER_PROFILE_BASE
    spool_root, plan, trace_ctx, items = message
    if _WORKER_PROFILE_BASE is None:
        _WORKER_PROFILE_BASE = profile_snapshot()
    out = []
    spans = []
    pid = os.getpid()
    for task_id, fn, params, attempt in items:
        start = time.perf_counter()
        try:
            if plan is not None:
                plan.apply_task_faults(task_id, attempt, in_worker=True)
            if spool_root is not None:
                params = resolve_refs(
                    params, lambda ref: load_payload(spool_root, ref.digest)
                )
            out.append(("ok", task_id, _call(fn, params)))
        except Exception as exc:
            out.append(
                (
                    "error",
                    task_id,
                    traceback.format_exc(),
                    _error_summary(exc),
                    isinstance(exc, InjectedFaultError),
                )
            )
        if trace_ctx is not None:
            epoch, parent = trace_ctx
            name = f"task:{task_id}"
            spans.append(
                {
                    "type": "span",
                    "id": span_id(parent, name, attempt),
                    "parent": parent,
                    "name": name,
                    "cat": "task",
                    "start_s": start - epoch,
                    "end_s": time.perf_counter() - epoch,
                    "pid": pid,
                    "attrs": {"task": task_id, "attempt": attempt},
                }
            )
    return out, _worker_profile_delta(), spans


def _topological(tasks: Sequence[Task]) -> list[Task]:
    """Kahn's algorithm preserving plan order; rejects cycles/bad edges."""
    by_id: dict[str, Task] = {}
    for task in tasks:
        if task.task_id in by_id:
            raise ConfigurationError(f"duplicate task id {task.task_id!r}")
        by_id[task.task_id] = task
    for task in tasks:
        for dep in task.deps:
            if dep not in by_id:
                raise ConfigurationError(
                    f"task {task.task_id!r} depends on unknown task {dep!r}"
                )
    ordered: list[Task] = []
    done: set[str] = set()
    pending = list(tasks)
    while pending:
        ready = [t for t in pending if set(t.deps) <= done]
        if not ready:
            cycle = sorted(t.task_id for t in pending)
            raise ConfigurationError(f"task graph has a cycle among {cycle}")
        ordered.extend(ready)
        done.update(t.task_id for t in ready)
        pending = [t for t in pending if t.task_id not in done]
    return ordered


def _make_pool(n_workers: int) -> ProcessPoolExecutor:
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(method)
    return ProcessPoolExecutor(
        max_workers=n_workers, mp_context=context, initializer=pin_blas_thread
    )


#: Messages per worker a packed wave may use.  1 would minimize IPC but
#: lose all dynamic load balancing (two expensive tasks round-robined
#: into one group serialize while other workers idle); a small
#: oversubscription keeps the pool's work-stealing effective while a
#: 100-round wave still costs ~4*workers messages instead of 100.
_PACK_OVERSUBSCRIPTION = 4


def _pack_wave(wave, wave_params, n_workers: int, attempts=None):
    """Pack a wave's shard chunks into at most ``4 * n_workers`` messages.

    Tasks sharing a shard stay contiguous (one worker, plan order);
    singleton chunks round-robin across the messages in plan order.
    Purely a transport decision — parameters were already computed, in
    plan order, by the caller.  Each packed item carries the task's
    dispatch-attempt index so the (deterministic) fault plan can count
    occurrences without any cross-process state.
    """
    chunks: dict = {}
    for task in wave:
        key = task.shard if task.shard is not None else ("", task.task_id)
        chunks.setdefault(key, []).append(task)
    n_groups = min(n_workers * _PACK_OVERSUBSCRIPTION, len(chunks))
    groups: list = [[] for _ in range(n_groups)]
    for index, chunk in enumerate(chunks.values()):
        groups[index % len(groups)].extend(chunk)
    return [
        [
            (
                t.task_id,
                t.fn,
                wave_params[t.task_id],
                0 if attempts is None else attempts.get(t.task_id, 0),
            )
            for t in group
        ]
        for group in groups
        if group
    ]


class _Execution:
    """Coordinator-side state for one :func:`run_tasks` call."""

    def __init__(
        self,
        n_workers: int,
        on_result,
        payloads: "PayloadStore | None",
        policy: RetryPolicy,
        health: RunHealth,
        plan: "FaultPlan | None",
        collect_errors: bool,
    ) -> None:
        self.n_workers = n_workers
        self.on_result = on_result
        self.payloads = payloads
        self.policy = policy
        self.health = health
        self.plan = plan
        self.collect_errors = collect_errors
        self.results: dict = {}
        self.done: "set[str]" = set()
        self.failed: "dict[str, str]" = {}  # task_id -> summary
        self.skipped: "set[str]" = set()
        self.attempts: "dict[str, int]" = {}  # dispatches (fault occurrences)
        self.failures: "dict[str, int]" = {}  # observed failed attempts
        self.retry_round = 0
        self.pool_failures = 0
        self.serial_only = False
        self._pool: "ProcessPoolExecutor | None" = None
        self.tracer = current_tracer()
        # Task spans parent to the run's execute-phase span — a *logical*
        # parent, independent of which wave round or chunk the transport
        # happened to place the task in — so the span tree's shape is
        # identical whatever the worker count.
        self._task_parent = ""

    # -- tracing -----------------------------------------------------------------

    def _maybe_span(self, name: str, category: str = "executor", **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, category, **attrs)

    def _task_span(self, task: Task, attempt: int):
        """Coordinator-side task span, id-compatible with the worker's."""
        if self.tracer is None:
            return nullcontext()
        name = f"task:{task.task_id}"
        return self.tracer.span(
            name,
            "task",
            parent=self._task_parent,
            fixed_id=span_id(self._task_parent, name, attempt),
            task=task.task_id,
            attempt=attempt,
            deps=list(task.deps),
        )

    # -- shared bookkeeping ------------------------------------------------------

    def _complete(self, task_id: str, result) -> None:
        self.results[task_id] = result
        self.done.add(task_id)
        if self.on_result is not None:
            self.on_result(task_id, result)

    def _final_failure(
        self, task_id: str, remote_traceback: str, summary: str
    ) -> None:
        if not self.collect_errors:
            raise TaskExecutionError(
                f"task {task_id!r} failed after "
                f"{self.failures.get(task_id, 1)} attempt(s): {summary}\n"
                f"{remote_traceback}",
                task_id=task_id,
                remote_traceback=remote_traceback,
            )
        self.failed[task_id] = summary
        self.health.failed.append({"task": task_id, "summary": summary})

    def _record_error(self, task_id: str, injected: bool) -> bool:
        """Count one failed attempt; True when the task may retry."""
        self.health.task_errors += 1
        if injected:
            self.health.injected_faults += 1
        if self.tracer is not None:
            self.tracer.metrics.inc("executor.task_errors")
        self.failures[task_id] = self.failures.get(task_id, 0) + 1
        if self.failures[task_id] <= self.policy.retries:
            self.health.retries += 1
            if self.tracer is not None:
                self.tracer.metrics.inc("executor.retries")
                self.tracer.event("retry", "executor", task=task_id)
            return True
        return False

    def _backoff(self) -> None:
        if self.policy.backoff_s > 0:
            delay = self.policy.backoff_s * (2 ** min(self.retry_round, 6))
            if self.tracer is not None:
                with self.tracer.span("backoff", "executor", seconds=delay):
                    time.sleep(delay)
            else:
                time.sleep(delay)
        self.retry_round += 1

    def _dispatch_attempt(self, task_id: str, in_worker: bool) -> int:
        """The attempt index of the next dispatch; advances the counter."""
        attempt = self.attempts.get(task_id, 0)
        self.attempts[task_id] = attempt + 1
        if self.plan is not None:
            # Pool-path crashes and delays leave no error outcome to
            # count on the coordinator side, so tally them when they are
            # scheduled — the plan is deterministic, so the prediction
            # matches what the worker does.  Serial-path crashes
            # downgrade to errors and are counted on observation.
            for rule in self.plan.task_rules(task_id, attempt):
                if rule.kind == "delay" or (rule.kind == "crash" and in_worker):
                    self.health.injected_faults += 1
        return attempt

    def _skip_blocked(self, pending: "list[Task]") -> "list[Task]":
        """Drop (and record) tasks whose dependencies failed or skipped."""
        if not self.failed and not self.skipped:
            return pending
        remaining = []
        for task in pending:
            unrunnable = self.failed.keys() | self.skipped
            if any(dep in unrunnable for dep in task.deps):
                self.skipped.add(task.task_id)
                self.health.skipped.append(task.task_id)
            else:
                remaining.append(task)
        # A newly skipped task may block another later in plan order;
        # the list is topologically ordered, so one forward pass per
        # call plus the caller's wave loop reaches the fixed point.
        if len(remaining) != len(pending):
            return self._skip_blocked(remaining)
        return remaining

    def _wave_params(self, wave: "list[Task]") -> dict:
        """Resolve parameters in plan order, exactly once per task."""
        params = {}
        for task in wave:
            if task.resolve is None:
                computed = task.params
            else:
                computed = task.resolve(
                    {dep: self.results[dep] for dep in task.deps}
                )
            params[task.task_id] = dict(computed or {})
        return params

    # -- serial path -------------------------------------------------------------

    def _run_task_serial(self, task: Task, params) -> None:
        while True:
            attempt = self._dispatch_attempt(task.task_id, in_worker=False)
            try:
                with self._task_span(task, attempt):
                    if self.plan is not None:
                        self.plan.apply_task_faults(
                            task.task_id, attempt, in_worker=False
                        )
                    resolved = params
                    if self.payloads is not None:
                        resolved = self.payloads.resolve(resolved)
                    result = _call(task.fn, resolved)
            except (ConfigurationError, TaskExecutionError):
                raise
            except Exception as exc:
                injected = isinstance(exc, InjectedFaultError)
                if self._record_error(task.task_id, injected):
                    self._backoff()
                    continue
                remote = traceback.format_exc()
                summary = _error_summary(exc)
                if not self.collect_errors:
                    raise TaskExecutionError(
                        f"task {task.task_id!r} failed after "
                        f"{self.failures[task.task_id]} attempt(s): "
                        f"{summary}",
                        task_id=task.task_id,
                        remote_traceback=remote,
                        injected=injected,
                    ) from exc
                self._final_failure(task.task_id, remote, summary)
                return
            self._complete(task.task_id, result)
            return

    def _run_wave_serial(self, wave: "list[Task]", params: dict) -> None:
        for task in wave:
            self._run_task_serial(task, params[task.task_id])

    # -- pool path ---------------------------------------------------------------

    def _ensure_pool(self) -> bool:
        """Create the pool if needed; False -> degrade to serial."""
        if self._pool is not None:
            return True
        try:
            self._pool = _make_pool(self.n_workers)
        except (OSError, ValueError, ImportError) as exc:
            reason = (
                f"worker pool unavailable ({exc!r}); falling back to the "
                "deterministic in-process executor"
            )
            warnings.warn(reason, RuntimeWarning, stacklevel=4)
            self.health.serial_fallbacks += 1
            if self.health.fallback_reason is None:
                self.health.fallback_reason = reason
            self.serial_only = True
            return False
        return True

    def _kill_pool(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _consume_chunk(self, chunk_result, remaining: dict, deps_by_id: dict) -> None:
        """Fold one worker chunk's outcomes + telemetry into the run.

        Profile deltas merge unconditionally — that wall time genuinely
        elapsed even if the chunk is a salvaged replay.  Worker spans
        are absorbed only for tasks still outstanding (their deps
        stamped in from the plan, which never crosses the IPC boundary)
        so a replayed chunk cannot duplicate a task's timeline row.
        """
        outcomes, profile_delta, spans = chunk_result
        if profile_delta:
            merge_profiles(profile_delta)
        if self.tracer is not None and spans:
            fresh = [s for s in spans if s["attrs"]["task"] in remaining]
            for span in fresh:
                span["attrs"]["deps"] = deps_by_id.get(
                    span["attrs"]["task"], []
                )
            self.tracer.absorb(fresh)
        self._handle_outcomes(outcomes, remaining)

    def _handle_outcomes(self, outcomes, remaining: dict) -> None:
        for outcome in outcomes:
            task_id = outcome[1]
            if task_id not in remaining:
                continue  # a salvaged duplicate from a replayed chunk
            if outcome[0] == "ok":
                del remaining[task_id]
                self._complete(task_id, outcome[2])
            else:
                _, _, remote, summary, injected = outcome
                if self._record_error(task_id, injected):
                    continue  # stays in remaining -> repacked next round
                del remaining[task_id]
                self._final_failure(task_id, remote, summary)

    def _salvage(self, futures, remaining: dict, deps_by_id: dict) -> None:
        """Collect every chunk that finished before the pool broke."""
        for future in futures:
            if not future.done():
                continue
            try:
                chunk_result = future.result(timeout=0)
            except Exception:
                continue  # the chunk that crashed/was cancelled
            self._consume_chunk(chunk_result, remaining, deps_by_id)

    def _on_pool_failure(self, kind: str, detail: str, remaining) -> None:
        """Count, rebuild (or degrade to serial), and let the wave replay."""
        if kind == "timeout":
            self.health.timeouts += 1
        else:
            self.health.worker_crashes += 1
        if self.tracer is not None:
            self.tracer.metrics.inc(
                "executor.timeouts" if kind == "timeout"
                else "executor.worker_crashes"
            )
        self._kill_pool()
        self.pool_failures += 1
        if self.pool_failures >= self.policy.max_pool_failures:
            self.health.serial_fallbacks += 1
            if self.health.fallback_reason is None:
                self.health.fallback_reason = (
                    f"{self.pool_failures} pool failure(s), last: {detail}; "
                    "degrading to the deterministic in-process executor"
                )
            warnings.warn(
                self.health.fallback_reason, RuntimeWarning, stacklevel=5
            )
            self.serial_only = True
            if self.tracer is not None:
                self.tracer.metrics.inc("executor.serial_fallbacks")
                self.tracer.event(
                    "serial_fallback", "executor", kind=kind, detail=detail
                )
        else:
            self.health.pool_rebuilds += 1
            if self.tracer is not None:
                self.tracer.metrics.inc("executor.pool_rebuilds")
                self.tracer.event(
                    "pool_rebuild", "executor", kind=kind, detail=detail
                )

    def _run_wave_pool(self, wave: "list[Task]", params: dict) -> None:
        remaining = {task.task_id: task for task in wave}
        deps_by_id = {task.task_id: list(task.deps) for task in wave}
        while remaining:
            if self.serial_only or not self._ensure_pool():
                pending_tasks = [
                    task for task in wave if task.task_id in remaining
                ]
                self._run_wave_serial(
                    pending_tasks, {t: params[t] for t in remaining}
                )
                return
            spool_root = None
            if self.payloads is not None:
                digests = collect_refs(
                    [params[task_id] for task_id in remaining]
                )
                if digests:
                    # spill() also rehydrates spool files that vanished
                    # since the last wave (see PayloadStore).
                    spool_root = self.payloads.spill(digests)
            attempts = {
                task_id: self._dispatch_attempt(task_id, in_worker=True)
                for task_id in remaining
            }
            messages = _pack_wave(
                [task for task in wave if task.task_id in remaining],
                params,
                self.n_workers,
                attempts=attempts,
            )
            trace_ctx = None
            if self.tracer is not None:
                trace_ctx = (self.tracer.epoch, self._task_parent)
                self.tracer.metrics.inc("executor.messages", len(messages))
                self.tracer.metrics.observe(
                    "executor.queue_depth", len(remaining)
                )
            with self._maybe_span(
                "dispatch",
                messages=len(messages),
                tasks=len(remaining),
            ):
                payloads_msgs = [
                    (spool_root, self.plan, trace_ctx, message)
                    for message in messages
                ]
                if self.tracer is not None:
                    self.tracer.metrics.inc(
                        "executor.message_bytes",
                        sum(len(pickle.dumps(m)) for m in payloads_msgs),
                    )
                futures = [
                    self._pool.submit(_run_chunk, payload)
                    for payload in payloads_msgs
                ]
                try:
                    for future, message in zip(futures, messages):
                        budget = None
                        if self.policy.timeout_s is not None:
                            budget = self.policy.timeout_s * len(message)
                        self._consume_chunk(
                            future.result(timeout=budget),
                            remaining,
                            deps_by_id,
                        )
                except BrokenProcessPool as exc:
                    self._salvage(futures, remaining, deps_by_id)
                    self._on_pool_failure("crash", repr(exc), remaining)
                except FuturesTimeoutError:
                    self._salvage(futures, remaining, deps_by_id)
                    self._on_pool_failure(
                        "timeout",
                        f"chunk exceeded its "
                        f"{self.policy.timeout_s:g}s/task budget",
                        remaining,
                    )
                else:
                    self.pool_failures = 0  # a clean round resets strikes
                    if remaining:
                        self._backoff()  # only retries left in the wave

    # -- the wave loop -----------------------------------------------------------

    def execute(self, ordered: "list[Task]") -> dict:
        if self.tracer is None:
            return self._execute(ordered)
        with self.tracer.span(
            "execute",
            "executor",
            n_tasks=len(ordered),
            n_workers=self.n_workers,
        ) as span:
            self._task_parent = span.span_id
            return self._execute(ordered)

    def _execute(self, ordered: "list[Task]") -> dict:
        pending = list(ordered)
        wave_index = 0
        while pending:
            pending = self._skip_blocked(pending)
            if not pending:
                break
            wave = [t for t in pending if set(t.deps) <= self.done]
            if not wave:
                # Only reachable if a dependency failed in raise mode —
                # which raised — or via skip_blocked; defensive guard.
                break
            with self._maybe_span(
                "wave", index=wave_index, size=len(wave)
            ):
                params = self._wave_params(wave)
                if self.serial_only or self.n_workers <= 1:
                    self._run_wave_serial(wave, params)
                else:
                    self._run_wave_pool(wave, params)
            wave_index += 1
            settled = self.done | self.failed.keys() | self.skipped
            pending = [t for t in pending if t.task_id not in settled]
        return self.results


def run_tasks(
    tasks: Sequence[Task],
    n_workers: "int | None" = None,
    on_result: "Callable[[str, object], None] | None" = None,
    payloads: "PayloadStore | None" = None,
    policy: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
    health: "RunHealth | None" = None,
    collect_errors: bool = False,
) -> dict:
    """Execute a task DAG; returns ``{task_id: result}``.

    ``n_workers=1`` (the default when ``$REPRO_RUNTIME_WORKERS`` is
    unset) runs everything in-process.  With more workers, independent
    tasks run on a process pool — results are identical either way.

    ``on_result(task_id, result)`` fires in the coordinator as each
    task completes, before the run finishes — the engine persists cache
    entries through it, so an interrupted run keeps its completed
    points.

    ``payloads`` (a :class:`~repro.runtime.payloads.PayloadStore`)
    resolves interned parameter references: in memory for the serial
    path, via the write-once spool for pool workers.

    ``policy`` (a :class:`RetryPolicy`; default: 2 retries, no
    timeout) bounds retries/timeouts; ``faults`` (a
    :class:`~repro.runtime.faults.FaultPlan`; default: the installed
    plan or ``$REPRO_RUNTIME_FAULTS``) injects deterministic chaos;
    ``health`` (a :class:`RunHealth`) collects what happened.

    ``collect_errors=False`` (the default) raises
    :class:`TaskExecutionError` on the first task that exhausts its
    retries.  ``collect_errors=True`` instead records the failure in
    ``health.failed``, skips its dependents (``health.skipped``), and
    returns the results of every task that did complete — the campaign
    layer uses this so one broken STA chain cannot kill the other N-1.

    BLAS runs one thread wide for the whole call, in the coordinator
    (tasks, ``resolve`` hooks, ``on_result``) and in every pool worker,
    so results do not depend on the host's CPU count and workers do not
    oversubscribe it; the caller's width is restored on return (see
    :mod:`repro.runtime.blas`).
    """
    tasks = list(tasks)
    if not tasks:
        return {}
    ordered = _topological(tasks)
    n_workers = resolve_worker_count(n_workers)
    execution = _Execution(
        n_workers=n_workers,
        on_result=on_result,
        payloads=payloads,
        policy=policy or DEFAULT_POLICY,
        health=health if health is not None else RunHealth(),
        plan=active_plan(faults),
        collect_errors=collect_errors,
    )
    try:
        with single_blas_thread():
            return execution.execute(ordered)
    finally:
        execution.close()
