"""Tests for the one-thread BLAS pin (``repro.runtime.blas``).

Inside :func:`run_tasks` BLAS is one thread wide in every process —
coordinator and pool workers, including pools rebuilt after a crash —
and the caller's width comes back afterwards, even when a task raises.
"""

from __future__ import annotations

import pytest

from repro.runtime import blas, knobs
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    Task,
    TaskExecutionError,
    _make_pool,
    run_tasks,
)

#: The caller's width in these tests: anything but the pinned 1.
CALLER_WIDTH = 2


def width_probe(params):
    return blas.blas_threads()


def width_then_boom(params):
    raise RuntimeError(f"width {blas.blas_threads()}")


@pytest.fixture
def caller_width():
    """Set every BLAS to ``CALLER_WIDTH`` threads, restore on teardown."""
    libraries = blas._libraries()
    before = [getter() for _, getter in libraries]
    for setter, _ in libraries:
        setter(CALLER_WIDTH)
    yield CALLER_WIDTH
    for (setter, _), width in zip(libraries, before):
        setter(width)


@pytest.mark.skipif(
    blas.blas_threads() is None, reason="no BLAS thread-control symbol found"
)
class TestPinnedWidth:
    def probes(self, n):
        return [Task(f"w{i:02d}", width_probe, {"i": i}) for i in range(n)]

    def test_serial_run_is_one_wide(self, caller_width):
        assert run_tasks(self.probes(3), n_workers=1) == {
            "w00": 1, "w01": 1, "w02": 1,
        }
        assert blas.blas_threads() == caller_width

    def test_pool_workers_are_one_wide(self, caller_width):
        results = run_tasks(self.probes(6), n_workers=2)
        assert set(results.values()) == {1}
        assert blas.blas_threads() == caller_width

    def test_rebuilt_pool_is_one_wide(self, caller_width, monkeypatch):
        monkeypatch.setenv(knobs.FAULTS_ENV, "crash,w03,count=1")
        health = RunHealth()
        results = run_tasks(self.probes(8), n_workers=2, health=health)
        assert health.worker_crashes == 1
        assert health.pool_rebuilds == 1
        assert set(results.values()) == {1}
        assert blas.blas_threads() == caller_width

    def test_pool_initializer_pins_outside_run_tasks(self, caller_width):
        pool = _make_pool(1)
        try:
            assert pool.submit(width_probe, {}).result(timeout=60) == 1
        finally:
            pool.shutdown()
        assert blas.blas_threads() == caller_width

    def test_width_restored_after_task_raises(self, caller_width):
        with pytest.raises(TaskExecutionError, match="width 1"):
            run_tasks(
                [Task("boom", width_then_boom, {})],
                n_workers=1,
                policy=RetryPolicy(retries=0),
            )
        assert blas.blas_threads() == caller_width

    def test_scoped_pin_restores_on_error(self, caller_width):
        with pytest.raises(ValueError):
            with blas.single_blas_thread():
                assert blas.blas_threads() == 1
                raise ValueError("inside the pin")
        assert blas.blas_threads() == caller_width


class TestNoBlasSymbol:
    @pytest.fixture
    def no_symbols(self, monkeypatch):
        monkeypatch.setattr(
            blas, "_ENTRY_POINTS", (("no_such_set_threads", "no_such_get_threads"),)
        )
        blas._controls.cache_clear()
        yield
        blas._controls.cache_clear()

    def test_pin_is_a_silent_noop(self, no_symbols):
        assert blas._libraries() == []
        assert blas.blas_threads() is None
        blas.pin_blas_thread()
        with blas.single_blas_thread():
            assert blas.blas_threads() is None

    def test_run_tasks_still_runs(self, no_symbols):
        tasks = [Task("a", width_probe, {}), Task("b", width_probe, {})]
        assert run_tasks(tasks, n_workers=1) == {"a": None, "b": None}
        assert run_tasks(tasks, n_workers=2) == {"a": None, "b": None}
