"""Host fingerprint and process-tree resource accounting."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Resident-set sampling period of the memory watcher.
SAMPLE_INTERVAL_S = 0.02

_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> "int | None":
    """Live thread count of the BLAS library numpy loaded, if it says."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted(
        {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint() -> dict:
    """Host and run fingerprint recorded next to every result."""
    import numpy
    import scipy

    from repro.runtime.hashing import code_version

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_RUNTIME_") or key.endswith("_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "code_version": code_version(),
        "env": env,
    }


def reap_workers(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker has exited and been reaped.

    The executor shuts pools down without waiting; their manager threads
    join the workers, so joining those threads first (then any stray
    child) makes ``RUSAGE_CHILDREN`` include the workers' CPU time.
    """
    from concurrent.futures import process as cf_process

    deadline = time.monotonic() + timeout_s
    for thread in list(getattr(cf_process, "_threads_wakeups", {})):
        thread.join(max(0.0, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _rss_kb(pid: int, field: str = "VmRSS:") -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> "list[int]":
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


class ResourceMeter:
    """CPU time and peak memory of this process and its pool workers.

    CPU: ``getrusage`` of the process plus its reaped children, so the
    caller must :func:`reap_workers` before :meth:`stop`.  Memory: a
    watcher *process* sums the resident set of this process and its
    live children every ``SAMPLE_INTERVAL_S`` (a thread would contend
    for the GIL and slow pure-Python work); the peak is at least this
    process's own lifetime high-water mark, so only a process's first
    measurement is its own.  The watcher's own CPU time is not counted.
    """

    def start(self) -> "ResourceMeter":
        self._watcher = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).resolve()),
                str(os.getpid()), str(SAMPLE_INTERVAL_S),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._watcher.stdout.readline()  # sampling has begun
        self._cpu0 = _cpu_s()
        return self

    def stop(self) -> "tuple[float, float]":
        """``(cpu_s, peak_rss_mb)`` since :meth:`start`."""
        out, _ = self._watcher.communicate()
        peak_kb, watcher_cpu = out.split()
        cpu = _cpu_s() - self._cpu0 - float(watcher_cpu)
        peak_kb = max(int(peak_kb), _rss_kb(os.getpid(), "VmHWM:"))
        return cpu, peak_kb / 1024.0


def _watch(pid: int, interval_s: float) -> None:
    """Watcher process: sample until stdin closes, print peak and own CPU."""
    import select

    me = os.getpid()
    peak = 0
    print("ready", flush=True)
    while True:
        total = _rss_kb(pid) + sum(
            _rss_kb(child) for child in _children(pid) if child != me
        )
        peak = max(peak, total)
        readable, _, _ = select.select([sys.stdin], [], [], interval_s)
        if readable and not sys.stdin.read():
            break
    times = os.times()
    print(peak, times.user + times.system)


def import_times(src: Path, runs: int, importtime: bool = False) -> dict:
    """Fresh-interpreter start + ``import repro`` wall times.

    Returns ``{"wall_s": [...]}``, plus ``total_s``/``scipy_s`` parsed
    from ``-X importtime`` (one extra run) when ``importtime`` is set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, check=True
        )
        walls.append(time.perf_counter() - start)
    out: dict = {"wall_s": walls}
    if importtime:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        total_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [part.strip() for part in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue  # the header line
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            if name == "repro":
                total_us = cumulative_us
            if name.split(".")[0] == "scipy":
                scipy_us += self_us
        out["total_s"] = total_us / 1e6
        out["scipy_s"] = scipy_us / 1e6
    return out


if __name__ == "__main__":
    _watch(int(sys.argv[1]), float(sys.argv[2]))
