"""One-thread BLAS inside the runtime.

Every process that runs tasks — the coordinator inside
:func:`~repro.runtime.executor.run_tasks` and each pool worker — keeps
its BLAS library one thread wide.  Two reasons, both measured:

- **Oversubscription.** A forked worker inherits OpenBLAS's full thread
  pool, so two workers on a 2-CPU host run four BLAS threads and the
  training-heavy ``fig12-ber`` scenario ran about 5x slower on 2
  workers than on 1.
- **Host invariance.** OpenBLAS's results can differ in the last
  digits with its thread count, so a full-size ``network-scale``
  manifest (265 ``mean_sinr_db`` values) depended on the host's CPU
  count.  With the width fixed at 1, artifacts are byte-identical
  across worker counts *and* hosts.

The set/get entry points are looked up in the shared libraries mapped
into this process (``/proc/self/maps``), the same lookup the benchmark's
host fingerprint uses for reads.  Where no BLAS exposes them (no
``/proc``, a BLAS other than OpenBLAS) every function here is a silent
no-op: :func:`blas_threads` returns ``None`` and the pin does nothing.
The environment (``OPENBLAS_NUM_THREADS`` and friends) is never read —
it only takes effect when numpy is imported, so it cannot pin a running
process.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
from functools import cache
from pathlib import Path

__all__ = ["blas_threads", "pin_blas_thread", "single_blas_thread"]

#: ``(setter, getter)`` symbol pairs, most specific first: numpy's
#: ILP64 scipy-openblas build, scipy's LP64 one, then stock OpenBLAS.
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@cache
def _controls(lib: str) -> "tuple | None":
    """``(set, get)`` of one mapped library, or None if it exposes neither."""
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        return None
    for set_name, get_name in _ENTRY_POINTS:
        setter = getattr(handle, set_name, None)
        getter = getattr(handle, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def _libraries() -> "list[tuple]":
    """``(set, get)`` of every BLAS mapped into this process, sorted by path.

    Extension modules linked against a BLAS (scipy's ``_fblas``) resolve
    to that library's entry points; each library is listed once.
    """
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    libs = sorted(
        {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    )
    unique: dict = {}
    for controls in map(_controls, libs):
        if controls is not None:
            unique.setdefault(ctypes.cast(controls[0], ctypes.c_void_p).value, controls)
    return list(unique.values())


def blas_threads() -> "int | None":
    """Live thread width of the first BLAS found (numpy's), or None."""
    libraries = _libraries()
    return int(libraries[0][1]()) if libraries else None


def pin_blas_thread() -> None:
    """Make every mapped BLAS one thread wide for the rest of the process.

    The pool initializer of :func:`~repro.runtime.executor.run_tasks`.
    """
    for setter, _ in _libraries():
        setter(1)


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every mapped BLAS one thread wide.

    Each library's previous width is restored on exit, including when
    the body raises, so callers outside :func:`run_tasks` keep theirs.
    """
    libraries = _libraries()
    widths = [getter() for _, getter in libraries]
    for setter, _ in libraries:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), width in zip(libraries, widths):
            setter(width)
