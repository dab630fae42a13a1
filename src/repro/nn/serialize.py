"""Model parameter serialization to/from ``.npz`` files.

State dicts map ``"p<i>.<name>"`` keys to arrays in parameter-iteration
order, which is deterministic for our sequential models.  Loading never
converts dtypes: a float64 state does not silently load into a float32
model, or the reverse.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ShapeError
from repro.nn.module import Module

__all__ = [
    "state_dict",
    "load_state_dict",
    "save_state",
    "load_state",
    "state_digest",
]


def state_dict(model: Module) -> dict[str, np.ndarray]:
    """Snapshot all parameters of ``model`` as copies."""
    return {
        f"p{i}.{param.name}": param.data.copy()
        for i, param in enumerate(model.parameters())
    }


def load_state_dict(model: Module, state: dict[str, np.ndarray]) -> None:
    """Load a snapshot produced by :func:`state_dict` into ``model``."""
    params = list(model.parameters())
    if len(state) != len(params):
        raise ShapeError(
            f"state has {len(state)} tensors but model has {len(params)} parameters"
        )
    for i, param in enumerate(params):
        key = f"p{i}.{param.name}"
        if key not in state:
            raise ShapeError(f"state is missing parameter {key!r}")
        value = np.asarray(state[key])
        if value.shape != param.data.shape:
            raise ShapeError(
                f"parameter {key!r} has shape {value.shape}, "
                f"expected {param.data.shape}"
            )
        if value.dtype != param.data.dtype:
            raise ShapeError(
                f"parameter {key!r} has dtype {value.dtype}, "
                f"expected {param.data.dtype}"
            )
        # In-place copy: a live optimizer aliases param.data into its
        # packed update buffer, and rebinding would silently detach it.
        param.data[...] = value


def state_digest(state: dict[str, np.ndarray]) -> str:
    """sha256 over a state dict (order-independent).

    Covers each array's name, dtype, shape, and raw bytes — used for
    content-addressed weight filenames (:meth:`ModelZoo.save`) and as
    the integrity check the runtime checkpoint store verifies before
    serving persisted weights.
    """
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(str(value.dtype).encode())
        digest.update(b"\0")
        digest.update(repr(value.shape).encode())
        digest.update(b"\0")
        digest.update(value.tobytes())
        digest.update(b"\0")
    return digest.hexdigest()


def save_state(model: Module, path: str) -> None:
    """Save the model parameters to an ``.npz`` file at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state_dict(model))


def load_state(model: Module, path: str) -> None:
    """Load parameters saved by :func:`save_state` into ``model``."""
    with np.load(path) as data:
        load_state_dict(model, {key: data[key] for key in data.files})
