"""The end-to-end benchmark's layer targets must all resolve.

``perfbench/layers.py`` wraps library callables by ``(module, path)``
and skips (only reports) any it cannot find, so a refactor that moves
or inherits a wrapped method would silently detach its benchmark
layer.  This test reads ``TARGETS`` without installing anything and
resolves each entry the way ``layers.install`` does: a method must be
defined in its owning class's own ``__dict__`` (an inherited method
would be patched on the wrong class), a function must be a module
attribute.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _load_targets() -> tuple:
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers_under_test", LAYERS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


def test_targets_are_declared():
    assert TARGETS


@pytest.mark.parametrize(
    "module_name,path",
    [(module_name, path) for module_name, path, *_ in TARGETS],
    ids=[f"{module_name}:{path}" for module_name, path, *_ in TARGETS],
)
def test_target_resolves_like_install(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if outer:
        assert name in owner.__dict__, (
            f"{module_name}:{path} is not defined on {owner.__name__} "
            "itself; layers.install would report it missing"
        )
        target = owner.__dict__[name]
    else:
        target = getattr(owner, name)
    assert callable(target)
