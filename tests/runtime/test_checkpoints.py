"""Tests for the content-addressed checkpoint store."""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.checkpoints import CHECKPOINT_KIND, CheckpointStore
from repro.runtime.hashing import state_digest, task_key


def dead_pid() -> int:
    """A pid guaranteed to belong to no running process."""
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


def backdate(path) -> None:
    """Age a file past the sweep's young-writer grace period."""
    import os
    import time

    old = time.time() - 3600.0
    os.utime(path, (old, old))


def _state(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "p0.weight": rng.standard_normal((4, 3)),
        "p0.bias": rng.standard_normal(3),
    }


def _key(i: int) -> str:
    return task_key({"x": i}, "v", kind=CHECKPOINT_KIND)


def _meta(key, state, **overrides) -> bytes:
    """The metadata half of a checkpoint record, fields overridable."""
    payload = {
        "schema_version": 1,
        "key": key,
        "spec": {},
        "state_sha256": state_digest(state),
        "meta": {},
        **overrides,
    }
    return json.dumps(payload, sort_keys=True).encode()


def _npz(state) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def _put_record(store, key, meta: bytes, weights: bytes) -> None:
    """Append a hand-built record under a valid CRC frame, so only the
    checkpoint codec (never the frame check) can reject it."""
    store._store.put(key, struct.pack("<I", len(meta)) + meta + weights)


def _assert_quarantined(store, key, count: int) -> None:
    assert store.get(key) is None
    assert store.health.quarantined == count
    assert key not in store.keys()


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        key = _key(1)
        assert store.get(key) is None
        state = _state()
        store.put(key, {"x": 1}, state, meta={"measured_ber": 0.25})
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.key == key
        assert loaded.spec == {"x": 1}
        assert loaded.meta == {"measured_ber": 0.25}
        assert set(loaded.state) == set(state)
        for name in state:
            np.testing.assert_array_equal(loaded.state[name], state[name])
        assert store.keys() == [key]
        assert len(store) == 1

    def test_missing_weights_is_a_miss(self, tmp_path):
        # Metadata with no weight archive behind it.
        store = CheckpointStore(tmp_path)
        key = _key(2)
        _put_record(store, key, _meta(key, _state()), b"")
        _assert_quarantined(store, key, 1)

    def test_corrupted_weights_are_a_miss(self, tmp_path):
        # Weights whose bytes no longer hash to the recorded digest must
        # not be served — retraining beats silently loading a wrong model.
        store = CheckpointStore(tmp_path)
        key = _key(3)
        _put_record(store, key, _meta(key, _state()), _npz(_state(seed=9)))
        _assert_quarantined(store, key, 1)

    def test_truncated_npz_is_a_miss(self, tmp_path):
        # A torn write can leave a half-written zip container; np.load
        # raises BadZipFile/EOFError on those, which get must swallow
        # (retrain), never propagate into a warm rebuild.
        store = CheckpointStore(tmp_path)
        key = _key(10)
        raw = _npz(_state())
        _put_record(store, key, _meta(key, _state()), raw[: len(raw) // 2])
        _assert_quarantined(store, key, 1)
        key = _key(11)
        _put_record(store, key, _meta(key, _state()), b"PK")  # zip magic only
        _assert_quarantined(store, key, 2)

    def test_corrupted_record_is_a_miss(self, tmp_path):
        # Same contract for the packed layout: a record whose bytes no
        # longer pass the CRC is quarantined, never served.
        store = CheckpointStore(tmp_path)
        key = _key(13)
        segment = store.put(key, {"x": 13}, _state())
        location = store._store._entries[key]
        with open(segment, "r+b") as handle:
            handle.seek(location.offset + location.length - 3)
            handle.write(b"\xff\xff\xff")
        assert store.get(key) is None
        assert store.health.quarantined == 1
        assert store.keys() == []

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(4)
        _put_record(store, key, b"{not json", _npz(_state()))
        _assert_quarantined(store, key, 1)
        # A metadata length running past the record's end.
        key = _key(14)
        store._store.put(key, struct.pack("<I", 1 << 20) + b"{}")
        _assert_quarantined(store, key, 2)

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # A record whose metadata names another key is never served
        # under this one.
        store = CheckpointStore(tmp_path)
        key, other = _key(5), _key(6)
        _put_record(store, other, _meta(key, _state()), _npz(_state()))
        _assert_quarantined(store, other, 1)

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(15)
        meta = _meta(key, _state(), schema_version=2)
        _put_record(store, key, meta, _npz(_state()))
        _assert_quarantined(store, key, 1)

    def test_meta_layout(self, tmp_path):
        import struct

        store = CheckpointStore(tmp_path)
        key = _key(7)
        store.put(key, {"x": 7}, _state(), meta={"widths": [4, 2, 4]})
        raw = store._store.get(key)
        (meta_len,) = struct.unpack("<I", raw[:4])
        payload = json.loads(raw[4 : 4 + meta_len].decode())
        assert payload["schema_version"] == 1
        assert payload["key"] == key
        assert payload["spec"] == {"x": 7}
        assert payload["meta"] == {"widths": [4, 2, 4]}
        assert len(payload["state_sha256"]) == 64

    def test_prune_removes_dead_orphans_and_tmp(self, tmp_path):
        store = CheckpointStore(tmp_path)
        keys = [_key(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"x": i}, _state(i))
        # A dead snapshot writer's index temp file.
        leftover = tmp_path / f"index.tmp.{dead_pid()}"
        leftover.write_text("{interrupted")
        backdate(leftover)
        removed = store.prune(keys[:1])
        # 2 dead packed records + 1 temp file.
        assert removed == 3
        assert not leftover.exists()
        assert store.keys() == [keys[0]]
        assert store.get(keys[0]) is not None

    def test_prune_spares_half_committed_live_keys(self, tmp_path):
        # Another handle's records are committed in the segment but in
        # no index this handle has read; prune must catch up and keep
        # them while live, and drop one only once it is dead.
        pruner = CheckpointStore(tmp_path)
        pruner.put(_key(10), {"x": 10}, _state())
        writer = CheckpointStore(tmp_path)
        key, other = _key(11), _key(12)
        writer.put(key, {"x": 11}, _state())
        writer.put(other, {"x": 12}, _state())
        assert pruner.keys() == [_key(10)]  # not seen yet
        assert pruner.prune([_key(10), key, other]) == 0
        assert pruner.get(key) is not None
        assert pruner.get(other) is not None
        assert pruner.prune([_key(10), key]) == 1
        assert CheckpointStore(tmp_path).keys() == sorted([_key(10), key])

    def test_put_overwrites_and_sweeps_stale_tmp(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = _key(8)
        stale = tmp_path / f"{key}.tmp.{dead_pid()}.npz"
        stale.write_bytes(b"partial")
        backdate(stale)
        store.put(key, {"x": 8}, _state(1), meta={"v": 1})
        store.put(key, {"x": 8}, _state(2), meta={"v": 2})
        assert not stale.exists()
        loaded = store.get(key)
        assert loaded.meta == {"v": 2}
        np.testing.assert_array_equal(
            loaded.state["p0.weight"], _state(2)["p0.weight"]
        )

    def test_empty_root_rejected(self):
        with pytest.raises(ConfigurationError):
            CheckpointStore("")

    def test_default_root_env_override(self, tmp_path, monkeypatch):
        from repro.runtime.checkpoints import (
            CHECKPOINTS_ENV,
            default_checkpoint_root,
        )

        monkeypatch.delenv(CHECKPOINTS_ENV, raising=False)
        assert default_checkpoint_root("fallback") == "fallback"
        assert default_checkpoint_root().endswith("checkpoint_store")
        monkeypatch.setenv(CHECKPOINTS_ENV, str(tmp_path / "elsewhere"))
        assert default_checkpoint_root("fallback") == str(tmp_path / "elsewhere")
