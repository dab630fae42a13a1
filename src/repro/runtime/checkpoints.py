"""Content-addressed checkpoint store for trained model weights.

The zoo builder (``repro.core.zoo_builder``) persists every finished
training run here so a warm rebuild loads weights instead of spending
epochs.  Checkpoints are keyed by the training key (sha256 of the
canonical training spec — dataset, widths, training config — plus the
repro source digest, namespaced ``kind="train"`` so it can never
collide with a result-cache address) and persisted through the packed
segment store (:mod:`repro.runtime.store`).  One CRC-framed record per
checkpoint carries the metadata and the weights::

    meta_len (u32) | metadata JSON | np.savez bytes

The metadata JSON records ``state_sha256``; :meth:`CheckpointStore.get`
refuses records whose weight bytes no longer hash to it, so a
half-written or corrupted checkpoint is a miss, never a wrong model.
Because the key embeds the source digest, any library edit silently
invalidates every checkpoint (exactly like the result cache); ``prune``
compacts unaddressable leftovers away.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.runtime import knobs
from repro.runtime.cache import PackedStore
from repro.runtime.hashing import state_digest

__all__ = ["Checkpoint", "CheckpointStore", "default_checkpoint_root"]

SCHEMA_VERSION = 1

#: Namespace passed as ``task_key(..., kind=...)`` for training keys.
CHECKPOINT_KIND = "train"

#: Record prefix: little-endian length of the metadata JSON half.
_META_LEN = struct.Struct("<I")

#: Environment variable overriding the default store location.
CHECKPOINTS_ENV = knobs.CHECKPOINTS_ENV


def default_checkpoint_root(fallback: "str | None" = None) -> str:
    """$REPRO_RUNTIME_CHECKPOINTS, else ``fallback``, else the in-repo default."""
    configured = knobs.read_knob(CHECKPOINTS_ENV)
    if configured:
        return configured
    if fallback is not None:
        return fallback
    return os.path.join("benchmarks", "results", "checkpoint_store")


@dataclass
class Checkpoint:
    """One persisted training run: weights plus its recorded metadata.

    ``state_sha256`` is the integrity digest :meth:`CheckpointStore.get`
    already verified against the weight bytes — consumers (the zoo
    builder's manifest rows) reuse it instead of re-hashing the state.
    """

    key: str
    spec: dict
    state: "dict[str, np.ndarray]"
    meta: dict = field(default_factory=dict)
    state_sha256: str = ""


class CheckpointStore(PackedStore):
    """A packed, content-addressed store of trained-model checkpoints."""

    #: Fault-injection label for torn writes (``torn,checkpoint:<key>``).
    STORE_LABEL = "checkpoint"

    def _encode(
        self,
        key: str,
        spec,
        state: "dict[str, np.ndarray]",
        meta: "dict | None",
        state_sha256: "str | None",
    ) -> bytes:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "spec": spec,
            "state_sha256": state_sha256 or state_digest(state),
            "meta": dict(meta or {}),
        }
        meta_bytes = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()
        buffer = io.BytesIO()
        np.savez(buffer, **state)
        return _META_LEN.pack(len(meta_bytes)) + meta_bytes + buffer.getvalue()

    def _decode(self, key: str, raw: bytes) -> "Checkpoint | None":
        """The validated checkpoint in ``raw``, or ``None`` if corrupt."""
        if len(raw) < _META_LEN.size:
            return None
        (meta_len,) = _META_LEN.unpack(raw[: _META_LEN.size])
        meta_end = _META_LEN.size + meta_len
        if meta_end > len(raw):
            return None
        try:
            payload = json.loads(raw[_META_LEN.size : meta_end].decode())
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        try:
            with np.load(io.BytesIO(raw[meta_end:])) as data:
                state = {name: data[name] for name in data.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            return None
        if state_digest(state) != payload.get("state_sha256"):
            return None
        return Checkpoint(
            key=key,
            spec=payload.get("spec", {}),
            state=state,
            meta=payload.get("meta", {}),
            state_sha256=payload["state_sha256"],
        )

    def get(self, key: str) -> "Checkpoint | None":
        """The checkpoint for ``key``, or ``None`` on miss.

        A committed-but-corrupt record — CRC failure, garbled archive
        bytes, or weights whose bytes no longer hash to the recorded
        ``state_sha256`` — is quarantined (tombstoned and counted on
        :attr:`health`); the caller sees a miss and retrains.
        """
        return self._traced_get(key)

    def put(
        self,
        key: str,
        spec,
        state: "dict[str, np.ndarray]",
        meta: "dict | None" = None,
        state_sha256: "str | None" = None,
    ) -> Path:
        """Persist one finished training run (atomic append; last wins).

        The record's CRC frame is the commit marker: a crash mid-append
        leaves a torn tail the next open truncates, never a
        readable-but-wrong checkpoint.  ``state_sha256`` lets a caller
        that already digested ``state`` skip the re-hash.
        """
        return self._traced_put(key, spec, state, meta, state_sha256)

    def flush(self) -> None:
        """Publish the packed index (cheap; bounds the next recovery scan)."""
        self._store.flush()
