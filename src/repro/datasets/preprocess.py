"""CSI preprocessing, mirroring the paper's pipeline (Sec. 5.2.1).

1. **Alignment** — different STAs drop different packets; samples are
   matched by packet sequence number so "each CSI element collected over
   different STAs represents the same time and frequency domain channel
   measurement".
2. **Amplitude normalization** — each sample is divided by its mean
   amplitude over all subcarriers, removing unwanted gain variation.
3. **Moving median** — a 10-point moving median along time smooths
   estimation noise (applied to real and imaginary parts).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.channels.sampler import CsiBatch

__all__ = [
    "align_users",
    "normalize_amplitude",
    "moving_median",
    "preprocess_csi",
]


def align_users(batches: "list[CsiBatch]") -> np.ndarray:
    """Keep only packets received by every user, matched by sequence.

    Returns ``(n_aligned, n_users, S, Nr, Nt)``.
    """
    if not batches:
        raise DatasetError("no user batches to align")
    common = batches[0].sequence
    for batch in batches[1:]:
        common = np.intersect1d(common, batch.sequence, assume_unique=True)
    if common.size == 0:
        raise DatasetError("users share no common packets after drops")
    aligned = []
    for batch in batches:
        # Positions of the common sequence numbers within this batch.
        positions = np.searchsorted(batch.sequence, common)
        if not np.array_equal(batch.sequence[positions], common):
            raise DatasetError("sequence numbers are not sorted/unique")
        aligned.append(batch.csi[positions])
    return np.stack(aligned, axis=1)


def normalize_amplitude(csi: np.ndarray) -> np.ndarray:
    """Divide each (sample, user) CSI matrix by its mean amplitude.

    ``csi`` has shape ``(n, n_users, S, Nr, Nt)`` (or ``(n, S, Nr,
    Nt)`` for a single user); the mean runs over all subcarriers and
    antenna pairs of that sample.
    """
    csi = np.asarray(csi, dtype=np.complex128)
    axes = tuple(range(csi.ndim - 3, csi.ndim))
    mean_amp = np.mean(np.abs(csi), axis=axes, keepdims=True)
    if np.any(mean_amp == 0):
        raise DatasetError("zero-amplitude CSI sample cannot be normalized")
    return csi / mean_amp


def moving_median(csi: np.ndarray, window: int = 10) -> np.ndarray:
    """``window``-point moving median along the time axis (axis 0).

    Real and imaginary parts are filtered separately; the window is
    trailing (causal) and truncated at the start of the stream, so the
    output has the same length as the input.

    Full windows are filtered in one pass: sort each sliding window and
    take ``np.mean`` of its middle element(s), exactly as ``np.median``
    does per window, so the result is bit-identical; a window holding a
    NaN yields that NaN.  The truncated head rows keep the per-row
    median.
    """
    if window < 1:
        raise DatasetError("window must be >= 1")
    csi = np.asarray(csi, dtype=np.complex128)
    if window == 1 or csi.shape[0] == 1:
        return csi.copy()
    n = csi.shape[0]
    out = np.empty_like(csi)
    for t in range(min(window - 1, n)):
        block = csi[: t + 1]
        out[t] = np.median(block.real, axis=0) + 1j * np.median(block.imag, axis=0)
    if n >= window:
        out[window - 1 :] = _window_median(csi.real, window) + 1j * (
            _window_median(csi.imag, window)
        )
    return out


def _window_median(x: np.ndarray, window: int) -> np.ndarray:
    """``np.median`` over every full trailing ``window`` of axis 0."""
    half = window // 2
    middle = slice(half - 1, half + 1) if window % 2 == 0 else slice(half, half + 1)
    part = np.sort(np.lib.stride_tricks.sliding_window_view(x, window, axis=0))
    # np.mean, as np.median takes it: the sum starts from +0.0, so the
    # sign of a zero middle (which sort and partition may order either
    # way) never reaches the result.
    median = np.mean(part[..., middle], axis=-1)
    last = part[..., -1]  # NaN sorts last
    np.copyto(median, last, where=np.isnan(last))
    return median


def preprocess_csi(
    csi: np.ndarray, median_window: int = 10, normalize: bool = True
) -> np.ndarray:
    """Full pipeline: moving median then amplitude normalization."""
    csi = moving_median(csi, window=median_window)
    if normalize:
        csi = normalize_amplitude(csi)
    return csi
