"""Link-quality metrics beyond raw BER.

The paper motivates SplitBeam with inter-user interference (IUI): "an
inaccuracy in the beamforming will lead to inter-user interference in
MU-MIMO, which reduces the SINR significantly" (Sec. II).  These metrics
quantify exactly that chain — per-user SINR, the IUI leakage ratio, the
Shannon sum rate, and symbol-level EVM — from the same effective-gain
tensor the BER simulator computes, so benches can report *why* a feedback
scheme's BER moved, not just that it did.

Conventions: the gain tensor ``G`` has shape ``(S, n_users, n_users)``
with ``G[s, i, j] = u_i(s)† H_i(s) w_j(s)`` (receive-combined response of
user ``i`` to the stream intended for user ``j``), matching
``repro.phy.link``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "LinkMetrics",
    "sinr_per_user",
    "sinr_db",
    "leakage_ratio",
    "sum_rate_bps_per_hz",
    "evm_rms",
    "compute_link_metrics",
]


def _check_gains(gains: np.ndarray) -> np.ndarray:
    gains = np.asarray(gains, dtype=np.complex128)
    if gains.ndim != 3 or gains.shape[1] != gains.shape[2]:
        raise ShapeError(
            f"gains must be (S, n_users, n_users), got {gains.shape}"
        )
    return gains


def sinr_per_user(gains: np.ndarray, noise_power: float) -> np.ndarray:
    """Linear post-combining SINR per (subcarrier, user).

    ``SINR[s, i] = |G[s,i,i]|^2 / (sum_{j != i} |G[s,i,j]|^2 + N0)``.
    """
    gains = _check_gains(gains)
    if noise_power < 0:
        raise ShapeError("noise_power must be non-negative")
    power = np.abs(gains) ** 2  # (S, i, j)
    signal = np.diagonal(power, axis1=1, axis2=2)  # (S, users)
    interference = power.sum(axis=2) - signal
    return signal / np.maximum(interference + noise_power, 1e-30)


def sinr_db(gains: np.ndarray, noise_power: float) -> np.ndarray:
    """:func:`sinr_per_user` in dB, floored at -300 dB."""
    sinr = sinr_per_user(gains, noise_power)
    return 10.0 * np.log10(np.maximum(sinr, 1e-30))


def leakage_ratio(gains: np.ndarray) -> float:
    """Total IUI power over total desired-signal power (0 = perfect ZF).

    The noise-free analogue of SINR degradation: how much transmit energy
    aimed at other users lands in each receiver because the AP's
    beamforming matrix was reconstructed imperfectly.
    """
    gains = _check_gains(gains)
    power = np.abs(gains) ** 2
    signal = np.diagonal(power, axis1=1, axis2=2).sum()
    interference = power.sum() - signal
    if signal <= 0:
        return float("inf")
    return float(interference / signal)


def sum_rate_bps_per_hz(gains: np.ndarray, noise_power: float) -> float:
    """Shannon sum rate ``mean_s sum_i log2(1 + SINR[s, i])``.

    Averaged over subcarriers, summed over users — the spectral
    efficiency the MU-MIMO transmission achieves with this beamforming
    feedback at this noise level.
    """
    sinr = sinr_per_user(gains, noise_power)
    return float(np.mean(np.sum(np.log2(1.0 + sinr), axis=1)))


def evm_rms(tx_symbols: np.ndarray, rx_symbols: np.ndarray) -> float:
    """Root-mean-square error vector magnitude (as a fraction, not %).

    ``sqrt(mean |rx - tx|^2 / mean |tx|^2)`` over all symbols — the
    constellation-level distortion left after equalization.
    """
    tx = np.asarray(tx_symbols, dtype=np.complex128)
    rx = np.asarray(rx_symbols, dtype=np.complex128)
    if tx.shape != rx.shape:
        raise ShapeError(f"symbol shape mismatch: {tx.shape} vs {rx.shape}")
    reference = np.mean(np.abs(tx) ** 2)
    if reference <= 0:
        return float("inf")
    return float(np.sqrt(np.mean(np.abs(rx - tx) ** 2) / reference))


@dataclass(frozen=True)
class LinkMetrics:
    """Aggregated link-quality summary for one (channels, BF) evaluation."""

    mean_sinr_db: float
    min_sinr_db: float
    leakage: float
    sum_rate_bps_per_hz: float

    def as_row(self) -> list[float]:
        return [
            self.mean_sinr_db,
            self.min_sinr_db,
            self.leakage,
            self.sum_rate_bps_per_hz,
        ]


def compute_link_metrics(gains: np.ndarray, noise_power: float) -> LinkMetrics:
    """Bundle the SINR/leakage/sum-rate metrics for one gain tensor."""
    per_user_db = sinr_db(gains, noise_power)
    return LinkMetrics(
        mean_sinr_db=float(np.mean(per_user_db)),
        min_sinr_db=float(np.min(per_user_db)),
        leakage=leakage_ratio(gains),
        sum_rate_bps_per_hz=sum_rate_bps_per_hz(gains, noise_power),
    )
