"""LB-SciFi [20]: autoencoder compression of Givens-rotation angles.

LB-SciFi keeps the whole 802.11 pipeline at the STA — SVD and Givens
decomposition — and *additionally* runs an autoencoder (AE) encoder over
the resulting angles; the AP decodes and applies inverse Givens
rotations.  Its STA load is therefore SVD + GR + encoder, which is the
structural disadvantage SplitBeam exploits (Sec. II).

The AE here is a dense ``[A, K*A, A]`` network trained unsupervised
(reconstruct its own input, MSE loss) per the reference description;
``A`` is the per-report angle count and ``K`` the compression rate, kept
equal to SplitBeam's for like-for-like comparisons.  Angles are
normalized to [-1, 1] before encoding: ``phi`` over [0, 2pi), ``psi``
over [0, pi/2).
"""

from __future__ import annotations

import numpy as np

from repro.config import FAST, Fidelity
from repro.errors import TrainingError
from repro.baselines.interface import FeedbackScheme
from repro.core.model import SplitBeamNet
from repro.datasets.builder import CsiDataset
from repro.nn.losses import MSELoss
from repro.nn.trainer import Trainer, TrainingConfig
from repro.standard.flopmodel import dot11_flops
from repro.standard.givens import GivensAngles, angle_counts, givens_decompose, givens_reconstruct

__all__ = ["LbSciFi", "train_lbscifi"]

#: Bits per compressed code element fed back over the air.
CODE_BITS: int = 16


def _normalize(angles: GivensAngles) -> np.ndarray:
    """Pack (phi, psi) into one [-1, 1] feature block per report."""
    phi = np.mod(angles.phi, 2.0 * np.pi) / np.pi - 1.0
    psi = angles.psi * (4.0 / np.pi) - 1.0
    batch = phi.shape[:-2]
    flat_phi = phi.reshape(batch + (-1,))
    flat_psi = psi.reshape(batch + (-1,))
    return np.concatenate([flat_phi, flat_psi], axis=-1)


def _denormalize(
    features: np.ndarray, n_sc: int, n_tx: int, n_streams: int
) -> GivensAngles:
    """Invert :func:`_normalize` back into a :class:`GivensAngles`."""
    n_phi, n_psi = angle_counts(n_tx, n_streams)
    batch = features.shape[:-1]
    split = n_sc * n_phi
    phi = (features[..., :split] + 1.0) * np.pi
    psi = np.clip((features[..., split:] + 1.0) * (np.pi / 4.0), 0.0, np.pi / 2)
    return GivensAngles(
        phi=phi.reshape(batch + (n_sc, n_phi)),
        psi=psi.reshape(batch + (n_sc, n_psi)),
        n_tx=n_tx,
        n_streams=n_streams,
    )


class LbSciFi(FeedbackScheme):
    """A trained LB-SciFi scheme ready for evaluation."""

    def __init__(
        self,
        autoencoder: SplitBeamNet,
        n_tx: int,
        n_streams: int = 1,
        compression: float = 1.0 / 8.0,
    ) -> None:
        self.autoencoder = autoencoder
        self.n_tx = int(n_tx)
        self.n_streams = int(n_streams)
        self.compression = float(compression)
        self.name = f"LB-SciFi (K=1/{round(1 / compression)})"

    # -- FeedbackScheme ---------------------------------------------------------

    def reconstruct_bf(
        self, dataset: CsiDataset, indices: np.ndarray
    ) -> np.ndarray:
        bf_true = dataset.link_bf(indices)
        angles = givens_decompose(bf_true[..., :, None])
        features = _normalize(angles)
        n, users = features.shape[:2]
        flat = features.reshape(n * users, -1)
        self.autoencoder.eval()
        # The autoencoder runs in its own dtype; the angles go back to
        # float64 once, before the Givens reconstruction.
        decoded = np.asarray(self.autoencoder.forward(flat), dtype=np.float64)
        recovered = _denormalize(
            decoded.reshape(n, users, -1),
            dataset.n_subcarriers,
            self.n_tx,
            self.n_streams,
        )
        return givens_reconstruct(recovered)[..., 0]

    def sta_flops(self, dataset: CsiDataset) -> float:
        spec = dataset.spec
        legacy = dot11_flops(
            spec.n_tx, spec.n_rx, n_subcarriers=dataset.n_subcarriers
        )
        encoder_macs = self.autoencoder.head_macs()
        return legacy + 2.0 * encoder_macs

    def feedback_bits(self, dataset: CsiDataset) -> int:
        return self.autoencoder.bottleneck_dim * CODE_BITS


def train_lbscifi(
    dataset: CsiDataset,
    compression: float = 1.0 / 8.0,
    fidelity: Fidelity = FAST,
    seed: int = 0,
) -> LbSciFi:
    """Train the LB-SciFi autoencoder on a dataset's angle corpus."""
    if not 0 < compression <= 1:
        raise TrainingError(f"compression must be in (0, 1], got {compression}")
    spec = dataset.spec
    angles = givens_decompose(dataset.bf[..., :, None])
    features = _normalize(angles)
    n, users = features.shape[:2]
    flat = features.reshape(n * users, -1)
    width = flat.shape[1]
    code = max(1, int(round(compression * width)))

    autoencoder = SplitBeamNet(
        [width, code, width], activation="leaky_relu", rng=seed
    )
    config = TrainingConfig(
        epochs=fidelity.epochs,
        batch_size=16,
        learning_rate=1e-3,
        optimizer="adam",
        lr_milestones=(
            max(1, fidelity.epochs // 2),
            max(2, (3 * fidelity.epochs) // 4),
        ),
        seed=seed,
    )
    trainer = Trainer(autoencoder, loss=MSELoss(), config=config)

    def rows(split: np.ndarray) -> np.ndarray:
        return features[split].reshape(split.shape[0] * users, -1)

    x_train = rows(dataset.splits.train)
    x_val = rows(dataset.splits.val)
    trainer.fit(x_train, x_train, x_val, x_val)
    return LbSciFi(
        autoencoder=autoencoder,
        n_tx=spec.n_tx,
        n_streams=1,
        compression=compression,
    )
