"""Head/tail split execution with over-the-air bottleneck quantization.

In deployment (Fig. 5) the STA runs the head and transmits the
compressed representation ``V'`` inside its beamforming report; the AP
dequantizes and runs the tail.  :class:`BottleneckQuantizer` models the
wire format: each bottleneck value is quantized uniformly with ``bits``
bits inside a per-report dynamic range carried as two scalars (the same
scheme 802.11 uses for its SNR fields).

``SplitExecutor`` glues the pieces together and, with quantization
disabled, is bit-exact with running the unsplit model — a property the
test suite asserts.  Head and tail each cast their input to the model's
dtype once, at entry, so both halves compute in the same dtype the
unsplit model does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, FeedbackError
from repro.core.model import SplitBeamNet
from repro.nn.module import Module, as_float

__all__ = [
    "BottleneckQuantizer",
    "CompressedFeedback",
    "HeadModel",
    "TailModel",
    "SplitExecutor",
    "QuantizationNoise",
]

#: Bits for each of the two per-report range scalars.
RANGE_SCALAR_BITS = 16


@dataclass
class CompressedFeedback:
    """One user's over-the-air compressed BF report.

    ``codes`` are integer quantization indices of the bottleneck values;
    ``low``/``high`` delimit the quantizer range for each report row.
    """

    codes: np.ndarray  # (batch, B) integer codes
    low: np.ndarray  # (batch,) range minima
    high: np.ndarray  # (batch,) range maxima
    bits: int

    @property
    def payload_bits(self) -> int:
        """Feedback payload size per report in bits."""
        return self.codes.shape[-1] * self.bits + 2 * RANGE_SCALAR_BITS


class BottleneckQuantizer:
    """Uniform per-report quantizer for bottleneck activations.

    ``bits = 16`` reproduces the paper's airtime accounting (16 bits per
    compressed element, matching the Eq. (9) CSI convention); smaller
    widths trade feedback size for reconstruction error (see the
    quantization ablation bench).
    """

    def __init__(self, bits: int = 16) -> None:
        if not 2 <= bits <= 32:
            raise ConfigurationError(f"bits must be in [2, 32], got {bits}")
        self.bits = int(bits)
        self.levels = (1 << self.bits) - 1

    def quantize(self, values: np.ndarray) -> CompressedFeedback:
        """Quantize a batch ``(n, B)`` of bottleneck vectors."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[None, :]
        low = values.min(axis=1)
        high = values.max(axis=1)
        span = np.maximum(high - low, 1e-12)
        normalized = (values - low[:, None]) / span[:, None]
        codes = np.round(normalized * self.levels).astype(np.int64)
        return CompressedFeedback(
            codes=codes, low=low, high=high, bits=self.bits
        )

    def dequantize(self, feedback: CompressedFeedback) -> np.ndarray:
        """Rebuild real-valued bottleneck vectors from a report."""
        if feedback.bits != self.bits:
            raise FeedbackError(
                f"report quantized with {feedback.bits} bits, "
                f"decoder expects {self.bits}"
            )
        span = np.maximum(feedback.high - feedback.low, 1e-12)
        return (
            feedback.codes.astype(np.float64) / self.levels
        ) * span[:, None] + feedback.low[:, None]


class QuantizationNoise(Module):
    """Quantization-aware-training layer for the bottleneck.

    During training, fake-quantizes the bottleneck: each batch row is
    passed through the exact round-trip of a ``bits``-wide
    :class:`BottleneckQuantizer` (per-row dynamic range, uniform
    rounding), so the tail always sees the values it will receive at
    deployment.  The backward pass is the straight-through estimator
    (identity), the standard QAT trick.  In eval mode the layer is an
    exact pass-through, so the trained model deploys unchanged.

    ``SplitBeamNet`` inserts this after the head's Linear when
    ``train_splitbeam(..., qat_bits=...)`` is used; the tail then learns
    to reconstruct from *quantized-looking* bottleneck values, which
    rescues the low-bit regimes the quantization ablation shows
    collapsing (4 bits: BER 0.046 — see ``bench_ablation_qat``).
    """

    def __init__(
        self, bits: int, rng: "np.random.Generator | int | None" = 0
    ) -> None:
        super().__init__()
        if not 2 <= bits <= 32:
            raise ConfigurationError(f"bits must be in [2, 32], got {bits}")
        del rng  # kept for API stability; fake-quantize is deterministic
        self.bits = int(bits)
        self.levels = (1 << self.bits) - 1
        self._quantizer = BottleneckQuantizer(self.bits)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = as_float(inputs)
        if not self.training:
            return inputs
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        restored = self._quantizer.dequantize(self._quantizer.quantize(inputs))
        return restored.astype(inputs.dtype, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Straight-through estimator: the noise is treated as constant."""
        return as_float(grad_output)


class HeadModel:
    """STA-side executor: CSI in, compressed feedback out."""

    def __init__(
        self, model: SplitBeamNet, quantizer: BottleneckQuantizer | None = None
    ) -> None:
        self.network = model.head_network()
        self.network.eval()
        self.quantizer = quantizer
        self.dtype = model.dtype
        self.input_dim = model.input_dim
        self.bottleneck_dim = model.bottleneck_dim

    def compress(self, inputs: np.ndarray) -> "CompressedFeedback | np.ndarray":
        """Produce ``V'``: quantized codes, or raw floats if no quantizer."""
        bottleneck = self.network.forward(np.asarray(inputs, dtype=self.dtype))
        if self.quantizer is None:
            return bottleneck
        return self.quantizer.quantize(bottleneck)


class TailModel:
    """AP-side executor: compressed feedback in, BF estimate out."""

    def __init__(
        self, model: SplitBeamNet, quantizer: BottleneckQuantizer | None = None
    ) -> None:
        self.network = model.tail_network()
        self.network.eval()
        self.quantizer = quantizer
        self.dtype = model.dtype
        self.output_dim = model.output_dim

    def reconstruct(
        self, feedback: "CompressedFeedback | np.ndarray"
    ) -> np.ndarray:
        """Rebuild the flattened real BF estimate."""
        if isinstance(feedback, CompressedFeedback):
            if self.quantizer is None:
                raise FeedbackError(
                    "received quantized feedback but no quantizer configured"
                )
            values = self.quantizer.dequantize(feedback)
        else:
            values = feedback
        # Cast before the tail's leading activation, not inside it: an
        # upcast bottleneck would run that activation in float64 and
        # break the split's bit-exactness with the unsplit model.
        return self.network.forward(np.asarray(values, dtype=self.dtype))


class SplitExecutor:
    """End-to-end split execution (STA head -> air -> AP tail).

    With ``quantizer=None`` the round trip equals the unsplit model's
    forward pass exactly.
    """

    def __init__(
        self,
        model: SplitBeamNet,
        quantizer: BottleneckQuantizer | None = None,
    ) -> None:
        self.model = model
        self.head = HeadModel(model, quantizer)
        self.tail = TailModel(model, quantizer)
        self.quantizer = quantizer

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Compress at the STA, reconstruct at the AP."""
        return self.tail.reconstruct(self.head.compress(inputs))

    def feedback_bits(self) -> int:
        """Per-report over-the-air payload in bits.

        Unquantized reports carry raw bottleneck values of the model's
        dtype (32 bits each for a float32 model).
        """
        if self.quantizer is None:
            return self.model.bottleneck_dim * 8 * self.model.dtype.itemsize
        return self.model.bottleneck_dim * self.quantizer.bits + 2 * RANGE_SCALAR_BITS
