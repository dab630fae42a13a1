"""The SplitBeam DNN architecture.

A SplitBeam model is a dense MLP over the real/imag-decoupled CSI whose
*first* hidden layer is the bottleneck (the Sec. IV-C heuristic fixes
``e = 1``): the input->bottleneck Linear is the **head** executed on the
STA, everything after it is the **tail** executed at the AP.  Layer
widths follow Table II, e.g. ``[224, 28, 28, 224]`` for the 3-layer
2x2/20 MHz model with K = 1/8 (widths count neurons; weight layers =
``len(widths) - 1``).

The bottleneck activations are transmitted over the air *pre-activation*
(raw head outputs); the tail applies the nonlinearity first.  This keeps
the head a single matrix multiply — the property behind the paper's STA
complexity claim O(K * Nt^2 * Nr^2 * S^2).

The paper's models train and infer in float32 (:data:`MODEL_DTYPE`):
the bottleneck goes on the air as 16-bit codes, so float64 weights buy
nothing at the wire while doubling the bytes every training step moves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Identity, LeakyReLU, Linear, ReLU, Sequential, Tanh
from repro.nn.module import Module
from repro.utils.rng import as_generator, spawn

__all__ = ["MODEL_DTYPE", "SplitBeamNet", "three_layer_widths"]

#: Parameter dtype of every SplitBeam (and LB-SciFi) model by default.
MODEL_DTYPE = np.dtype(np.float32)

_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "linear": Identity,
}


def three_layer_widths(input_dim: int, compression: float) -> list[int]:
    """Widths of the Table II 3-layer model: ``[D, K*D, K*D, D]``.

    The bottleneck width is ``max(1, round(K * D))``.
    """
    if input_dim < 2:
        raise ConfigurationError("input_dim must be >= 2")
    if not 0 < compression <= 1:
        raise ConfigurationError(
            f"compression must be in (0, 1], got {compression}"
        )
    bottleneck = max(1, int(round(compression * input_dim)))
    return [input_dim, bottleneck, bottleneck, input_dim]


class SplitBeamNet(Module):
    """Dense split DNN with the bottleneck after the first weight layer.

    Parameters
    ----------
    widths:
        Neuron counts per layer, ``[D_in, B, ..., D_out]``; ``B`` is the
        bottleneck width.  Two entries give the BOP's initial
        2-weight-layer model ``[D, B, D]``.
    activation:
        Hidden activation: ``relu``, ``leaky_relu`` (default), ``tanh``
        or ``linear``.
    rng:
        Seed/Generator for weight initialization.
    dtype:
        Parameter dtype (default :data:`MODEL_DTYPE`, float32); the
        model computes in it and casts its inputs to it.
    """

    def __init__(
        self,
        widths: Sequence[int],
        activation: str = "leaky_relu",
        rng: "int | np.random.Generator | None" = 0,
        dtype: "np.dtype | type" = MODEL_DTYPE,
    ) -> None:
        super().__init__()
        widths = [int(w) for w in widths]
        if len(widths) < 3:
            raise ConfigurationError(
                "need at least [input, bottleneck, output] widths"
            )
        if any(w < 1 for w in widths):
            raise ConfigurationError(f"widths must be >= 1, got {widths}")
        if widths[1] > widths[0]:
            # Larger-than-input bottlenecks are allowed (Table II studies
            # them) but are not compressions; nothing to validate here.
            pass
        try:
            act_cls = _ACTIVATIONS[activation]
        except KeyError:
            raise ConfigurationError(
                f"unknown activation {activation!r}; "
                f"options: {sorted(_ACTIVATIONS)}"
            ) from None

        self.widths = widths
        self.activation_name = activation
        rngs = spawn(as_generator(rng), len(widths) - 1)
        layers: list[Module] = [
            Linear(widths[0], widths[1], rng=rngs[0], dtype=dtype)
        ]
        for i in range(1, len(widths) - 1):
            layers.append(act_cls())
            layers.append(
                Linear(widths[i], widths[i + 1], rng=rngs[i], dtype=dtype)
            )
        self.network = Sequential(layers)

    # -- Module interface ------------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.network.forward(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.network.backward(grad_output)

    # -- architecture introspection ----------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def bottleneck_dim(self) -> int:
        return self.widths[1]

    @property
    def compression(self) -> float:
        """The paper's K = |B| / |input|."""
        return self.bottleneck_dim / self.input_dim

    @property
    def n_weight_layers(self) -> int:
        return len(self.widths) - 1

    def head_network(self) -> Sequential:
        """The STA-side sub-network (input -> raw bottleneck values)."""
        return self.network.slice(0, 1)

    def tail_network(self) -> Sequential:
        """The AP-side sub-network (bottleneck values -> BF estimate)."""
        return self.network.slice(1)

    def head_macs(self) -> int:
        """Multiply-accumulates of the head per inference."""
        return self.widths[0] * self.widths[1]

    def tail_macs(self) -> int:
        """Multiply-accumulates of the tail per inference."""
        return sum(
            self.widths[i] * self.widths[i + 1]
            for i in range(1, len(self.widths) - 1)
        )

    def label(self) -> str:
        """Table II style label, e.g. ``224-28-28-224``."""
        return "-".join(str(w) for w in self.widths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplitBeamNet({self.label()}, act={self.activation_name})"
