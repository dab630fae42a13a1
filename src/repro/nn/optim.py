"""Optimizers: SGD (with momentum/weight decay) and Adam [24].

The paper uses SGD for synthetic datasets and Adam for experimental
datasets (Sec. IV-D), both with an initial learning rate of 1e-3.

Updates are *fused*: at construction the optimizer packs every
parameter's ``data`` and ``grad`` into one flat buffer each (the
:class:`~repro.nn.module.Parameter` objects are re-pointed at views of
those buffers, so layers keep accumulating gradients exactly as
before), and ``step`` applies the update rule as a handful of whole-
buffer in-place array operations instead of a Python loop over
parameters.  Every element sees the same arithmetic in the same order
as the per-parameter loop formulation, so trained weights are
bit-identical to it — the frozen loop implementations live in
``repro.perf.reference`` and the equivalence is regression-tested.

The flat buffers take the parameters' dtype (float32 or float64; one
optimizer never mixes the two), so a float32 model steps at half the
memory traffic of a float64 one.

Construction order matters only in the trivial sense: packing copies
the parameters' current values, so sequential use of several
optimizers over the same model (train, then fine-tune) is fine; two
optimizers mutating the same parameters *concurrently* was never
meaningful and remains unsupported.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer: holds parameters and a mutable learning rate.

    Packs parameter data/gradients into flat buffers (see the module
    docstring) and exposes the fused helpers shared by the concrete
    rules: :meth:`zero_grad` clears all gradients in one write and
    :meth:`clip_global_norm` rescales them against a global-L2 bound in
    one fused pass.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        dtypes = {param.data.dtype for param in self.parameters}
        if len(dtypes) != 1:
            raise ConfigurationError(
                f"optimizer parameters mix dtypes {sorted(map(str, dtypes))}"
            )
        (dtype,) = dtypes
        total = sum(param.size for param in self.parameters)
        self._flat_data = np.empty(total, dtype=dtype)
        self._flat_grad = np.empty(total, dtype=dtype)
        self._slices: list[slice] = []
        offset = 0
        for param in self.parameters:
            span = slice(offset, offset + param.size)
            shape = param.data.shape
            self._flat_data[span] = param.data.ravel()
            self._flat_grad[span] = param.grad.ravel()
            # Re-point the parameter at the packed buffers.  All layer
            # code mutates data/grad in place (`+=`, `[...] =`), so the
            # aliasing is preserved for the optimizer's lifetime.
            param.data = self._flat_data[span].reshape(shape)
            param.grad = self._flat_grad[span].reshape(shape)
            self._slices.append(span)
            offset += param.size
        self._scratch = np.empty(total, dtype=dtype)

    def zero_grad(self) -> None:
        self._flat_grad[...] = 0.0

    def clip_global_norm(self, limit: float) -> float:
        """Scale all gradients so their global L2 norm stays <= ``limit``.

        One fused squaring pass over the packed gradient buffer; the
        per-parameter partial sums are then accumulated in parameter
        order, reproducing the reference loop's float arithmetic
        bit-for-bit (each partial is ``np.sum`` over the same
        contiguous values), before the single fused rescale.
        Returns the pre-clip norm.
        """
        squared = np.multiply(self._flat_grad, self._flat_grad, out=self._scratch)
        total = 0.0
        for span in self._slices:
            # ndarray.sum is np.sum minus the dispatch wrapper — same
            # pairwise reduction, so the partials stay bit-identical.
            total += float(squared[span].sum())
        norm = float(np.sqrt(total))
        if norm > limit:
            # A float64 scale, as in the reference loop: float32 grads
            # are scaled in float64 and rounded once.
            self._flat_grad *= np.float64(limit / norm)
        return norm

    def _effective_grad(self, weight_decay: float, out: np.ndarray) -> np.ndarray:
        """``grad + weight_decay * data`` (fused); ``grad`` itself if wd=0."""
        if not weight_decay:
            return self._flat_grad
        np.multiply(weight_decay, self._flat_data, out=out)
        return np.add(self._flat_grad, out, out=out)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = np.zeros_like(self._flat_data)
        self._update = np.empty_like(self._flat_data)

    def step(self) -> None:
        grad = self._effective_grad(self.weight_decay, self._update)
        if self.momentum:
            self._velocity *= self.momentum
            self._velocity += grad
            update = self._velocity
        else:
            update = grad
        np.multiply(self.lr, update, out=self._update)
        self._flat_data -= self._update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = np.zeros_like(self._flat_data)
        self._v = np.zeros_like(self._flat_data)
        self._grad_buf = np.empty_like(self._flat_data)
        self._num = np.empty_like(self._flat_data)
        self._den = np.empty_like(self._flat_data)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad = self._effective_grad(self.weight_decay, self._grad_buf)
        # First and second moments; each elementwise expression matches
        # the reference loop's operation order exactly.
        self._m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=self._num)
        self._m += self._num
        self._v *= self.beta2
        np.multiply(grad, grad, out=self._den)
        np.multiply(1.0 - self.beta2, self._den, out=self._den)
        self._v += self._den
        # Bias-corrected update: data -= lr * m_hat / (sqrt(v_hat) + eps).
        np.divide(self._m, bias1, out=self._num)
        np.divide(self._v, bias2, out=self._den)
        np.sqrt(self._den, out=self._den)
        self._den += self.eps
        np.multiply(self.lr, self._num, out=self._num)
        np.divide(self._num, self._den, out=self._num)
        self._flat_data -= self._num
