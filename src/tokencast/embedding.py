"""Channel-as-token embedding, forecast head, per-window normalization.

Each channel's whole lookback is one token: (channels, lookback) maps to
(channels, dim) through a two-layer MLP applied to every token row
independently, so tokens never mix here and channel order is irrelevant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import rng
from . import tensor as T
from .tensor import ShapeError, Tensor

INIT_STD = 0.02


class NormStats(NamedTuple):
    mean: np.ndarray
    std: np.ndarray


def instance_normalize(x: np.ndarray, eps: float = 1e-8) -> tuple[np.ndarray, NormStats]:
    """Shift/scale each window's channel rows to zero mean, unit deviation.

    Stats come from the lookback alone and are treated as constants by the
    gradient tape; only the affine de-normalization of the forecast is
    differentiated. The mean and the centred rows are formed once, and the
    deviation from them by np.std's own sequence (sum / n, square, sum / n,
    sqrt), so the bits are those of `x.mean` and `x.std`.
    """
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True)
    mean /= n
    xn = x - mean
    std = np.square(xn).sum(axis=-1, keepdims=True)
    std /= n
    np.sqrt(std, out=std)
    np.maximum(std, eps, out=std)
    xn /= std
    return xn, NormStats(mean=mean, std=std)


def denormalize(pred: Tensor, stats: NormStats) -> Tensor:
    """Undo instance_normalize on a forecast; the (.., C, 1) stats broadcast over the horizon."""
    return T.add(T.mul(pred, Tensor(stats.std)), Tensor(stats.mean))


class TsEmbedder:
    """Two linear layers with SiLU between, applied per channel token."""

    def __init__(self, lookback: int, dim: int, seed: int):
        self.lookback = lookback
        self.dim = dim
        hidden = 2 * dim
        gen = rng.generator(seed, "embedder")
        self.w1 = T.parameter(rng.gaussian(gen, (lookback, hidden), INIT_STD))
        self.b1 = T.parameter(np.zeros(hidden))
        self.w2 = T.parameter(rng.gaussian(gen, (hidden, dim), INIT_STD))
        self.b2 = T.parameter(np.zeros(dim))

    def embed(self, x: Tensor) -> Tensor:
        """(..., channels, lookback) -> (..., channels, dim)."""
        if x.shape[-1] != self.lookback:
            raise ShapeError(
                f"embedder configured for lookback {self.lookback}, got {x.shape[-1]}"
            )
        h = T.silu(T.linear(x, self.w1, self.b1))
        return T.linear(h, self.w2, self.b2)

    def params(self, prefix: str = "embedder") -> dict[str, Tensor]:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }


class OutputHead:
    """Linear map from final token states to the forecast horizon."""

    def __init__(self, dim: int, horizon: int, seed: int):
        gen = rng.generator(seed, "head")
        self.dim = dim
        self.horizon = horizon
        self.weight = T.parameter(rng.gaussian(gen, (dim, horizon), INIT_STD))
        self.bias = T.parameter(np.zeros(horizon))

    def project(self, h: Tensor) -> Tensor:
        """(..., channels, dim) -> (..., channels, horizon), in float64 whatever
        the dtype of h (the trunk's last state)."""
        if h.shape[-1] != self.dim:
            raise ShapeError(f"head configured for dim {self.dim}, got {h.shape[-1]}")
        return T.linear(h, self.weight, self.bias)

    def params(self, prefix: str = "head") -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}
