"""Aligning channel tokens to a text prompt via multi-head cross-attention.

The prompt is embedded by hashing whitespace-split lowercased words into a
small trainable bucket table (FNV-1a, so ids are stable across processes).
Queries come from the series tokens, keys and values from the prompt rows;
`tensor.attention` runs all heads as one tape op, with the prompt rows
shared by the whole batch, and the attended result is added back
residually. The output projection starts at zero, making the whole module
an exact identity at init.

The prompt never enters the backbone on the default path; it only shapes
the token states through this module.
"""

from __future__ import annotations

import numpy as np

from . import rng
from . import tensor as T
from .tensor import ShapeError, Tensor

INIT_STD = 0.02


def hash_tokens(text: str, buckets: int, max_tokens: int) -> list[int]:
    """Lowercase, split on whitespace, FNV-1a hash each word into a bucket."""
    words = text.lower().split()
    if not words:
        raise ShapeError("prompt text is empty after tokenization")
    words = words[:max_tokens]
    return [rng.fnv1a_64(w.encode("utf-8")) % buckets for w in words]


class PromptEmbedding:
    """Trainable bucket table plus the ids of one prompt, hashed once at construction."""

    def __init__(self, dim: int, buckets: int, seed: int, text: str, max_tokens: int = 64):
        gen = rng.generator(seed, "prompt_table")
        self.dim = dim
        self.buckets = buckets
        self.table = T.parameter(rng.gaussian(gen, (buckets, dim), INIT_STD))
        self.ids = hash_tokens(text, buckets, max_tokens)

    def encode(self) -> Tensor:
        """Rows of the table for the prompt's bucket ids, (P, dim)."""
        return T.take_rows(self.table, self.ids)

    def params(self, prefix: str = "prompt") -> dict[str, Tensor]:
        return {f"{prefix}.table": self.table}


class CrossAttention:
    """Multi-head cross-attention; head k owns columns [k*dh, (k+1)*dh)."""

    def __init__(self, dim: int, heads: int, seed: int):
        gen = rng.generator(seed, "alignment")
        self.dim = dim
        self.heads = heads
        self.wq = T.parameter(rng.gaussian(gen, (dim, dim), INIT_STD))
        self.wk = T.parameter(rng.gaussian(gen, (dim, dim), INIT_STD))
        self.wv = T.parameter(rng.gaussian(gen, (dim, dim), INIT_STD))
        # zero output projection: the residual add is an exact identity at init
        self.wo = T.parameter(np.zeros((dim, dim)))

    def align(self, ts_tokens: Tensor, prompt_tokens: Tensor) -> Tensor:
        """Residually refine (.., N, dim) series tokens against (P, dim) prompt rows."""
        if ts_tokens.shape[-1] != self.dim or prompt_tokens.shape[-1] != self.dim:
            raise ShapeError(
                f"alignment dim {self.dim} does not match inputs "
                f"{ts_tokens.shape} / {prompt_tokens.shape}"
            )
        if prompt_tokens.ndim != 2:
            raise ShapeError(f"prompt tokens must be (P, dim), got {prompt_tokens.shape}")
        q = T.matmul(ts_tokens, self.wq)
        k = T.matmul(prompt_tokens, self.wk)
        v = T.matmul(prompt_tokens, self.wv)
        merged = T.attention(q, k, v, self.heads)
        return T.linear(merged, self.wo, ts_tokens)  # ts_tokens + merged @ wo

    def params(self, prefix: str = "align") -> dict[str, Tensor]:
        return {
            f"{prefix}.wq": self.wq,
            f"{prefix}.wk": self.wk,
            f"{prefix}.wv": self.wv,
            f"{prefix}.wo": self.wo,
        }
