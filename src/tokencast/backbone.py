"""Frozen transformer stack operating on channel tokens.

Each block is pre-norm: RMS-normalized multi-head self-attention over the
token axis, then an RMS-normalized gated feed-forward, both residual. A
whole block is one tape op (`tensor.transformer_block`) with a hand-written
pull.
Attention is bidirectional by default because channel tokens carry no
temporal order; a causal flag exists for ablation. The seven linears have
no bias, as in LLaMA, and each can carry a low-rank adapter chosen per
sample by a router: every one is x W + ((x A) g) B (`dlora.apply`, on
arrays, called by the block op once per linear).

The stack is a stand-in for a pretrained language-model trunk at desk
scale: either randomly initialized and frozen, or briefly pretrained by
`training.train` on next-window prediction and then frozen. Either way the
stack is frozen from construction on; pretraining unfreezes it for its run.

Every shape comes straight from the run's RunConfig (dim, heads, ffn_dim,
layers, causal_mask, pretrain_mode) and the trunk draws from `cfg.seed`.
Nothing here re-checks the config: `RunConfig.validate()` holds the bounds,
and `Forecaster` calls it before building the trunk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np

from . import dlora
from . import rng
from . import tensor as T
from .config import RunConfig
from .data import DataError, WindowSet
from .embedding import OutputHead, TsEmbedder, denormalize, instance_normalize
from .tensor import ShapeError, Tensor
from .training import train

INIT_STD = 0.02
NORM_EPS = 1e-6
MASK_FILL = -1e30


def module_dims(cfg: RunConfig) -> dict[str, tuple[int, int]]:
    """(d_in, d_out) of each linear, in `dlora.MODULE_NAMES` order: init draws follow it."""
    d, f = cfg.dim, cfg.ffn_dim
    shapes = ((d, d), (d, d), (d, d), (d, d), (d, f), (d, f), (f, d))
    return dict(zip(dlora.MODULE_NAMES, shapes, strict=True))


class TransformerBlock:
    def __init__(self, cfg: RunConfig, gen: np.random.Generator):
        self.cfg = cfg
        self.weights = {
            name: T.parameter(rng.gaussian(gen, (d_in, d_out), INIT_STD))
            for name, (d_in, d_out) in module_dims(cfg).items()
        }
        self.attn_norm = T.parameter(np.ones(cfg.dim))
        self.ffn_norm = T.parameter(np.ones(cfg.dim))

    def forward(self, h: Tensor, adapters=None, gates=None) -> Tensor:
        """One block pass over (.., N, dim) token states: one `tensor.transformer_block` op."""
        if h.shape[-1] != self.cfg.dim:
            raise ShapeError(f"block dim {self.cfg.dim} does not match input {h.shape}")
        n = h.shape[-2]
        mask = None
        if self.cfg.causal_mask and n > 1:
            mask = np.triu(np.full((n, n), MASK_FILL), k=1)
        linears = [(self.weights[name], adapters.get(name) if adapters else None,
                    gates.get(name) if gates else None) for name in dlora.MODULE_NAMES]
        # looked up on every call, so a wrapper set on dlora.apply at run time is used
        return T.transformer_block(h, linears, self.attn_norm, self.ffn_norm, self.cfg.heads,
                                   mask, NORM_EPS, dlora.apply)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for name in dlora.MODULE_NAMES:
            out[f"{prefix}.{name}.weight"] = self.weights[name]
        out[f"{prefix}.attn_norm"] = self.attn_norm
        out[f"{prefix}.ffn_norm"] = self.ffn_norm
        return out


class Backbone:
    """A stack of blocks, frozen from construction on."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        gen = rng.generator(cfg.seed, "backbone")
        self.blocks = [TransformerBlock(cfg, gen) for _ in range(cfg.layers)]
        self.freeze()

    def forward(self, h: Tensor, adapters=None, gates=None) -> Tensor:
        """Run all blocks over token states.

        `adapters` holds one adapter dict per layer. `gates(layer, h)` returns
        that layer's gates, chosen from the state h entering the block.
        """
        for i, block in enumerate(self.blocks):
            h = block.forward(h, adapters[i] if adapters else None,
                              gates(i, h) if gates else None)
        return h

    def tensors(self, prefix: str = "backbone") -> dict[str, Tensor]:
        out = {}
        for i, block in enumerate(self.blocks):
            out.update(block.tensors(f"{prefix}.block{i}"))
        return out

    def freeze(self):
        """Disable gradients; frozen tensors never get grad buffers."""
        for t in self.tensors().values():
            t.requires_grad = False
            t.grad = None

    def checksum(self) -> str:
        """SHA-256 over all block tensors in name order; detects any drift."""
        digest = hashlib.sha256()
        tensors = self.tensors()
        for name in sorted(tensors):
            digest.update(name.encode())
            digest.update(tensors[name].data.tobytes())
        return digest.hexdigest()


def pretrain_then_freeze(backbone: Backbone, corpus_view, lookback: int,
                         horizon: int, steps: int, batch_size: int = 16,
                         lr: float = 1e-3, seed: int = 0) -> list[float]:
    """Briefly train the stack on next-window prediction, then freeze it.

    One `training.train` run of at least `steps` steps, in whole epochs, on
    the stack between a throwaway embedder and head; only the block weights
    persist. Returns the per-epoch train losses.
    """
    if backbone.cfg.pretrain_mode != "pretrain_then_freeze":
        raise ShapeError("backbone was not configured for pretraining")
    windows = WindowSet(corpus_view, lookback, horizon)
    if windows.count < 1:
        raise DataError("pretraining corpus has no usable windows")
    epochs = math.ceil(steps / math.ceil(windows.count / batch_size))  # 0 steps: 0 epochs
    cfg = dataclasses.replace(backbone.cfg, lr=lr, batch_size=batch_size, weight_decay=0.0,
                              loss_kind="mse", seed=seed, epochs=epochs)
    emb = TsEmbedder(lookback, cfg.dim, seed)
    head = OutputHead(cfg.dim, horizon, seed)
    params = {**backbone.tensors(), **emb.params("pretrain_embedder"),
              **head.params("pretrain_head")}

    def forward_array(x):
        xn, stats = instance_normalize(x)
        return denormalize(head.project(backbone.forward(emb.embed(Tensor(xn)))), stats), []

    model = SimpleNamespace(cfg=cfg, uses_routers=False, forward_array=forward_array,
                            trainable=lambda: params)
    for t in backbone.tensors().values():
        t.requires_grad = True
    try:
        result = train(model, windows, None, cfg)
    finally:
        backbone.freeze()
    return [row["train_loss"] for row in result.history]
