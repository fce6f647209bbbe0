"""Frozen transformer stack operating on channel tokens.

Each block is pre-norm: RMS-normalized multi-head self-attention over the
token axis, then an RMS-normalized gated feed-forward, both residual. A
whole block is one tape op (`transformer_block`) with a hand-written pull.
Attention is always bidirectional: channel tokens carry no temporal order,
so no token is masked from another. The seven linears have
no bias, as in LLaMA, and each can carry a low-rank adapter chosen per
sample by a router: every one is x W + ((x A) g) B (`dlora.apply` and
`dlora.apply_grads`, on arrays, called by the block op once per linear).

The stack is a stand-in for a pretrained language-model trunk at desk
scale: either randomly initialized and frozen, or briefly pretrained by
`training.train` on next-window prediction and then frozen. Either way the
stack is frozen from construction on; pretraining unfreezes it for its run.

The trunk stores its frozen weights and norm gains in the run's
`trunk_dtype`, float64 or float32, and each block op computes in it and
emits its output state in it, so the states between blocks stay in the
trunk dtype; only block 0 converts its input, the float64 output of the
alignment. Everything outside the block ops (embedder, alignment, routers,
head, loss, optimizer) stays float64: the routers and the head read a
float32 state widened. The weights are drawn in float64 and rounded once,
so a float32 trunk is the float64 trunk rounded.

Every shape comes straight from the run's RunConfig (dim, heads, ffn_dim,
layers, pretrain_mode, trunk_dtype; the linears' through
`module_dims`) and the trunk draws from `cfg.seed`. Nothing here re-checks
the config: `RunConfig.validate()` holds the bounds, and `Forecaster`
calls it before building the trunk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np

from . import dlora, kernels, rng
from . import tensor as T
from .config import RunConfig
from .data import DataError, WindowSet
from .embedding import OutputHead, TsEmbedder, denormalize, instance_normalize
from .tensor import ShapeError, Tensor
from .training import flat_views, train

INIT_STD = 0.02
NORM_EPS = 1e-6


def module_dims(cfg: RunConfig) -> dict[str, tuple[int, int]]:
    """(d_in, d_out) of each linear, in `dlora.MODULE_NAMES` order: init draws follow it."""
    d, f = cfg.dim, cfg.ffn_dim
    shapes = ((d, d), (d, d), (d, d), (d, d), (d, f), (d, f), (f, d))
    return dict(zip(dlora.MODULE_NAMES, shapes, strict=True))


class TransformerBlock:
    def __init__(self, cfg: RunConfig, gen: np.random.Generator):
        self.cfg = cfg
        self.dtype = dt = np.dtype(cfg.trunk_dtype)
        self.weights = {
            name: T.parameter(rng.gaussian(gen, (d_in, d_out), INIT_STD, dt), dt)
            for name, (d_in, d_out) in module_dims(cfg).items()
        }
        self.attn_norm = T.parameter(np.ones(cfg.dim, dt), dt)
        self.ffn_norm = T.parameter(np.ones(cfg.dim, dt), dt)

    def forward(self, h: Tensor, adapters=None, gates=None) -> Tensor:
        """One block pass over (.., N, dim) token states: one `transformer_block` op."""
        return transformer_block(self, h, adapters, gates)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for name in dlora.MODULE_NAMES:
            out[f"{prefix}.{name}.weight"] = self.weights[name]
        out[f"{prefix}.attn_norm"] = self.attn_norm
        out[f"{prefix}.ffn_norm"] = self.ffn_norm
        return out


def transformer_block(block: TransformerBlock, h: Tensor, adapters=None, gates=None) -> Tensor:
    """One pre-norm transformer block over (.., N, dim) token states as one op.

    h1 = h + o(attention(q(x), k(x), v(x))) with x = rmsnorm(h), then
    out = h1 + down(silu(gate(x2)) * up(x2)) with x2 = rmsnorm(h1).
    The seven linears are the block's weights in `dlora.MODULE_NAMES`
    order, each with its adapter and gate from `adapters` and `gates`
    (dicts by module name, or None). Each runs through `dlora.apply`, and
    the down and up factors of each delta that ran join the op's inputs;
    the pull forms each linear's grads with `dlora.apply_grads`. Heads come
    from the block's config; every token attends to every token.

    Forward and backward run the numpy expressions of the composed rmsnorm,
    matmul, lora_linear, attention, add, silu and mul records
    (tests/oracles.py) in their order, and the grads of a state used twice
    add up in the order those records gave them, so values and grads match
    the records bit for bit whenever nothing recorded after the block reads
    h. The grad of h is always formed; the grads of trunk weights, gains
    and adapter factors only when those require grad.

    The op computes in the block's dtype and emits its output in it. It
    converts on entry every input not already in that dtype: block 0's
    float64 state, the factors of each adapter whose delta runs and
    pretraining's float64 trunk masters (`_cast`, `_cast_factors`);
    `dlora.apply` converts the gates, and the pull converts the output
    grad. The pull returns each grad in its own input's dtype: a state's
    grad in the state's, the grads of factors and masters in float64. A
    float64 block converts nothing.

    Outside a tape the intermediates still live until the op returns:
    dropping each one once used made the allocator hand pages back and
    fault them in again, and a batch-64 desk forward ran slower.

    For its pull the op keeps gate_out, up, h1, the per-row inverse norms,
    attention's head-major q, k, v and probabilities, and each delta's
    gated rank-r rows. It does not keep x, x2, silu(gate_out), its product
    with up, or the attention context. x and x2 are the rows it already
    holds (its input and h1) times their inverse norms and gains, the
    norm's last two passes (`kernels.rmsnorm_scale`); the other three are
    one product away from what is kept. The pull forms each again with the
    forward's own expression (the same bits), only when a grad that reads
    it is formed (for x and x2, `dlora.reads_input` of the linears they
    feed), and drops it after its last reader. The sigmoid of gate_out it
    forms for that also serves the silu grad.
    The forward multiplies up into the silu's buffer in place: once the
    two were no longer kept, a separate buffer for the product left one
    more ffn-wide array per block for the allocator to hand back and fault
    in again, and main_text training steps ran about 2% slower.
    """
    cfg, dt = block.cfg, block.dtype
    d = cfg.dim
    if h.shape[-1] != d:
        raise ShapeError(f"block dim {d} does not match input {h.shape}")
    weights = [block.weights[name] for name in dlora.MODULE_NAMES]
    inputs = [h, block.attn_norm, block.ffn_norm, *weights]
    hd, shape = h.data.astype(dt, copy=False), h.shape
    narrow = dt != np.float64  # a float64 block converts nothing: every input is float64
    if narrow:
        attn_norm, ffn_norm, *weights = [_cast(t, dt) for t in inputs[1:]]
    else:
        attn_norm, ffn_norm = block.attn_norm, block.ffn_norm
    saved = []  # per linear: adapter, and apply's gated rank-r rows and mask

    def reads_input(i):
        adapter, low, _ = saved[i]
        return dlora.reads_input(weights[i], adapter, low)

    def linear(i, z):
        name = dlora.MODULE_NAMES[i]
        adapter = adapters.get(name) if adapters else None
        gate = gates.get(name) if gates else None
        local = adapter
        if narrow and adapter is not None and gate is not None and np.any(gate):
            local = _cast_factors(adapter, dt)  # only a delta that runs reads them
        out, low, m = dlora.apply(z, weights[i].data, None, local, gate)
        if low is not None:
            inputs.extend((adapter.down, adapter.up))
        saved.append((local, low, m))
        return out

    x, inv1 = kernels.rmsnorm_rows(hd.reshape(-1, d), attn_norm.data, NORM_EPS)
    x = x.reshape(shape)
    q, k, v = linear(0, x), linear(1, x), linear(2, x)
    recording = T.recording()
    if recording:
        x = None  # the pull forms it again from hd and inv1
    ctx, att = T.attend(q, k, v, cfg.heads, recording)
    h1 = hd + linear(3, ctx)
    x2, inv2 = kernels.rmsnorm_rows(h1.reshape(-1, d), ffn_norm.data, NORM_EPS)
    x2 = x2.reshape(shape)
    gate_out = linear(4, x2)
    prod = kernels.silu(gate_out.reshape(-1)).reshape(gate_out.shape)
    up = linear(5, x2)
    if recording:
        x2 = None  # the pull forms it again from h1 and inv2
    prod *= up  # silu(gate_out) * up, in the silu's buffer
    out = h1 + linear(6, prod)
    # the dtype each grad goes back in, worked out here so that the pull
    # holds no reference to the inputs list
    wide = ([(j, t.data.dtype) for j, t in enumerate(inputs) if t.data.dtype != dt]
            if narrow else ())

    def pull(g):
        grads = [None] * 10
        factor_grads = [(None, None)] * 7  # down and up grads of each linear's delta

        def normed(rows, inv, gain, *linears):
            """A norm's output, as the forward formed it, when a grad of `linears` reads it."""
            if not any(reads_input(i) for i in linears):
                return None  # apply_grads takes None for an input no grad reads
            return kernels.rmsnorm_scale(rows, inv, gain.data).reshape(shape)

        def back(i, gz, gout, z):
            adapter, low, m = saved[i]
            gz, grads[3 + i], gd, gu = dlora.apply_grads(gz, gout, z, weights[i], adapter, low, m)
            factor_grads[i] = (gd, gu)
            return gz

        # Tape.backward hands over a grad no other tensor holds, so the
        # norms' shares of h's grad are added into it in place, as the tape did
        g = np.ascontiguousarray(g, dtype=dt)
        flat = gate_out.reshape(-1)
        s = kernels.sigmoid(flat)
        gated = (s * flat).reshape(gate_out.shape)  # silu(gate_out), as kernels.silu forms it
        prod = gated * up if reads_input(6) else None
        gprod = back(6, None, g, prod)
        del prod
        rows = h1.reshape(-1, d)
        x2 = normed(rows, inv2, ffn_norm, 4, 5)
        gx2 = back(5, None, gprod * gated, x2)
        del gated
        ggated = np.ascontiguousarray(gprod * up).reshape(-1)
        ggate = kernels.silu_grad(flat, ggated, s).reshape(gate_out.shape)
        del s
        gx2 = back(4, gx2, ggate, x2)
        del x2
        gh1 = g  # the residual's share, then the norms'
        g2 = np.ascontiguousarray(gx2.reshape(-1, d))
        gh1 += kernels.rmsnorm_rows_grad(rows, ffn_norm.data, inv2, g2).reshape(shape)
        if ffn_norm.requires_grad:
            grads[2] = kernels.rmsnorm_gain_grad(rows, inv2, g2)
        ctx = T.attend_context(att, shape) if reads_input(3) else None
        gctx = back(3, None, gh1, ctx)
        del ctx
        gq, gk, gv = T.attend_grads(att, gctx, shape, shape)
        rows = hd.reshape(-1, d)
        x = normed(rows, inv1, attn_norm, 0, 1, 2)
        gx = back(2, None, gv, x)
        gx = back(1, gx, gk, x)
        gx = back(0, gx, gq, x)
        del x
        g2 = np.ascontiguousarray(gx.reshape(-1, d))
        gh1 += kernels.rmsnorm_rows_grad(rows, attn_norm.data, inv1, g2).reshape(shape)
        if attn_norm.requires_grad:
            grads[1] = kernels.rmsnorm_gain_grad(rows, inv1, g2)
        grads[0] = gh1
        for (_, low, _), pair in zip(saved, factor_grads):
            if low is not None:
                grads += pair
        for j, dtype in wide:
            if grads[j] is not None:
                grads[j] = grads[j].astype(dtype)
        return grads

    return T.emit(out, tuple(inputs), pull, dt)


def _cast(t: Tensor, dtype) -> Tensor:
    """t when its data is in `dtype`, else an unrecorded copy in `dtype` with t's grad flag."""
    return t if t.data.dtype == dtype else Tensor(t.data, t.requires_grad, dtype)


def _cast_factors(adapter: dlora.LoraAdapter, dtype):
    """The adapter's factors in `dtype`, with their grad flags."""
    return SimpleNamespace(down=_cast(adapter.down, dtype), up=_cast(adapter.up, dtype))


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
        """SHA-256 over all block tensors in name order; detects any drift.

        Each tensor's own buffer is hashed, so no copy of the trunk is made."""
        digest = hashlib.sha256()
        tensors = self.tensors()
        for name in sorted(tensors):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(tensors[name].data))
        return digest.hexdigest()


def pretrain_then_freeze(backbone: Backbone, corpus_view, lookback: int,
                         horizon: int, steps: int, batch_size: int = 16,
                         lr: float = 1e-3, seed: int = 0) -> list[float]:
    """Briefly train the stack on next-window prediction, then freeze it.

    One `training.train` run of at least `steps` steps, in whole epochs, on
    the stack between a throwaway embedder and head; only the block weights
    persist. They are copied out of the run's flat value buffer into one
    buffer of their own, so the embedder and head go with the run's; one
    buffer, not one array per tensor, because the small copies spread over
    the heap and a desk pretraining fit peaked 1.8 MB higher. The run
    trains float64 masters in the optimizer's buffer, and the closing copy
    rounds them into a buffer of the trunk dtype. Returns the per-epoch
    train losses.
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

    model = SimpleNamespace(cfg=cfg, forward_array=forward_array, trainable=lambda: params)
    for t in backbone.tensors().values():
        t.requires_grad = True
    try:
        result = train(model, windows, None, cfg)
    finally:
        trunk = list(backbone.tensors().values())
        buffer = np.empty(sum(t.size for t in trunk), backbone.blocks[0].dtype)
        for t, home in zip(trunk, flat_views(buffer, trunk)):
            home[...] = t.data
            t.data = home
        backbone.freeze()
    return [row["train_loss"] for row in result.history]
