"""Reference ops that only tests run.

The model records fused ops (`backbone.transformer_block`,
`tensor.attention`, `dlora.router_probs`) whose values and grads must
match a chain of plain records bit for bit. The ops of that chain which
the model itself never records live here, on the same `emit` and
`_unbroadcast` machinery as `tokencast.tensor`, so the bit-identity tests
compare against exactly the numpy expressions they always did. Each op
keeps its own finite-difference test. `composed_block` is a transformer
block built from those records, and `widened_block` the block op followed
by a record that widens its state to float64. `np_attention` is the
per-head numpy loop that the attention and block tests check values
against. The kernel expressions at the end are the plain forms that
`tokencast.kernels` computes with in-place passes, and
`instance_normalize` is the plain `x.mean` / `x.std` form of
`embedding.instance_normalize`. `LoopAdamW` is the optimizer as a loop
over the tensors, which the flat-buffer `training.AdamW` must match bit
for bit. `load_csv` is the CSV loader as a per-cell loop, which
`data.load_csv` must match in values, channel names and the message of
the first fault.
"""

import csv
import math
from pathlib import Path

import numpy as np

from tokencast import kernels, training
from tokencast import tensor as T
from tokencast.backbone import NORM_EPS, transformer_block
from tokencast.data import DataError, MultivariateSeries, _decoded_lines
from tokencast.tensor import ShapeError, Tensor, emit, _unbroadcast


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def pull(g):
        return (g * (1.0 - y * y),)

    return emit(y, (a,), pull)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = (1, 0)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def pull(g):
        return (g.transpose(inverse),)

    return emit(np.ascontiguousarray(a.data.transpose(axes)), (a,), pull)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def pull(g):
        return (g.reshape(orig),)

    return emit(a.data.reshape(shape), (a,), pull)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    ax = axis % x.ndim
    moved = np.moveaxis(x, ax, -1)
    flat = np.ascontiguousarray(moved.reshape(-1, moved.shape[-1]))
    yflat = kernels.softmax_rows(flat)
    data = np.moveaxis(yflat.reshape(moved.shape), -1, ax)

    def pull(g):
        gm = np.ascontiguousarray(np.moveaxis(g, ax, -1).reshape(flat.shape))
        gx = kernels.softmax_rows_grad(yflat, gm)
        return (np.ascontiguousarray(np.moveaxis(gx.reshape(moved.shape), -1, ax)),)

    return emit(data, (a,), pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes of stacked operands; the leading axes broadcast.

    One product per matrix of the broadcast leading axes, where
    `tensor.matmul` takes only a 2-D weight.
    """
    ad, bd = a.data, b.data
    data = ad @ bd

    def pull(g):
        return (_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) if a.requires_grad else None,
                _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) if b.requires_grad else None)

    return emit(data, (a, b), pull)


def lora_linear(x: Tensor, w: Tensor, down: Tensor, up: Tensor, mask) -> Tensor:
    """x W + ((x A) mask) B with the low-rank delta as one op.

    The base product x W is its own matmul record; the delta is added in
    place into that fresh buffer, which never leaves this function, so the
    tape keeps one out-sized array per adapted linear. `mask` is None (all
    open) or an array that broadcasts against the rank-r intermediate
    x A of shape (.., r). The delta's pull hands g on to the base product,
    so grads match the unfused matmul, mul and add records bit for bit.
    """
    if (w.ndim != 2 or down.ndim != 2 or up.ndim != 2 or down.shape[0] != w.shape[0]
            or up.shape != (down.shape[1], w.shape[1])):
        raise ShapeError(f"lora_linear: factors {down.shape}, {up.shape} do not fit weight {w.shape}")
    base = T.matmul(x, w)
    (k, p), r = w.shape, down.shape[1]
    x2, ad, ud = x.data.reshape(-1, k), down.data, up.data
    low = (x2 @ ad).reshape(x.shape[:-1] + (r,))
    if mask is not None:
        low = low * mask
    low2 = low.reshape(-1, r)
    base.data += (low2 @ ud).reshape(base.shape)

    def pull(g):
        g2 = np.ascontiguousarray(g).reshape(-1, p)
        gx = gd = None
        if x.requires_grad or down.requires_grad:
            glow = (g2 @ ud.T).reshape(low.shape)
            if mask is not None:
                glow = glow * mask
            glow2 = glow.reshape(-1, r)
            gx = (glow2 @ ad.T).reshape(x.shape) if x.requires_grad else None
            gd = x2.T @ glow2 if down.requires_grad else None
        return (g, gx, gd, low2.T @ g2 if up.requires_grad else None)

    return emit(base.data, (base, x, down, up), pull)


def rmsnorm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """RMS-normalize the last axis and scale by a learned gain vector."""
    d = x.data.shape[-1]
    if weight.data.shape != (d,):
        raise ShapeError(f"rmsnorm: weight shape {weight.shape} does not match last axis {d}")
    flat = np.ascontiguousarray(x.data.reshape(-1, d))
    yflat, inv = kernels.rmsnorm_rows(flat, weight.data, float(eps))
    data = yflat.reshape(x.data.shape)

    def pull(g):
        g2 = np.ascontiguousarray(g.reshape(-1, d))
        gx = gw = None
        if x.requires_grad:
            gx = kernels.rmsnorm_rows_grad(flat, weight.data, inv, g2).reshape(x.data.shape)
        if weight.requires_grad:
            gw = kernels.rmsnorm_gain_grad(flat, inv, g2)
        return gx, gw

    return emit(data, (x, weight), pull)


def adapted_linear(x: Tensor, weight: Tensor, adapter, gate) -> Tensor:
    """An adapted linear as a matmul record plus, for an open gate, a lora_linear record."""
    mask = None if adapter is None or gate is None else np.asarray(gate, dtype=np.float64)
    if mask is None or not mask.any():
        return T.matmul(x, weight)
    if mask.all():
        return lora_linear(x, weight, adapter.down, adapter.up, None)
    mask = mask.reshape(mask.shape + (1,) * (x.ndim - mask.ndim))
    return lora_linear(x, weight, adapter.down, adapter.up, mask)


def composed_block(block, h: Tensor, adapters=None, gates=None) -> Tensor:
    """`backbone.TransformerBlock.forward` as a chain of plain records."""

    def linear(x, name):
        return adapted_linear(x, block.weights[name], adapters.get(name) if adapters else None,
                              gates.get(name) if gates else None)

    x = rmsnorm(h, block.attn_norm, NORM_EPS)
    q, k, v = linear(x, "q_proj"), linear(x, "k_proj"), linear(x, "v_proj")
    h = T.add(h, linear(T.attention(q, k, v, block.cfg.heads), "o_proj"))
    x2 = rmsnorm(h, block.ffn_norm, NORM_EPS)
    gated = T.silu(linear(x2, "gate_proj"))
    ffn = linear(T.mul(gated, linear(x2, "up_proj")), "down_proj")
    return T.add(h, ffn)


def widened_block(block, h: Tensor, adapters=None, gates=None) -> Tensor:
    """`backbone.TransformerBlock.forward` handing its state back in float64.

    The block op's output goes through one more record that widens it and
    hands its float64 grad back as is, so every block reads a float64 state
    and returns its grad in float64, and a float32 state's grads from the
    block above and from its router add in float64 before the block below
    rounds them: a float32 trunk that round-trips each state through float64.
    """
    out = transformer_block(block, h, adapters, gates)

    def pull(g):
        return (g,)

    return emit(out.data, (out,), pull)


def np_attention(q, k, v, heads):
    """Multi-head attention as a per-head numpy loop; head h owns columns [h*dh, (h+1)*dh)."""
    dh = q.shape[-1] // heads
    out = []
    for i in range(heads):
        s = slice(i * dh, (i + 1) * dh)
        scores = q[..., s] @ np.swapaxes(k[..., s], -1, -2) / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out.append(e / e.sum(axis=-1, keepdims=True) @ v[..., s])
    return np.concatenate(out, axis=-1)


# ------------------------------------------------------------------ kernels


def softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad(y, gout):
    dot = (y * gout).sum(axis=1, keepdims=True)
    return y * (gout - dot)


def rmsnorm_rows(x, weight, eps):
    inv = 1.0 / np.sqrt((x * x).mean(axis=1) + eps)
    return x * inv[:, None] * weight, inv


def rmsnorm_scale(x, inv, weight):
    return x * inv[:, None] * weight


def rmsnorm_rows_grad(x, weight, inv, gout):
    d = x.shape[1]
    proj = (gout * weight * x).sum(axis=1)
    return gout * weight * inv[:, None] - x * (proj * inv**3 / d)[:, None]


def rmsnorm_gain_grad(x, inv, gout):
    return (gout * x * inv[:, None]).sum(axis=0)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def silu_grad(x, gout):
    s = 1.0 / (1.0 + np.exp(-x))
    return gout * (s * (1.0 + x * (1.0 - s)))


def instance_normalize(x, eps=1e-8):
    mean = x.mean(axis=-1, keepdims=True)
    std = np.maximum(x.std(axis=-1, keepdims=True), eps)
    return (x - mean) / std, mean, std


# ---------------------------------------------------------------- ingest


def load_csv(path, date_column=None) -> MultivariateSeries:
    """Each row checked and each cell converted in turn; the first fault raises."""
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(_decoded_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        drop = None
        if date_column is not None:
            if date_column not in header:
                raise DataError(f"{path}: date column '{date_column}' not in header {header}")
            drop = header.index(date_column)
        channel_names = [h for i, h in enumerate(header) if i != drop]
        if not channel_names:
            raise DataError(f"{path}: no value columns after dropping '{date_column}'")
        rows = []
        following = reader.line_num + 1  # the first line of the record read next
        for row in reader:
            lineno, following = following, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}"
                )
            vals = []
            for i, cell in enumerate(row):
                if i == drop:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    shown = cell.strip().replace("\r", "\\r").replace("\n", "\\n")
                    raise DataError(
                        f"{path}: line {lineno}: cell '{shown}' is not numeric"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(f"{path}: line {lineno}: non-finite value '{cell.strip()}'")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return MultivariateSeries(name=path.stem, values=np.array(rows, dtype=np.float64),
                              channel_names=channel_names)


# ---------------------------------------------------------------- optimizer


class LoopAdamW(training.AdamW):
    """`training.AdamW` stepping one tensor at a time, as it did before its flat buffers.

    Each tensor has its own moments and its own `kernels.adamw_update`
    call, a None grad steps as zeros, and zero_grad drops every grad, so
    a backward stores fresh ones. The values still live in the base
    class's value buffer, which `training.train` snapshots for early
    stopping.
    """

    def __init__(self, params, **kwargs):
        grads = [p.grad for p in params.values()]
        super().__init__(params, **kwargs)
        for p, grad in zip(params.values(), grads):
            p.grad = grad  # what the caller left, not a view of the grad buffer
        self._m = {name: np.zeros(p.size) for name, p in self.params.items()}
        self._v = {name: np.zeros(p.size) for name, p in self.params.items()}
        self._scratch = np.empty((2, max((p.size for p in self.params.values()), default=0)))

    def step(self) -> None:
        self.step_count += 1
        for name, p in self.params.items():
            g = p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size)
            kernels.adamw_update(
                p.data.reshape(-1), np.ascontiguousarray(g),
                self._m[name], self._v[name], self.step_count,
                self.lr, self.beta1, self.beta2, self.eps, self.weight_decay,
                self._scratch,
            )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
