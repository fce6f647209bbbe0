"""Reference ops that only tests run.

The model records fused ops (`tensor.attention`, `tensor.router_probs`)
whose values and grads must match a chain of plain records bit for bit.
The ops of that chain which the model itself never records live here, on
the same `_emit` and `_unbroadcast` machinery as `tokencast.tensor`, so
the bit-identity tests compare against exactly the numpy expressions they
always did. Each op keeps its own finite-difference test. `np_attention`
is the per-head numpy loop that the attention and block tests check values
against.
"""

import math

import numpy as np

from tokencast import kernels
from tokencast.tensor import Tensor, _emit, _unbroadcast


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def pull(g):
        return (g * (1.0 - y * y),)

    return _emit(y, (a,), pull)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = (1, 0)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def pull(g):
        return (g.transpose(inverse),)

    return _emit(np.ascontiguousarray(a.data.transpose(axes)), (a,), pull)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def pull(g):
        return (g.reshape(orig),)

    return _emit(a.data.reshape(shape), (a,), pull)


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

    return _emit(data, (a,), pull)


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

    return _emit(data, (a, b), pull)


def np_attention(q, k, v, heads, mask=None):
    """Multi-head attention as a per-head numpy loop; head h owns columns [h*dh, (h+1)*dh)."""
    dh = q.shape[-1] // heads
    out = []
    for i in range(heads):
        s = slice(i * dh, (i + 1) * dh)
        scores = q[..., s] @ np.swapaxes(k[..., s], -1, -2) / math.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out.append(e / e.sum(axis=-1, keepdims=True) @ v[..., s])
    return np.concatenate(out, axis=-1)
