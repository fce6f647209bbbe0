"""Hot numeric kernels in plain numpy.

Matrix products are deliberately absent here: those go through BLAS via
numpy and a hand loop cannot beat that. The kernels below are the fused
elementwise/reduction passes that sit inside every forward, backward and
optimizer step. Each writes into the few fresh buffers it allocates
(`out=`, in-place operators) instead of a temporary per operation, and
performs its textbook expression's operations in their order, so the bits
are those of the plain expression (tests/oracles.py).
"""

import numpy as np

BACKEND = "numpy"


# numpy reduces a row's last axis with one inner-loop call per row, which
# dominates a softmax over a few keys (channels as tokens: 3 on desk, 7 on
# main_text). Rows narrower than this are reduced on a transposed copy as a
# few whole-column passes instead. The bits are the same: a max is exact,
# and numpy sums fewer than 8 values left to right, exactly as an axis-0
# reduction adds rows; from 8 values on its row sum is pairwise, so wider
# rows keep the row reductions.
NARROW = 8  # rows of fewer values are narrow


def softmax_rows(x):
    """Row-wise softmax of a 2D array, max-subtracted for stability.

    Rows of fewer than NARROW values are reduced as column sweeps on a
    C-contiguous transposed copy, and the result comes back C-contiguous.
    """
    if x.shape[1] < NARROW:
        e = x.T.copy()
        e -= e.max(axis=0)
        np.exp(e, out=e)
        e /= e.sum(axis=0)
        return np.ascontiguousarray(e.T)
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_rows_grad(y, gout):
    """gin = y * (gout - sum(gout * y, row)); narrow rows sum as column sweeps."""
    t = y * gout
    if y.shape[1] < NARROW:
        dot = t.T.copy().sum(axis=0)[:, None]
    else:
        dot = t.sum(axis=1, keepdims=True)
    np.subtract(gout, dot, out=t)
    t *= y
    return t


def rmsnorm_rows(x, weight, eps):
    """Row-wise RMS normalization with a learned per-column gain.

    Returns (out, inv_rms); inv_rms is kept for the backward pass. The row
    mean of squares is a sum divided by the width, as np.mean forms it.
    """
    out = x * x
    inv = out.sum(axis=1)
    inv /= x.shape[1]
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return rmsnorm_scale(x, inv, weight, out), inv


def rmsnorm_scale(x, inv, weight, out=None):
    """x * inv[:, None] * weight: rmsnorm_rows' output from its rows and inverse norms.

    rmsnorm_rows ends with this step, writing into the buffer it squared
    the rows in; a caller that kept the rows and inv forms the same bits
    again without keeping the output.
    """
    out = np.multiply(x, inv[:, None], out=out)
    out *= weight
    return out


def rmsnorm_rows_grad(x, weight, inv, gout):
    """Grad of rmsnorm_rows with respect to its input rows."""
    gw = gout * weight
    t = gw * x
    coef = t.sum(axis=1)  # the row projection
    coef *= inv**3
    coef /= x.shape[1]
    gw *= inv[:, None]
    np.multiply(x, coef[:, None], out=t)
    gw -= t
    return gw


def rmsnorm_gain_grad(x, inv, gout):
    """Grad of rmsnorm_rows with respect to its per-column gain."""
    t = gout * x
    t *= inv[:, None]
    return t.sum(axis=0)


def sigmoid(x):
    """1 / (1 + exp(-x)), in one fresh buffer."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(x):
    s = sigmoid(x)
    s *= x
    return s


def silu_grad(x, gout, s):
    """Grad of silu at x from its output grad, given s = sigmoid(x) that the caller holds."""
    t = np.subtract(1.0, s)
    t *= x
    t += 1.0
    t *= s
    t *= gout
    return t


def adamw_update(p, g, m, v, step, lr, beta1, beta2, eps, weight_decay, scratch):
    """One decoupled-weight-decay Adam step, in place on flat arrays.

    `scratch` is a float64 array of shape (2, >= p.size) that the step
    overwrites instead of allocating its temporaries; the operations and
    their order are those of the textbook formula, so results are unchanged.
    Every operation is elementwise, so `training.AdamW` calls it once per
    fixed-size slice of its flat buffers and gets the bits of one call over
    the whole buffers, with a scratch of one slice.
    """
    a, b = scratch[0, : p.size], scratch[1, : p.size]
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(g, g, out=a)
    a *= 1.0 - beta2
    v += a
    np.divide(m, 1.0 - beta1**step, out=a)  # mhat
    np.divide(v, 1.0 - beta2**step, out=b)  # vhat
    np.sqrt(b, out=b)
    b += eps
    a /= b
    np.multiply(p, weight_decay, out=b)
    a += b
    a *= lr
    p -= a
