"""Hot numeric kernels in plain numpy.

Matrix products are deliberately absent here: those go through BLAS via
numpy and a hand loop cannot beat that. The kernels below are the fused
elementwise/reduction passes that sit inside every forward, backward and
optimizer step.
"""

import numpy as np

BACKEND = "numpy"


def softmax_rows(x):
    """Row-wise softmax of a 2D array, max-subtracted for stability."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad(y, gout):
    # gin = y * (gout - sum(gout * y, row))
    dot = (y * gout).sum(axis=1, keepdims=True)
    return y * (gout - dot)


def rmsnorm_rows(x, weight, eps):
    """Row-wise RMS normalization with a learned per-column gain.

    Returns (out, inv_rms); inv_rms is kept for the backward pass.
    """
    inv = 1.0 / np.sqrt((x * x).mean(axis=1) + eps)
    return x * inv[:, None] * weight, inv


def rmsnorm_rows_grad(x, weight, inv, gout):
    """Grad of rmsnorm_rows with respect to its input rows."""
    d = x.shape[1]
    proj = (gout * weight * x).sum(axis=1)
    return gout * weight * inv[:, None] - x * (proj * inv**3 / d)[:, None]


def rmsnorm_gain_grad(x, inv, gout):
    """Grad of rmsnorm_rows with respect to its per-column gain."""
    return (gout * x * inv[:, None]).sum(axis=0)


def silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def silu_grad(x, gout):
    s = 1.0 / (1.0 + np.exp(-x))
    return gout * (s * (1.0 + x * (1.0 - s)))


def adamw_update(p, g, m, v, step, lr, beta1, beta2, eps, weight_decay, scratch):
    """One decoupled-weight-decay Adam step, in place on flat arrays.

    `scratch` is a float64 array of shape (2, >= p.size) that the step
    overwrites instead of allocating its temporaries; the operations and
    their order are those of the textbook formula, so results are unchanged.
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
