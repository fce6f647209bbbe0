"""Shared test utilities, chiefly the finite-difference gradient oracle.

The oracle never touches the tape machinery: it evaluates the scalar loss
twice per coordinate with the raw numpy buffers perturbed in place, so it
stays an independent check on the analytic backward pass.
"""

import tracemalloc

import numpy as np

from tokencast.tensor import Tape


def rand(shape, seed, lo=-1.0, hi=1.0):
    """Uniform draws from a PCG64 stream of its own seed."""
    return np.random.Generator(np.random.PCG64(seed)).uniform(lo, hi, size=shape)


def finite_difference(loss_fn, arrays, h=1e-5):
    """Central-difference gradient of loss_fn w.r.t. each array in `arrays`.

    loss_fn takes no arguments and must read the arrays by reference.
    Returns a list of gradient arrays matching `arrays`.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def autograd_gradients(build_loss, params):
    """Run one taped forward/backward; return grads aligned with params."""
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


def assert_grads_match(build_loss, params, rtol=1e-5, atol=1e-7, h=1e-5):
    """Compare taped gradients against the finite-difference oracle."""
    analytic = autograd_gradients(build_loss, params)

    def numeric_loss():
        return build_loss().item()

    numeric = finite_difference(numeric_loss, [p.data for p in params], h=h)
    for p, a, n in zip(params, analytic, numeric):
        np.testing.assert_allclose(
            a, n, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for parameter of shape {p.data.shape}",
        )


def numpy_bytes():
    """Bytes of the numpy data buffers alive now, as tracemalloc (started) traces them."""
    only_numpy = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([only_numpy]).traces)


def tape_ops(tape):
    """Op names of a tape's records, read off their pull closures."""
    return [pull.__qualname__.split(".")[0] for _, _, pull in tape._records]
