"""Hand values, stability and bit-exact plain forms of the numpy kernels."""

import numpy as np
import pytest

import oracles as O
from tokencast import kernels


def test_adamw_first_step_hand_value():
    # step 1 from zero moments: bias correction makes the update exactly
    # lr * g / (|g| + eps) = lr * sign(g) up to eps, independent of |g|
    p = np.array([1.0])
    g = np.array([7.0])
    m, v = np.zeros(1), np.zeros(1)
    kernels.adamw_update(p, g, m, v, 1, 0.1, 0.9, 0.999, 1e-8, 0.0, np.empty((2, 1)))
    assert abs(p[0] - 0.9) < 1e-8
    np.testing.assert_allclose(m, [0.7], atol=1e-15)
    np.testing.assert_allclose(v, [0.049], atol=1e-15)


def test_softmax_rows_handles_huge_logits():
    out = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_adamw_matches_textbook_formula():
    # the scratch-buffer step performs the formula's operations in its order
    gen = np.random.Generator(np.random.PCG64(3))
    p, m, v = gen.normal(size=257), np.zeros(257), np.zeros(257)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    scratch = np.empty((2, 300))
    lr, beta1, beta2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.05
    for step in range(1, 6):
        g = gen.normal(size=257)
        kernels.adamw_update(p, g, m, v, step, lr, beta1, beta2, eps, wd, scratch)
        m_ref = beta1 * m_ref + (1.0 - beta1) * g
        v_ref = beta2 * v_ref + (1.0 - beta2) * (g * g)
        mhat = m_ref / (1.0 - beta1**step)
        vhat = v_ref / (1.0 - beta2**step)
        p_ref -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p_ref)
        np.testing.assert_array_equal(m, m_ref)
        np.testing.assert_array_equal(v, v_ref)
        np.testing.assert_array_equal(p, p_ref)


def kernel_args(name, rows=9, width=7):
    gen = np.random.Generator(np.random.PCG64(5))
    x = gen.normal(size=(rows, width)) * 3.0
    if rows > 1:
        x[0] = 0.0  # a zero row: rmsnorm's eps alone keeps it finite
    gout = gen.normal(size=(rows, width))
    weight = gen.uniform(0.5, 1.5, size=width)
    inv = 1.0 / np.sqrt((x * x).mean(axis=1) + 1e-6)
    return {
        "softmax_rows": (x,),
        "softmax_rows_grad": (O.softmax_rows(x), gout),
        "rmsnorm_rows": (x, weight, 1e-6),
        "rmsnorm_scale": (x, inv, weight),
        "rmsnorm_rows_grad": (x, weight, inv, gout),
        "rmsnorm_gain_grad": (x, inv, gout),
        "sigmoid": (x.reshape(-1),),
        "silu": (x.reshape(-1),),
        "silu_grad": (x.reshape(-1), gout.reshape(-1)),
    }[name]


@pytest.mark.parametrize("name", ["softmax_rows", "softmax_rows_grad", "rmsnorm_rows",
                                  "rmsnorm_scale", "rmsnorm_rows_grad", "rmsnorm_gain_grad",
                                  "sigmoid", "silu", "silu_grad"])
def test_kernels_match_their_plain_expressions(name):
    # the in-place passes perform the plain expressions' operations in their
    # order, so the bits are the same, the results are C-contiguous and the
    # arguments stay untouched; silu_grad takes the sigmoid its caller holds
    # beside the oracle's arguments. The softmax kernels reduce rows of fewer
    # than kernels.NARROW values as column sweeps, so they run at widths on
    # both sides of that rule, from one row to many.
    cases = [kernel_args(name)]
    if name.startswith("softmax"):
        cases = [kernel_args(name, rows, width) for rows in (1, 9, 768) for width in range(1, 13)]
    for args in cases:
        held = (kernels.sigmoid(args[0]),) if name == "silu_grad" else ()
        before = [np.copy(a) for a in args + held]
        got, want = getattr(kernels, name)(*args, *held), getattr(O, name)(*args)
        for g, w in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, want))):
            np.testing.assert_array_equal(g, w)
            assert g.flags.c_contiguous
        for a, b in zip(args + held, before):
            np.testing.assert_array_equal(a, b)
