"""Hand values and stability of the numpy kernels."""

import numpy as np

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
