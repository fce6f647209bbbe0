"""Hand values and stability of the numpy kernels."""

import numpy as np

from tokencast import kernels


def test_adamw_first_step_hand_value():
    # step 1 from zero moments: bias correction makes the update exactly
    # lr * g / (|g| + eps) = lr * sign(g) up to eps, independent of |g|
    p = np.array([1.0])
    g = np.array([7.0])
    m, v = np.zeros(1), np.zeros(1)
    kernels.adamw_update(p, g, m, v, 1, 0.1, 0.9, 0.999, 1e-8, 0.0)
    assert abs(p[0] - 0.9) < 1e-8
    np.testing.assert_allclose(m, [0.7], atol=1e-15)
    np.testing.assert_allclose(v, [0.049], atol=1e-15)


def test_softmax_rows_handles_huge_logits():
    out = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)
