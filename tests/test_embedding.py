"""Token embedding, head projection and window normalization behavior."""

import numpy as np
import pytest

import oracles as O
from helpers import assert_grads_match, rand
from tokencast import tensor as T
from tokencast.embedding import (
    OutputHead,
    TsEmbedder,
    denormalize,
    instance_normalize,
)
from tokencast.tensor import ShapeError, Tensor


def test_embed_shapes():
    emb = TsEmbedder(lookback=512, dim=64, seed=0)
    out = emb.embed(Tensor(rand((7, 512), 1)))
    assert out.shape == (7, 64)
    batched = emb.embed(Tensor(rand((4, 7, 512), 2)))
    assert batched.shape == (4, 7, 64)


def test_embed_single_channel():
    emb = TsEmbedder(lookback=16, dim=8, seed=0)
    assert emb.embed(Tensor(rand((1, 16), 3))).shape == (1, 8)


def test_embed_rejects_wrong_lookback():
    emb = TsEmbedder(lookback=16, dim=8, seed=0)
    with pytest.raises(ShapeError, match="lookback"):
        emb.embed(Tensor(rand((3, 20), 4)))


def test_embed_is_per_token():
    # permuting channel rows permutes token rows identically
    emb = TsEmbedder(lookback=12, dim=6, seed=1)
    x = rand((5, 12), 5)
    perm = [3, 1, 4, 0, 2]
    out = emb.embed(Tensor(x)).data
    out_perm = emb.embed(Tensor(x[perm])).data
    np.testing.assert_array_equal(out[perm], out_perm)


def test_embed_zero_weights_zero_output():
    emb = TsEmbedder(lookback=8, dim=4, seed=2)
    for p in emb.params().values():
        p.data[...] = 0.0
    out = emb.embed(Tensor(rand((3, 8), 6)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_head_projection_value():
    head = OutputHead(dim=4, horizon=3, seed=0)
    head.weight.data[...] = np.arange(12.0).reshape(4, 3)
    head.bias.data[...] = [1.0, 2.0, 3.0]
    h = Tensor(np.ones((1, 4)))
    # ones @ arange cols = [18, 22, 26], plus bias
    np.testing.assert_allclose(head.project(h).data, [[19.0, 24.0, 29.0]], atol=0)


def test_embed_project_gradients():
    emb = TsEmbedder(lookback=6, dim=4, seed=3)
    head = OutputHead(dim=4, horizon=2, seed=4)
    x = Tensor(rand((3, 6), 7))
    target = rand((3, 2), 8)
    params = list(emb.params().values()) + list(head.params().values())

    def loss():
        pred = head.project(emb.embed(x))
        return T.mean(T.square(T.sub(pred, Tensor(target))))

    assert_grads_match(loss, params, rtol=1e-4, atol=1e-7)


def test_instance_normalize_stats():
    x = rand((2, 3, 16), 9) * 5.0 + 2.0
    xn, stats = instance_normalize(x)
    np.testing.assert_allclose(xn.mean(axis=-1), np.zeros((2, 3, 1))[..., 0], atol=1e-10)
    np.testing.assert_allclose(xn.std(axis=-1), np.ones((2, 3)), atol=1e-10)
    assert stats.mean.shape == (2, 3, 1) and stats.std.shape == (2, 3, 1)


def test_instance_normalize_constant_channel():
    x = np.full((1, 1, 8), 4.2)
    xn, stats = instance_normalize(x)
    np.testing.assert_array_equal(xn, np.zeros_like(x))
    assert stats.std[0, 0, 0] == 1e-8


@pytest.mark.parametrize("shape", [(1, 3, 64), (16, 7, 96)])
def test_instance_normalize_matches_plain_mean_and_std(shape):
    # the centred rows are formed once and the deviation from them by
    # np.std's own sequence, so the bits are those of x.mean and x.std
    gen = np.random.Generator(np.random.PCG64(13))
    x = gen.normal(size=shape) * np.exp(gen.normal(size=shape[:-1] + (1,)) * 3.0)
    x[0, 0] = 4.2  # a constant channel: the eps floor sets its deviation
    x[0, 1] += 1e6  # a large offset on a small deviation
    before = x.copy()
    xn, stats = instance_normalize(x)
    for got, want in zip((xn, stats.mean, stats.std), O.instance_normalize(x)):
        np.testing.assert_array_equal(got, want)
    assert stats.std[0, 0, 0] == 1e-8
    np.testing.assert_array_equal(x, before)


def test_denormalize_roundtrip():
    x = rand((2, 3, 16), 10) * 3.0 - 1.0
    xn, stats = instance_normalize(x)
    back = denormalize(Tensor(xn), stats)
    np.testing.assert_allclose(back.data, x, atol=1e-12)


def test_denormalize_gradient_flows():
    x = rand((2, 2, 8), 11)
    _, stats = instance_normalize(x)
    pred = T.parameter(rand((2, 2, 8), 12))
    assert_grads_match(lambda: T.mean(T.square(denormalize(pred, stats))), [pred])
