"""Prompt hashing and cross-attention alignment behavior."""

import numpy as np
import pytest

from helpers import assert_grads_match
from tokencast import tensor as T
from tokencast.alignment import CrossAttention, PromptEmbedding, hash_tokens
from tokencast.tensor import ShapeError, Tensor


def rand(shape, seed):
    return np.random.Generator(np.random.PCG64(seed)).uniform(-1, 1, size=shape)


def test_hash_tokens_deterministic():
    a = hash_tokens("Forecast electricity LOAD", 32, 16)
    b = hash_tokens("forecast electricity load", 32, 16)
    assert a == b
    assert len(a) == 3
    assert all(0 <= i < 32 for i in a)


def test_hash_tokens_truncates():
    ids = hash_tokens("a b c d e f", 8, 4)
    assert len(ids) == 4


def test_hash_tokens_rejects_empty():
    with pytest.raises(ShapeError, match="empty"):
        hash_tokens("   ", 8, 4)


def test_prompt_encode_shape_and_rows():
    pe = PromptEmbedding(dim=6, buckets=16, seed=0, text="one two three")
    out = pe.encode()
    assert out.shape == (3, 6)
    np.testing.assert_array_equal(out.data, pe.table.data[pe.ids])
    assert pe.ids == hash_tokens("one two three", 16, 64)
    assert len(PromptEmbedding(6, 16, 0, "one two three", max_tokens=2).ids) == 2


def test_alignment_identity_at_init():
    # zero output projection: residual add leaves tokens bit-identical
    ca = CrossAttention(dim=8, heads=2, seed=1)
    ts = Tensor(rand((5, 8), 2))
    prompt = Tensor(rand((3, 8), 3))
    out = ca.align(ts, prompt)
    np.testing.assert_array_equal(out.data, ts.data)


def test_alignment_single_prompt_token_attends_fully():
    # one key: every attention weight is exactly 1, so each head adds V
    ca = CrossAttention(dim=4, heads=2, seed=4)
    ca.wo.data[...] = np.eye(4)
    ts = Tensor(rand((3, 4), 5))
    prompt = Tensor(rand((1, 4), 6))
    v = prompt.data @ ca.wv.data
    expected = ts.data + np.broadcast_to(v, (3, 4))
    np.testing.assert_allclose(ca.align(ts, prompt).data, expected, atol=1e-14)


def test_alignment_output_shape_independent_of_prompt_length():
    ca = CrossAttention(dim=8, heads=2, seed=7)
    ts = Tensor(rand((4, 8), 8))
    for p in (1, 3, 9):
        assert ca.align(ts, Tensor(rand((p, 8), p))).shape == (4, 8)


def test_alignment_batched_matches_per_sample():
    ca = CrossAttention(dim=8, heads=2, seed=9)
    ca.wo.data[...] = rand((8, 8), 10) * 0.3
    ts = rand((2, 5, 8), 11)
    prompt = Tensor(rand((3, 8), 12))
    batched = ca.align(Tensor(ts), prompt).data
    for b in range(2):
        single = ca.align(Tensor(ts[b]), prompt).data
        np.testing.assert_allclose(batched[b], single, atol=1e-12)


def test_alignment_gradients_reach_all_params():
    ca = CrossAttention(dim=4, heads=2, seed=13)
    ca.wo.data[...] = rand((4, 4), 14) * 0.2  # move off the zero init
    pe = PromptEmbedding(dim=4, buckets=8, seed=15, text="alpha beta gamma")
    ts = Tensor(rand((2, 4), 16))
    params = list(ca.params().values()) + [pe.table]

    def loss():
        prompt = pe.encode()
        return T.mean(T.square(ca.align(ts, prompt)))

    assert_grads_match(loss, params, rtol=1e-4, atol=1e-7)
    # every weight got a nonzero gradient somewhere
    for p in params:
        assert np.any(p.grad != 0.0)
