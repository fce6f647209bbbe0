"""Autodiff engine checks: frozen forward values plus finite-difference oracles."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from helpers import assert_grads_match, numpy_bytes, rand, tape_ops
from tokencast import dlora
from tokencast import tensor as T
from tokencast.backbone import Backbone
from tokencast.config import RunConfig
from tokencast.tensor import Tape, Tensor, ShapeError


# ------------------------------------------------------------- forward values


def test_matmul_identity():
    a = Tensor(rand((3, 3), 1))
    eye = Tensor(np.eye(3))
    np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    np.testing.assert_allclose(T.matmul(a, b).data, [[11.0]], atol=0.0)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3,), (3, 2)),  # 1-D left operand
    ((2, 3), (3,)),  # 1-D right operand
    ((2, 4, 3), (3, 4, 5)),  # a stacked right operand
    ((2, 3, 4), (2, 4, 5)),  # a stacked right operand whose leading dims fit
])
def test_matmul_rejects_bad_ranks_and_leading_dims(a_shape, b_shape):
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


def test_softmax_uniform_on_zeros():
    out = O.softmax(Tensor(np.zeros(3)), axis=-1)
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_no_overflow_on_large_inputs():
    out = O.softmax(Tensor([1000.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_hand_value():
    out = O.softmax(Tensor([math.log(2.0), math.log(1.0)]), axis=-1)
    np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_rows_sum_to_one():
    x = Tensor(rand((8, 5), 2, -30.0, 30.0))
    out = O.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(8), atol=1e-12)
    assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)


def test_rmsnorm_hand_value():
    out = O.rmsnorm(Tensor([[3.0, 4.0]]), Tensor([1.0, 1.0]), eps=0.0)
    expected = np.array([[3.0, 4.0]]) / math.sqrt(12.5)
    np.testing.assert_allclose(out.data, expected, atol=1e-15)


def test_silu_at_zero():
    assert T.silu(Tensor([0.0])).data[0] == 0.0


def test_slice_rejects_integer_indexing():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((3, 3)))[1]


# ----------------------------------------------------------------- gradients


def test_grad_of_sum_is_ones():
    x = T.parameter(rand((3, 4), 3))
    with Tape() as tape:
        tape.backward(T.total(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_grad_of_sum_of_squares():
    x = T.parameter([1.0, 2.0])
    with Tape() as tape:
        tape.backward(T.total(T.square(x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_duplicate_use_accumulates():
    # y = x*x + x, dy/dx = 2x + 1
    x = T.parameter([1.5, -0.5, 2.0])
    with Tape() as tape:
        tape.backward(T.total(T.add(T.mul(x, x), x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0, atol=1e-12)


@pytest.mark.parametrize("narrow_first", [True, False], ids=["narrow_first", "wide_first"])
def test_a_float32_grad_and_a_float64_one_add_in_float64(narrow_first):
    # a float32 state's grad from the block above is float32 and the one
    # from its router float64: they add in float64 whichever comes first,
    # and the sum is rounded once, into the float32 grad or where the block
    # below narrows it
    state = T.parameter(rand((3, 4), 5).astype(np.float32), np.float32)
    third = np.float32(1.0 / 3.0)
    pulls = {"narrow": lambda g: (g.astype(np.float32) * third,), "wide": lambda g: (g / 7.0,)}
    order = ["wide", "narrow"] if narrow_first else ["narrow", "wide"]  # backward runs the last first
    with Tape() as tape:
        reads = {name: T.emit(state.data, (state,), pulls[name]) for name in order}
        tape.backward(T.total(T.mul(reads["narrow"], reads["wide"])))
    g = state.data.astype(np.float64)  # each read's output grad is the other read
    want = (g.astype(np.float32) * third).astype(np.float64) + g / 7.0
    assert state.grad.dtype == (np.float32 if narrow_first else np.float64)
    np.testing.assert_array_equal(state.grad.astype(np.float32), want.astype(np.float32))
    assert not np.array_equal(want.astype(np.float32),
                              (g.astype(np.float32) * third) + (g / 7.0).astype(np.float32))


def test_backward_rejects_nonscalar():
    x = T.parameter(rand((2, 2), 4))
    with Tape() as tape:
        y = T.square(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_backward_frees_the_forward_activations():
    # each record goes once its pull has run, so by the time backward returns
    # only the stack's output, the loss and the leaf grad are left of the
    # forward, although the tape itself is still alive
    stack = Backbone(RunConfig(layers=2, dim=8, heads=2, ffn_dim=16, seed=3))
    h = T.parameter(rand((4, 6, 8), 6))
    tracemalloc.start()
    try:
        before = numpy_bytes()
        with Tape() as tape:
            out = stack.forward(h)
            loss = T.total(T.square(out))
            taped = numpy_bytes() - before
            tape.backward(loss)
            left = numpy_bytes() - before
    finally:
        tracemalloc.stop()
    floor = out.data.nbytes + h.grad.nbytes
    assert taped > 5 * floor  # the blocks kept their activations for the pulls
    assert floor <= left <= floor + 64  # and gave them back: the loss and its grad remain
    assert tape_ops(tape) == []


def test_no_recording_outside_tape():
    x = T.parameter(rand((2, 2), 5))
    y = T.square(x)
    assert y.requires_grad
    with Tape() as tape:
        pass
    assert tape_ops(tape) == []


def test_tape_records_only_its_own_thread():
    # another thread sees no active tape, so its ops are not recorded here
    x = T.parameter(rand((2, 2), 6))
    seen = []

    def other():
        seen.append(T.square(x).requires_grad)

    with Tape() as tape:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
        T.square(x)
    assert not worker.is_alive()
    assert seen == [True] and tape_ops(tape) == ["square"]


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: T.total(T.add(a, b))),
        ("sub", lambda a, b: T.total(T.square(T.sub(a, b)))),
        ("mul", lambda a, b: T.total(T.mul(a, b))),
        ("div", lambda a, b: T.total(T.div(a, b))),
        ("matmul", lambda a, b: T.total(T.matmul(a, O.transpose(b)))),
    ],
)
def test_binary_op_gradients(name, build):
    a = T.parameter(rand((3, 4), 10))
    b = T.parameter(rand((3, 4), 11, 0.5, 1.5))
    assert_grads_match(lambda: build(a, b), [a, b])


@pytest.mark.parametrize(
    "name,fn",
    [
        ("scale", lambda x: T.scale(x, -2.5)),
        ("silu", T.silu),
        ("tanh", O.tanh),
        ("square", T.square),
        ("mean", lambda x: T.mean(x, axis=None)),
        ("mean_axis", lambda x: T.mean(x, axis=0)),
        ("transpose", O.transpose),
        ("reshape", lambda x: O.reshape(x, (4, 3))),
        ("softmax", lambda x: O.softmax(x, axis=-1)),
        ("slice", lambda x: x[1:3, 0:2]),
    ],
)
def test_unary_op_gradients(name, fn):
    x = T.parameter(rand((3, 4), 12))
    assert_grads_match(lambda: T.total(T.square(fn(x))), [x])


def test_abs_gradient_away_from_zero():
    x = T.parameter(rand((3, 4), 13, 0.2, 1.0) * np.sign(rand((3, 4), 14)))
    assert_grads_match(lambda: T.total(T.absolute(x)), [x])


def test_clamp_min_gradient_away_from_boundary():
    x = T.parameter(rand((3, 4), 15, -1.0, 1.0))
    x.data[np.abs(x.data - 0.1) < 0.05] += 0.2
    assert_grads_match(lambda: T.total(T.square(T.clamp_min(x, 0.1))), [x])


def test_rmsnorm_gradient():
    x = T.parameter(rand((3, 4), 16))
    w = T.parameter(rand((4,), 17, 0.5, 1.5))
    assert_grads_match(lambda: T.total(T.square(O.rmsnorm(x, w, eps=1e-6))), [x, w])


def test_rmsnorm_gradient_with_frozen_gain():
    x = T.parameter(rand((2, 3, 4), 50))
    w = Tensor(rand((4,), 51, 0.5, 1.5))
    assert_grads_match(lambda: T.total(T.square(O.rmsnorm(x, w, eps=1e-6))), [x])
    assert w.grad is None


def test_concat_gradient():
    a = T.parameter(rand((2, 3), 18))
    b = T.parameter(rand((2, 2), 19))
    assert_grads_match(lambda: T.total(T.square(T.concat([a, b], axis=1))), [a, b])


def test_take_rows_gradient_accumulates_repeats():
    table = T.parameter(rand((5, 3), 20))
    ids = [0, 2, 2, 4]
    assert_grads_match(lambda: T.total(T.square(T.take_rows(table, ids))), [table])


def test_matmul_3d_by_2d_gradient():
    a = T.parameter(rand((2, 3, 4), 21))
    b = T.parameter(rand((4, 5), 22))
    assert_grads_match(lambda: T.total(T.square(T.matmul(a, b))), [a, b])


def test_matmul_3d_by_3d_gradient():
    a = T.parameter(rand((2, 3, 4), 23))
    b = T.parameter(rand((2, 4, 5), 24))
    assert_grads_match(lambda: T.total(T.square(O.matmul(a, b))), [a, b])


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3, 4, 2), (2, 3, 2, 5)),  # (B, H, N, dh) @ (B, H, dh, M)
    ((3, 4, 2), (3, 2, 5)),  # (H, R, dh) @ (H, dh, P)
    ((4, 3), (2, 3, 5)),  # one left matrix against a stack
    ((2, 1, 4, 3), (3, 3, 5)),  # leading dims broadcast both ways
])
def test_matmul_broadcast_gradient(a_shape, b_shape):
    a = T.parameter(rand(a_shape, 36))
    b = T.parameter(rand(b_shape, 37))
    assert_grads_match(lambda: T.total(T.square(O.matmul(a, b))), [a, b])


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4), (1, 3, 4), (3, 4)])  # (B, N, k), (B, H, N, k), one matrix
@pytest.mark.parametrize("trainable", ["both", "frozen_weight", "constant_input"])
def test_matmul_shared_weight_gradient(a_shape, trainable):
    a = Tensor(rand(a_shape, 41), requires_grad=trainable != "constant_input")
    w = Tensor(rand((4, 5), 42), requires_grad=trainable != "frozen_weight")
    learn = [t for t in (a, w) if t.requires_grad]
    assert_grads_match(lambda: T.total(T.square(T.matmul(a, w))), learn)
    assert all(t.grad is None for t in (a, w) if not t.requires_grad)


def test_matmul_pull_skips_frozen_weight():
    x = T.parameter(rand((2, 3, 4), 43))
    w = Tensor(rand((4, 5), 44))
    with Tape() as tape:
        y = T.matmul(x, w)
        ((out, inputs, pull),) = tape._records
        assert out is y and inputs == (x, w)
        gx, gw = pull(np.ones(y.shape))
        assert gw is None
        np.testing.assert_allclose(gx, np.ones((2, 3, 5)) @ w.data.T, atol=1e-15)
        tape.backward(T.total(y))
    assert w.grad is None
    np.testing.assert_allclose(x.grad, gx, atol=1e-15)


@pytest.mark.parametrize("first_use", ["add", "square"])
def test_add_grads_do_not_share_memory(first_use):
    # add hands one array to both inputs; a later contribution to a must not
    # leak into b, whichever use of a the tape pulls first
    a = T.parameter(rand((3, 4), 45))
    b = T.parameter(rand((3, 4), 46))
    c = Tensor(rand((3, 4), 47))
    with Tape() as tape:
        if first_use == "add":
            y = T.add(a, b)
            u = T.square(a)
        else:
            u = T.square(a)
            y = T.add(a, b)
        tape.backward(T.add(T.total(T.mul(y, c)), T.total(u)))
    np.testing.assert_allclose(a.grad, c.data + 2.0 * a.data, atol=1e-15)
    np.testing.assert_allclose(b.grad, c.data, atol=1e-15)
    assert not np.shares_memory(a.grad, b.grad)


def test_backward_keeps_grads_on_leaves_only():
    x = T.parameter(rand((3, 4), 48))
    w = T.parameter(rand((4, 2), 49))
    with Tape() as tape:
        h = T.matmul(x, w)
        s = T.silu(h)
        loss = T.add(T.mean(T.square(s)), T.total(w))
        tape.backward(loss)
    assert all(t.grad is None for t in (h, s, loss))
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    # sum's pull hands over a read-only broadcast; the stored grad is writable
    assert x.grad.flags.writeable and w.grad.flags.writeable


@pytest.mark.parametrize("kv_shape, causal", [
    ((5, 4), False),  # (M, d) keys shared by the batch, as in alignment
    ((2, 3, 4), True),  # per-sample keys under a causal mask, as in a block
])
def test_attention_matches_per_head_loop_and_gradients(kv_shape, causal):
    q = T.parameter(rand((2, 3, 4), 38))
    k = T.parameter(rand(kv_shape, 39))
    v = T.parameter(rand(kv_shape, 40))
    mask = Tensor(np.triu(np.full((3, 3), -1e30), k=1)) if causal else None
    out = T.attention(q, k, v, 2, mask)
    ref = O.np_attention(q.data, k.data, v.data, 2, None if mask is None else mask.data)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)
    assert_grads_match(lambda: T.total(T.square(T.attention(q, k, v, 2, mask))), [q, k, v])


def unfused_attention(q, k, v, heads, mask=None):
    """Attention as reshape, transpose, matmul, scale, add and softmax records: the oracle."""

    def permute_last3(x, order):
        lead = x.ndim - 3
        return O.transpose(x, tuple(range(lead)) + tuple(lead + i for i in order))

    shape, d = q.shape, q.shape[-1]
    if k.ndim == 2:
        q = O.reshape(q, (-1, d))
    q, k, v = (O.reshape(t, t.shape[:-1] + (heads, d // heads)) for t in (q, k, v))
    scores = O.matmul(permute_last3(q, (1, 0, 2)), permute_last3(k, (1, 2, 0)))
    scores = T.scale(scores, 1.0 / np.sqrt(d // heads))
    if mask is not None:
        scores = T.add(scores, mask)
    ctx = O.matmul(O.softmax(scores, axis=-1), permute_last3(v, (1, 0, 2)))
    return O.reshape(permute_last3(ctx, (1, 0, 2)), shape)


# q shape, k and v shape, causal mask; two heads of width 3, so the scale
# 1/sqrt(3) is not a power of two and rounds differently if moved
ATTENTION_CASES = {
    "per_sample": ((2, 3, 6), (2, 3, 6), False),
    "per_sample_causal": ((2, 3, 6), (2, 3, 6), True),
    "shared_keys": ((2, 3, 6), (5, 6), False),  # the alignment case
}


@pytest.mark.parametrize("case", ATTENTION_CASES)
@pytest.mark.parametrize("trainable", list(itertools.product([False, True], repeat=3)),
                         ids=lambda t: "".join(n if r else "-" for n, r in zip("qkv", t)))
def test_attention_bit_identical_to_unfused_records(case, trainable):
    q_shape, kv_shape, causal = ATTENTION_CASES[case]
    mask = Tensor(np.triu(np.full((3, 3), -1e30), k=1)) if causal else None

    def run(attend):
        q, k, v = (Tensor(rand(s, 80 + i), requires_grad=r)
                   for i, (s, r) in enumerate(zip((q_shape, kv_shape, kv_shape), trainable)))
        with Tape() as tape:
            y = attend(q, k, v, 2, mask)
            records = len(tape._records)
            if any(trainable):
                tape.backward(T.total(T.square(y)))
        return records, [y.data, q.grad, k.grad, v.grad]

    records, fused = run(T.attention)
    _, oracle = run(unfused_attention)
    assert records == (1 if any(trainable) else 0)
    for a, b, learn in zip(fused, oracle, (True,) + trainable):
        assert (a is None) == (b is None) == (not learn)
        if learn:
            np.testing.assert_array_equal(a, b)


def test_broadcast_add_bias_gradient():
    x = T.parameter(rand((3, 4), 25))
    bias = T.parameter(rand((4,), 26))
    assert_grads_match(lambda: T.total(T.square(T.add(x, bias))), [x, bias])


LINEAR_CASES = {"bias": ((2, 3, 5), (4,)), "addend": ((2, 3, 5), (2, 3, 4)),
                "rows": ((6, 5), (4,))}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_gradient(case):
    a_shape, b_shape = LINEAR_CASES[case]
    a = T.parameter(rand(a_shape, 40))
    w = T.parameter(rand((5, 4), 41))
    b = T.parameter(rand(b_shape, 42))
    assert_grads_match(lambda: T.total(T.square(T.linear(a, w, b))), [a, w, b])


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
@pytest.mark.parametrize("trainable", list(itertools.product([False, True], repeat=3))[1:],
                         ids=lambda t: "".join("T" if x else "F" for x in t))
def test_linear_bit_identical_to_matmul_and_add_records(case, trainable):
    # linear replaces the embedder's and the head's matmul + bias add and
    # the alignment's tokens + product: the same values and grads, and a
    # frozen or constant input gets no grad
    a_shape, b_shape = LINEAR_CASES[case]

    def run(fused):
        a, w, b = (Tensor(rand(shape, seed), requires_grad=learn) for shape, seed, learn
                   in zip((a_shape, (5, 4), b_shape), (43, 44, 45), trainable))
        with T.Tape() as tape:
            if fused:
                out = T.linear(a, w, b)
                assert len(tape._records) == 1
            elif case == "addend":
                out = T.add(b, T.matmul(a, w))
            else:
                out = T.add(T.matmul(a, w), b)
            tape.backward(T.total(T.square(out)))
        return [out.data] + [t.grad for t in (a, w, b)]

    for got, want, learn in zip(run(True), run(False), (True,) + trainable):
        assert (got is None) == (want is None) == (not learn)
        if learn:
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("b_shape", [(3,), (5, 2, 4), (2, 1, 4, 4)])
def test_linear_rejects_an_addend_that_does_not_fit(b_shape):
    # the addend goes into the product's buffer, so it may not widen it
    with pytest.raises(ShapeError, match="linear"):
        T.linear(Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(b_shape)))
    with pytest.raises(ShapeError, match="linear"):
        T.linear(Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))


def test_broadcast_mask_mul_gradient():
    # per-sample gate mask pattern: (B, N, d) * (B, 1, 1)
    x = T.parameter(rand((2, 3, 4), 27))
    mask = Tensor(np.array([1.0, 0.0]).reshape(2, 1, 1))
    assert_grads_match(lambda: T.total(T.square(T.mul(x, mask))), [x])


# tensor.matmul takes a 2-D weight; a stacked right operand goes to the oracle
BINARY_OPS = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div,
              "matmul": lambda a, b: (T.matmul if b.ndim == 2 else O.matmul)(a, b)}


@st.composite
def broadcast_cases(draw):
    op = draw(st.sampled_from(sorted(BINARY_OPS)), label="op")
    lead = draw(st.lists(st.integers(1, 3), max_size=3), label="leading shape")
    n, k, p = (draw(st.integers(1, 3), label=d) for d in "nkp")

    def operand(full, core):
        # a suffix of the full shape, some of its axes squeezed to 1
        keep = draw(st.integers(0 if core else 1, len(full)))
        return tuple(draw(st.sampled_from([1, m])) for m in full[len(full) - keep:]) + core

    if op == "matmul":
        shapes = operand(lead, (n, k)), operand(lead, (k, p))
    else:
        shapes = operand(lead + [n], ()), operand(lead + [n], ())
    frozen = draw(st.sampled_from(["none", "a", "b"]), label="frozen operand")
    return op, shapes, frozen, draw(st.integers(0, 2**16), label="seed")


@settings(max_examples=450, deadline=None, derandomize=True, database=None)
@given(case=broadcast_cases())
def test_binary_op_broadcast_gradient_property(case):
    # a frozen operand is a constant to the tape: no grad, and the other
    # operand's grad still sums back down to its own broadcast shape
    op, (a_shape, b_shape), frozen, seed = case
    a = Tensor(rand(a_shape, seed), requires_grad=frozen != "a")
    b = Tensor(rand(b_shape, seed + 1, 0.5, 1.5), requires_grad=frozen != "b")
    learn = [t for t in (a, b) if t.requires_grad]
    assert_grads_match(lambda: T.total(T.square(BINARY_OPS[op](a, b))), learn)
    assert all(t.grad is None for t in (a, b) if not t.requires_grad)


def test_composed_mlp_gradient():
    w1 = T.parameter(rand((4, 6), 30, -0.5, 0.5))
    b1 = T.parameter(rand((6,), 31, -0.1, 0.1))
    w2 = T.parameter(rand((6, 2), 32, -0.5, 0.5))
    x = Tensor(rand((5, 4), 33))

    def loss():
        h = T.silu(T.add(T.matmul(x, w1), b1))
        return T.mean(T.square(T.matmul(h, w2)))

    assert_grads_match(loss, [w1, b1, w2], rtol=1e-4, atol=1e-7)


def test_gradients_are_deterministic():
    x = T.parameter(rand((4, 4), 34))
    w = T.parameter(rand((4, 4), 35))

    def run():
        x.zero_grad()
        w.zero_grad()
        with Tape() as tape:
            h = O.softmax(T.matmul(x, w), axis=-1)
            tape.backward(T.total(T.square(h)))
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# ------------------------------------------------------------- lora_linear


def unfused_lora(x, w, down, up, mask):
    """The delta as separate matmul, mul and add records: the oracle."""
    base = T.matmul(x, w)
    low = T.matmul(x, down)
    if mask is not None:
        low = T.mul(low, Tensor(mask))
    return T.add(base, T.matmul(low, up))


def sibling_run(linear, masks, trunk_trainable, seed=60):
    """One normed x through three adapted linears, as q, k and v see it.

    Returns the output and every grad in a fixed order, so two runs over the
    same data compare element for element.
    """
    x0 = T.parameter(rand((3, 5, 8), seed))
    gain = T.parameter(rand((8,), seed + 1))
    leaves = [x0, gain]
    with Tape() as tape:
        x = O.rmsnorm(x0, gain)
        outs = []
        for i, mask in enumerate(masks):
            w = Tensor(rand((8, 8), seed + 10 + i), requires_grad=trunk_trainable)
            down = T.parameter(rand((8, 2), seed + 20 + i))
            up = T.parameter(rand((2, 8), seed + 30 + i))
            leaves += [w, down, up]
            outs.append(linear(x, w, down, up, mask))
        y = T.attention(*outs, heads=2)
        tape.backward(T.total(T.square(y)))
    return [y.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("masks", [
    [None] * 3,
    [np.array(1.0)] * 3,
    [np.array([1.0, 0.0, 1.0]).reshape(3, 1, 1), np.array([0.0, 1.0, 1.0]).reshape(3, 1, 1),
     np.array([1.0, 1.0, 0.0]).reshape(3, 1, 1)],
], ids=["all_open", "scalar", "mixed_rows"])
@pytest.mark.parametrize("trunk_trainable", [False, True], ids=["frozen_trunk", "pretrain"])
def test_lora_linear_bit_identical_to_unfused_records(masks, trunk_trainable):
    fused = sibling_run(O.lora_linear, masks, trunk_trainable)
    oracle = sibling_run(unfused_lora, masks, trunk_trainable)
    assert (fused[3] is None) == (not trunk_trainable)
    for a, b in zip(fused, oracle):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("trainable", ["frozen_weight", "constant_input"])
def test_lora_linear_gradients(trainable):
    x = Tensor(rand((3, 4, 6), 70), requires_grad=trainable != "constant_input")
    w = Tensor(rand((6, 5), 71), requires_grad=trainable != "frozen_weight")
    down, up = T.parameter(rand((6, 2), 72)), T.parameter(rand((2, 5), 73))
    mask = np.array([1.0, 0.0, 1.0]).reshape(3, 1, 1)
    learn = [t for t in (x, w, down, up) if t.requires_grad]
    assert_grads_match(lambda: T.total(T.square(O.lora_linear(x, w, down, up, mask))), learn)
    assert all(t.grad is None for t in (x, w) if not t.requires_grad)


def test_lora_linear_rejects_factors_that_do_not_fit():
    x, w = Tensor(np.zeros((2, 6))), Tensor(np.zeros((6, 5)))
    with pytest.raises(ShapeError):
        O.lora_linear(x, w, Tensor(np.zeros((6, 2))), Tensor(np.zeros((2, 4))), None)
    with pytest.raises(ShapeError):
        O.lora_linear(x, w, Tensor(np.zeros((5, 2))), Tensor(np.zeros((2, 5))), None)


@st.composite
def lora_cases(draw):
    lead = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3), label="leading shape")
    rows = draw(st.integers(1, 4), label="rows")
    d_in, d_out = draw(st.integers(1, 6), label="d_in"), draw(st.integers(1, 6), label="d_out")
    r = draw(st.integers(1, 3), label="rank")
    mask = None
    if draw(st.booleans(), label="gated"):
        shape = tuple(draw(st.sampled_from([1, n])) for n in lead) + (1, 1)
        mask = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))), dtype=np.float64).reshape(shape)
    return tuple(lead) + (rows, d_in), d_out, r, mask, draw(st.integers(0, 2**16), label="seed")


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=lora_cases())
def test_lora_linear_matches_unfused_records_property(case):
    x_shape, d_out, r, mask, seed = case
    d_in = x_shape[-1]

    def run(linear):
        x = T.parameter(rand(x_shape, seed))
        w, down, up = (T.parameter(rand(s, seed + i + 1))
                       for i, s in enumerate([(d_in, d_out), (d_in, r), (r, d_out)]))
        with Tape() as tape:
            y = linear(x, w, down, up, mask)
            tape.backward(T.total(T.square(y)))
        return [y.data, x.grad, w.grad, down.grad, up.grad]

    for a, b in zip(run(O.lora_linear), run(unfused_lora)):
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------ router_probs


def unfused_router(h, weight):
    """Last-token pooling, tanh, reshape, matmul and softmax records: the oracle."""
    n = h.shape[1]
    pooled = O.reshape(h[:, n - 1 : n, :], (h.shape[0], h.shape[2]))
    x = O.tanh(pooled)
    return O.softmax(T.matmul(O.reshape(x, (-1, weight.shape[0])), weight), axis=-1)


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("trainable", list(itertools.product([False, True], repeat=2)),
                         ids=lambda t: "".join(n if r else "-" for n, r in zip("hw", t)))
def test_router_probs_bit_identical_to_unfused_records(batch, trainable):
    f = Tensor(rand((7,), 92))  # a balance-loss weighting of the mean probs

    def run(route):
        h = Tensor(rand((batch, 4, 6), 90), requires_grad=trainable[0])
        w = Tensor(rand((6, 7), 91), requires_grad=trainable[1])
        with Tape() as tape:
            p = route(h, w)
            records = len(tape._records)
            if any(trainable):
                tape.backward(T.total(T.mul(f, T.mean(p, axis=0))))
        return records, [p.data, h.grad, w.grad]

    records, fused = run(dlora.router_probs)
    _, oracle = run(unfused_router)
    assert records == (1 if any(trainable) else 0)
    for a, b, learn in zip(fused, oracle, (True,) + trainable):
        assert (a is None) == (b is None) == (not learn)
        if learn:
            np.testing.assert_array_equal(a, b)


def test_router_pull_allocates_no_state_sized_array():
    # the pull forms the tanh rows again and hands back the grad of the last
    # token rows alone, which the tape adds into the state's grad in place
    b, n, d = 4, 256, 16
    h = Tensor(rand((b, n, d), 93), requires_grad=True)
    w = T.parameter(rand((d, 7), 94))
    with Tape() as tape:
        loss = T.total(T.square(dlora.router_probs(h, w)))
    h.grad = np.zeros(h.shape)  # the block that reads h pulls before its router
    tracemalloc.start()
    try:
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < h.data.nbytes // 4
    assert not h.grad[:, :-1].any() and h.grad[:, -1].all()


def test_router_probs_rejects_states_that_do_not_fit():
    w = Tensor(np.zeros((6, 7)))
    with pytest.raises(ShapeError):
        dlora.router_probs(Tensor(np.zeros((2, 6))), w)
    with pytest.raises(ShapeError):
        dlora.router_probs(Tensor(np.zeros((2, 3, 5))), w)
