"""Adapter algebra, routing laws, and load-balance accounting."""

import numpy as np
import pytest

from helpers import assert_grads_match, autograd_gradients, tape_ops
from tokencast import dlora
from tokencast import rng
from tokencast import tensor as T
from tokencast.dlora import (
    LoraAdapter,
    LoraRouter,
    RoutingStats,
    apply,
    batch_stats,
    load_balance_loss,
    top_n_gates_rows,
)
from tokencast.tensor import Tensor


def rand(shape, seed):
    return np.random.Generator(np.random.PCG64(seed)).uniform(-1, 1, size=shape)


def make_adapter(d_in=6, d_out=6, r=2, seed=0):
    return LoraAdapter(d_in, d_out, r, rng.generator(seed, "test_adapter"))


# -------------------------------------------------------------------- apply


def test_apply_closed_gate_equals_base():
    ad = make_adapter()
    ad.up.data[...] = rand((2, 6), 1)  # nonzero so the gate is doing the work
    x = Tensor(rand((4, 6), 2))
    w = Tensor(rand((6, 6), 3))
    b = Tensor(rand((6,), 4))
    gated = apply(x, w, b, ad, 0.0)
    base = apply(x, w, b, None, None)
    np.testing.assert_array_equal(gated.data, base.data)


def test_apply_zero_up_factor_equals_base():
    ad = make_adapter()  # up starts at zero
    x = Tensor(rand((4, 6), 5))
    w = Tensor(rand((6, 6), 6))
    open_gate = apply(x, w, None, ad, 1.0)
    base = apply(x, w, None, None, None)
    np.testing.assert_array_equal(open_gate.data, base.data)


def test_apply_rank_one_hand_example():
    # x=[2,3], W=I, A=(1,0)^T, B=(0,1): correction is [0, x0], so [2, 5]
    ad = make_adapter(d_in=2, d_out=2, r=1)
    ad.down.data[...] = [[1.0], [0.0]]
    ad.up.data[...] = [[0.0, 1.0]]
    x = Tensor([[2.0, 3.0]])
    w = Tensor(np.eye(2))
    out = apply(x, w, None, ad, 1.0)
    np.testing.assert_array_equal(out.data, [[2.0, 5.0]])


def test_apply_per_sample_mask():
    ad = make_adapter()
    ad.up.data[...] = rand((2, 6), 7)
    x = Tensor(rand((3, 5, 6), 8))
    w = Tensor(rand((6, 6), 9))
    out = apply(x, w, None, ad, np.array([1.0, 0.0, 1.0]))
    base = (x.data @ w.data)
    delta = (x.data @ ad.down.data) @ ad.up.data
    np.testing.assert_allclose(out.data[0], base[0] + delta[0], atol=1e-14)
    np.testing.assert_array_equal(out.data[1], base[1])
    np.testing.assert_allclose(out.data[2], base[2] + delta[2], atol=1e-14)


def test_apply_gate_at_rank_r_matches_numpy_oracle():
    ad = make_adapter()
    ad.up.data[...] = rand((2, 6), 10)
    x, w = rand((3, 5, 6), 11), rand((6, 6), 12)
    g = np.array([1.0, 0.0, 1.0])
    out = apply(Tensor(x), Tensor(w), None, ad, g)
    oracle = x @ w + ((x @ ad.down.data) * g[:, None, None]) @ ad.up.data
    np.testing.assert_allclose(out.data, oracle, rtol=0, atol=1e-14)


def test_apply_gate_at_rank_r_gradients():
    ad = make_adapter()
    ad.up.data[...] = rand((2, 6), 13)
    x, w = T.parameter(rand((3, 5, 6), 14)), T.parameter(rand((6, 6), 15))
    g = np.array([1.0, 0.0, 1.0])
    assert_grads_match(lambda: T.total(T.square(apply(x, w, None, ad, g))),
                       [x, w, ad.down, ad.up])


@pytest.mark.parametrize("gate, ops", [
    (1.0, ["matmul", "lora_linear"]),
    (np.ones(3), ["matmul", "lora_linear"]),
    (np.array([1.0, 0.0, 1.0]), ["matmul", "lora_linear"]),
    (np.zeros(3), ["matmul"]),
    (0.0, ["matmul"]),
], ids=["open_scalar", "open_rows", "mixed_rows", "closed_rows", "closed_scalar"])
def test_apply_gate_records(gate, ops):
    # an open gate adds one delta op on the base product; an all-closed one none
    ad = make_adapter()
    with T.Tape() as tape:
        apply(Tensor(rand((3, 5, 6), 16)), T.parameter(rand((6, 6), 17)), None, ad, gate)
    assert tape_ops(tape) == ops


def _open_gate_run(linear):
    ad = make_adapter()
    ad.up.data[...] = rand((2, 6), 18)
    x, w = T.parameter(rand((3, 5, 6), 19)), T.parameter(rand((6, 6), 20))
    with T.Tape() as tape:
        out = linear(x, w, ad)
        tape.backward(T.total(T.square(out)))
    return [out.data, x.grad, w.grad, ad.down.grad, ad.up.grad]


@pytest.mark.parametrize("gate", [1.0, np.ones(3)], ids=["open_scalar", "open_rows"])
def test_apply_open_gate_skips_gate_product(gate, monkeypatch):
    # an all-open gate passes no mask, and gives what a gate of ones gives
    fused, masks = T.lora_linear, []
    monkeypatch.setattr(T, "lora_linear", lambda *args: masks.append(args[-1]) or fused(*args))
    open_run = _open_gate_run(lambda x, w, ad: apply(x, w, None, ad, gate))
    assert masks == [None]
    ones_run = _open_gate_run(lambda x, w, ad: fused(x, w, ad.down, ad.up, np.ones((3, 1, 1))))
    for a, b in zip(open_run, ones_run):
        np.testing.assert_array_equal(a, b)


def test_adapter_never_materializes_product():
    ad = make_adapter(d_in=64, d_out=64, r=4, seed=1)
    assert ad.down.shape == (64, 4) and ad.up.shape == (4, 64)
    assert ad.down.size + ad.up.size == 64 * 4 + 4 * 64


# -------------------------------------------------------------------- gates


def test_top_n_hand_example():
    probs = np.array([[0.40, 0.30, 0.15, 0.05, 0.04, 0.03, 0.03]])
    np.testing.assert_array_equal(top_n_gates_rows(probs, 2), [[1, 1, 0, 0, 0, 0, 0]])


def test_top_n_full_open():
    uniform = np.full((1, 7), 1 / 7)
    np.testing.assert_array_equal(top_n_gates_rows(uniform, 7), np.ones((1, 7)))


def test_top_n_uniform_tie_breaks_low_indices():
    probs = np.full((3, 7), 1.0 / 7.0)
    for n in range(1, 8):
        gates = top_n_gates_rows(probs, n)
        np.testing.assert_array_equal(gates, [[1.0] * n + [0.0] * (7 - n)] * 3)


def test_top_n_exactly_n_and_dominance_sweep():
    gen = np.random.Generator(np.random.PCG64(99))
    logits = gen.normal(0, 3, size=(1000, 7))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    for n in range(1, 8):
        gates = top_n_gates_rows(probs, n)
        np.testing.assert_array_equal(gates.sum(axis=1), np.full(1000, n))
        if n < 7:
            kept = np.where(gates == 1.0, probs, np.inf).min(axis=1)
            dropped = np.where(gates == 0.0, probs, -np.inf).max(axis=1)
            assert np.all(kept >= dropped)


def top_n_put_along_axis(probs, n):
    """Gates written by np.put_along_axis: the reference for the indexed write."""
    order = np.argsort(-probs, axis=1, kind="stable")
    gates = np.zeros_like(probs)
    np.put_along_axis(gates, order[:, :n], 1.0, axis=1)
    return gates


@pytest.mark.parametrize("b", [1, 16, 64])
def test_top_n_matches_put_along_axis_reference(b):
    gen = np.random.Generator(np.random.PCG64(b))
    probs = gen.dirichlet(np.ones(7), size=b)
    probs[1::2] = np.round(probs[1::2] * 4) / 4  # every other row full of ties
    probs[-1] = 1.0 / 7.0  # and one uniform row
    for n in range(1, 8):
        np.testing.assert_array_equal(top_n_gates_rows(probs, n), top_n_put_along_axis(probs, n))


def test_top_n_rows_matches_single():
    # rows never interact: gating a batch equals gating each row alone
    gen = np.random.Generator(np.random.PCG64(7))
    probs = gen.dirichlet(np.ones(7), size=32)
    rows = top_n_gates_rows(probs, 3)
    for i in range(32):
        np.testing.assert_array_equal(rows[i], top_n_gates_rows(probs[i : i + 1], 3)[0])


def test_gates_invariant_to_logit_shift():
    # softmax is shift-invariant, so adding a constant never reroutes
    router = LoraRouter(dim=8, layer=0, seed=21)
    pooled = rand((4, 8), 22)
    gates = top_n_gates_rows(router.probs(Tensor(pooled[:, None, :])).data, 3)
    probs_shifted = T.softmax(
        Tensor((np.tanh(pooled) @ router.weight.data) + 13.7), axis=-1
    ).data
    np.testing.assert_array_equal(gates, top_n_gates_rows(probs_shifted, 3))


# ------------------------------------------------------------------- router


def test_route_zero_weight_uniform():
    router = LoraRouter(dim=8, layer=0, seed=23)
    router.weight.data[...] = 0.0
    probs = router.probs(Tensor(rand((3, 8), 24)[:, None, :])).data
    np.testing.assert_allclose(probs, np.full((3, 7), 1.0 / 7.0), atol=1e-15)
    np.testing.assert_array_equal(top_n_gates_rows(probs, 2), [[1, 1, 0, 0, 0, 0, 0]] * 3)


def test_route_is_input_dependent():
    # routing keys on the last token: columns of W pick distinct winners
    router = LoraRouter(dim=2, layer=0, seed=25)
    router.weight.data[...] = 0.0
    router.weight.data[0, 0] = 5.0
    router.weight.data[1, 3] = 5.0
    probs = router.probs(Tensor(np.array([[[3.0, 0.0]], [[0.0, 3.0]]]))).data
    gates = top_n_gates_rows(probs, 1)
    assert gates[0, 0] == 1.0 and gates[1, 3] == 1.0
    assert not np.array_equal(gates[0], gates[1])


# -------------------------------------------------------------------- stats


def probs_of(*rows):
    """Router outputs as the forward returns them: one Tensor per layer."""
    return [Tensor(np.asarray(r, dtype=np.float64)) for r in rows]


def test_stats_uniform_batch():
    f, phat = batch_stats(probs_of(np.full((14, 7), 1.0 / 7.0)))
    # argmax of uniform rows lands on index 0 every time
    np.testing.assert_array_equal(f[0], [1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(phat[0], np.full(7, 1 / 7), atol=1e-15)
    assert abs(f[0].sum() - 1.0) < 1e-10
    assert abs(phat[0].sum() - 1.0) < 1e-10


def test_stats_half_and_half():
    a = np.zeros((4, 7))
    a[:2, 1] = 1.0
    a[2:, 5] = 1.0
    f, _ = batch_stats(probs_of(a))
    assert f[0, 1] == 0.5 and f[0, 5] == 0.5


def test_stats_of_no_layers_are_empty():
    f, phat = batch_stats([])
    assert f.shape == phat.shape == (0, 7)


def test_lb_loss_uniform_equals_layer_count():
    L = 4
    # uniform f requires winners spread evenly; construct probs that argmax
    # onto each module equally often while staying near-uniform
    spread = []
    for _ in range(L):
        r = np.full((7, 7), 1.0 / 7.0)
        r[np.arange(7), np.arange(7)] += 1e-9
        r /= r.sum(axis=1, keepdims=True)
        spread.append(r)
    probs = probs_of(*spread)
    f, _ = batch_stats(probs)
    np.testing.assert_array_equal(f, np.full((L, 7), 1 / 7))
    val = load_balance_loss(probs, f).item()
    assert abs(val - L) < 1e-6  # phat is uniform to ~1e-9, f exactly uniform
    # exact closed form with hand-built distributions
    exact = probs_of(*[np.full((7, 7), 1 / 7)] * L)
    assert abs(load_balance_loss(exact, np.full((L, 7), 1 / 7)).item() - L) < 1e-10


def test_lb_loss_collapsed_equals_seven_layer_count():
    L = 3
    onehot = np.zeros((10, 7))
    onehot[:, 4] = 1.0
    probs = probs_of(*[onehot] * L)
    f, _ = batch_stats(probs)
    assert abs(load_balance_loss(probs, f).item() - 7 * L) < 1e-10


def test_lb_loss_two_uniform_layers():
    probs = probs_of(*[np.full((5, 7), 1 / 7)] * 2)
    assert abs(load_balance_loss(probs, np.full((2, 7), 1 / 7)).item() - 2.0) < 1e-10


def test_lb_loss_collapse_dominates_uniform():
    uni = probs_of(np.full((5, 7), 1 / 7))
    col = np.zeros((5, 7))
    col[:, 0] = 1.0
    collapsed = probs_of(col)
    assert (load_balance_loss(collapsed, batch_stats(collapsed)[0]).item()
            > load_balance_loss(uni, np.full((1, 7), 1 / 7)).item())


def test_lb_loss_gradient_reaches_router_weight():
    router = LoraRouter(dim=6, layer=0, seed=30)
    h = Tensor(rand((5, 6), 31)[:, None, :])

    def loss():
        probs = [router.probs(h)]
        return load_balance_loss(probs, batch_stats(probs)[0])

    grads = autograd_gradients(loss, [router.weight])
    assert np.any(grads[0] != 0.0)
    # f is a constant, so the grad is N * f . d(mean probs): check it numerically
    f = batch_stats([router.probs(h)])[0]
    assert_grads_match(lambda: load_balance_loss([router.probs(h)], f),
                       [router.weight], rtol=1e-6, atol=1e-9)


def test_routing_stats_json_shape():
    f, phat = batch_stats(probs_of(*[np.full((4, 7), 1.0 / 7.0)] * 2))
    stats = RoutingStats(f=f, phat=phat, samples=4, n_active=2)
    d = stats.to_json_dict()
    assert len(d["layers"]) == 2
    freq = d["layers"][0]["frequency"]
    assert set(freq) == set(dlora.MODULE_NAMES)
    assert abs(sum(freq.values()) - 1.0) < 1e-10


def test_entropy_bits_bounds():
    uni = RoutingStats(f=np.full((1, 7), 1 / 7), phat=np.full((1, 7), 1 / 7),
                       samples=5, n_active=1)
    np.testing.assert_allclose(uni.entropy_bits(), [np.log2(7)], atol=1e-12)
    col = np.zeros((1, 7))
    col[0, 2] = 1.0
    sharp = RoutingStats(f=col, phat=col, samples=5, n_active=1)
    np.testing.assert_allclose(sharp.entropy_bits(), [0.0], atol=1e-12)
