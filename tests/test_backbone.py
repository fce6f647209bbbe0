"""Frozen trunk behavior, adapter equivalence, and pretraining."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import numpy_bytes, rand, tape_ops
from oracles import composed_block, np_attention
from tokencast import rng
from tokencast import tensor as T
from tokencast.backbone import Backbone, pretrain_then_freeze
from tokencast.config import RunConfig
from tokencast.data import MultivariateSeries, SplitSpec, chronological_split
from tokencast.dlora import MODULE_NAMES, LoraAdapter
from tokencast.model import Forecaster
from tokencast.tensor import ShapeError, Tensor


def small_cfg(**kw):
    base = dict(layers=2, dim=8, heads=2, ffn_dim=16, align_heads=2, rank=2)
    base.update(kw)
    return RunConfig(**base)


def make_adapters(block, r=2, seed=0):
    gen = rng.generator(seed, "test_adapters")
    out = {}
    for name in MODULE_NAMES:
        w = block.weights[name]
        out[name] = LoraAdapter(w.shape[0], w.shape[1], r, gen)
        out[name].up.data[...] = rand((r, w.shape[1]), seed + hash(name) % 97) * 0.1
    return out


# --------------------------------------------------------- independent oracle


def np_rmsnorm(x, w, eps=1e-6):
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    return x * inv * w


def np_silu(x):
    return x / (1.0 + np.exp(-x))


def np_block(h, block, adapters=None, gate=0.0):
    """Plain-numpy replica of one block used as an equivalence oracle."""

    def lin(z, name):
        out = z @ block.weights[name].data
        if adapters is not None and gate != 0.0:
            ad = adapters[name]
            out = out + gate * ((z @ ad.down.data) @ ad.up.data)
        return out

    x = np_rmsnorm(h, block.attn_norm.data)
    q, k, v = lin(x, "q_proj"), lin(x, "k_proj"), lin(x, "v_proj")
    h = h + lin(np_attention(q, k, v, block.cfg.heads), "o_proj")
    x2 = np_rmsnorm(h, block.ffn_norm.data)
    ffn = lin(np_silu(lin(x2, "gate_proj")) * lin(x2, "up_proj"), "down_proj")
    return h + ffn


# -------------------------------------------------------------------- tests


def test_closed_gates_match_plain_block_exactly():
    bb = Backbone(small_cfg(seed=1))
    block = bb.blocks[0]
    adapters = make_adapters(block)
    h = Tensor(rand((5, 8), 2))
    gates = {name: 0.0 for name in MODULE_NAMES}
    with_adapters = block.forward(h, adapters, gates)
    plain = block.forward(h)
    np.testing.assert_array_equal(with_adapters.data, plain.data)


def test_zero_up_factors_match_plain_block_exactly():
    bb = Backbone(small_cfg(seed=3))
    block = bb.blocks[0]
    gen = rng.generator(0, "zero_up")
    adapters = {
        name: LoraAdapter(block.weights[name].shape[0], block.weights[name].shape[1], 2, gen)
        for name in MODULE_NAMES
    }  # up factors start at zero
    h = Tensor(rand((5, 8), 4))
    gates = {name: 1.0 for name in MODULE_NAMES}
    np.testing.assert_array_equal(
        block.forward(h, adapters, gates).data, block.forward(h).data
    )


def test_block_matches_numpy_oracle():
    bb = Backbone(small_cfg(seed=5))
    block = bb.blocks[0]
    adapters = make_adapters(block, seed=6)
    h = rand((6, 8), 7)
    gates = {name: 1.0 for name in MODULE_NAMES}
    ours = block.forward(Tensor(h), adapters, gates).data
    oracle = np_block(h, block, adapters, gate=1.0)
    np.testing.assert_allclose(ours, oracle, atol=1e-10)


@pytest.mark.parametrize("masked", [False])  # one value: attention masks nothing
def test_batched_multi_head_block_matches_numpy_oracle(masked):
    bb = Backbone(small_cfg(heads=4, seed=32))
    block = bb.blocks[0]
    adapters = make_adapters(block, seed=33)
    h = rand((3, 6, 8), 34)
    gates = {name: 1.0 for name in MODULE_NAMES}
    ours = block.forward(Tensor(h), adapters, gates).data
    np.testing.assert_allclose(ours, np_block(h, block, adapters, gate=1.0), atol=1e-10)


def test_block_single_token_attention_is_identity_weight():
    # one token: softmax over a single key is exactly 1
    bb = Backbone(small_cfg(seed=8))
    block = bb.blocks[0]
    h = rand((1, 8), 9)
    ours = block.forward(Tensor(h)).data
    np.testing.assert_allclose(ours, np_block(h, block), atol=1e-12)


# per-module gates for a batch of b samples
GATE_PATTERNS = {
    "no_adapters": None,
    "open_scalar": lambda j, b: 1.0,
    "open_rows": lambda j, b: np.ones(b),
    "closed_rows": lambda j, b: np.zeros(b),
    # module j opens the samples i with i + j even: at b=1 every other
    # module is all open and the rest all closed, at b=3 each is partial
    "mixed_rows": lambda j, b: ((np.arange(b) + j) % 2 == 0).astype(np.float64),
}


@pytest.mark.parametrize("pattern", sorted(GATE_PATTERNS))
@pytest.mark.parametrize("attention", ["bidirectional"])  # the only kind there is
@pytest.mark.parametrize("shape", [(1, 4, 8), (3, 4, 8), (5, 8)], ids=["b1", "b3", "2d"])
@pytest.mark.parametrize("learn", ["states", "trunk", "adapters"])
def test_block_op_bit_identical_to_composed_records(pattern, attention, shape, learn):
    # one transformer_block record against the rmsnorm, matmul, lora_linear,
    # attention, silu, mul and add records it replaces: output and every
    # grad equal bit for bit. `states` is the frozen trunk of a forecaster,
    # `trunk` pretraining, and `adapters` a constant input.
    def run(forward):
        block = Backbone(small_cfg(heads=4, seed=41)).blocks[0]
        for t in block.tensors("b").values():
            t.requires_grad = learn == "trunk"
        adapters = gates = None
        leaves = [*block.tensors("b").values()]
        if GATE_PATTERNS[pattern] is not None:
            adapters = make_adapters(block, seed=42)
            gates = {name: GATE_PATTERNS[pattern](j, shape[0])
                     for j, name in enumerate(MODULE_NAMES)}
            leaves += [t for ad in adapters.values() for t in (ad.down, ad.up)]
        h = Tensor(rand(shape, 43), requires_grad=learn != "adapters")
        with T.Tape() as tape:
            out = forward(block, h, adapters, gates)
            ops = tape_ops(tape)
            if out.requires_grad:
                tape.backward(T.total(T.square(out)))
        return ops, [out.data, h.grad] + [t.grad for t in leaves]

    ops, fused = run(lambda block, *args: block.forward(*args))
    _, oracle = run(composed_block)
    # closed gates run no delta, so a constant input leaves nothing to learn
    learns = learn != "adapters" or pattern not in ("no_adapters", "closed_rows")
    assert ops == (["transformer_block"] if learns else [])
    for i, (a, b) in enumerate(zip(fused, oracle)):
        assert (a is None) == (b is None), i
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=str(i))


def test_block_rejects_states_of_the_wrong_width():
    block = Backbone(small_cfg(seed=44)).blocks[0]
    with pytest.raises(ShapeError):
        block.forward(Tensor(rand((2, 3, 6), 46)))


def test_zero_layer_backbone_is_identity():
    bb = Backbone(small_cfg(layers=0, seed=10))
    h = Tensor(rand((4, 8), 11))
    assert bb.forward(h) is h


def test_gate_source_sees_each_layer_input():
    # routing reads the state entering each block: layer 0 sees the input
    # itself, later layers see the previous block's output
    bb = Backbone(small_cfg(layers=3, seed=12))
    h = Tensor(rand((2, 4, 8), 13))
    seen = []
    # the recording gate source returns None: every adapter stays off
    out = bb.forward(h, gates=lambda layer, state: seen.append((layer, state)))
    assert [layer for layer, _ in seen] == [0, 1, 2]
    assert seen[0][1] is h
    assert all(state.shape == (2, 4, 8) for _, state in seen)
    np.testing.assert_array_equal(seen[1][1].data, bb.blocks[0].forward(h).data)
    assert out.shape == (2, 4, 8)


def test_batched_matches_per_sample():
    bb = Backbone(small_cfg(seed=14))
    x = rand((3, 5, 8), 15)
    batched = bb.forward(Tensor(x))
    for b in range(3):
        single = bb.forward(Tensor(x[b]))
        np.testing.assert_allclose(batched.data[b], single.data, atol=1e-12)


@pytest.mark.parametrize("trunk_dtype", ["float64", "float32"])
@pytest.mark.parametrize("bumped", [0, 3], ids=["first", "last"])
def test_every_token_sees_a_bump_of_any_other(bumped, trunk_dtype):
    # attention is bidirectional: a change to one token reaches the block
    # output of every token, before it as well as after it
    block = Backbone(small_cfg(seed=16, trunk_dtype=trunk_dtype)).blocks[0]
    x = rand((2, 4, 8), 17)
    base = block.forward(Tensor(x)).data
    x[:, bumped] += 1.0
    out = block.forward(Tensor(x)).data
    for token in range(4):
        assert not np.any(np.all(base[:, token] == out[:, token], axis=-1)), token


def test_construction_is_deterministic():
    a = Backbone(small_cfg(seed=20))
    b = Backbone(small_cfg(seed=20))
    assert a.checksum() == b.checksum()
    c = Backbone(small_cfg(seed=21))
    assert a.checksum() != c.checksum()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_checksum_hashes_each_buffer_without_a_copy(dtype):
    bb = Backbone(RunConfig(seed=23, trunk_dtype=dtype))
    tensors = bb.tensors()
    oracle = hashlib.sha256()
    for name in sorted(tensors):
        oracle.update(name.encode())
        oracle.update(tensors[name].data.tobytes())
    tracemalloc.start()
    try:
        got = bb.checksum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == oracle.hexdigest()
    assert peak < max(t.data.nbytes for t in tensors.values()) // 2  # a copy of one is more

def test_random_frozen_freezes_at_construction():
    bb = Backbone(small_cfg(seed=22))
    assert all(not t.requires_grad for t in bb.tensors().values())
    assert all(t.grad is None for t in bb.tensors().values())


def test_frozen_tensor_count_expectation():
    for layers in (1, 2, 4):
        bb = Backbone(small_cfg(layers=layers, seed=23))
        # 7 bias-free linear weights plus 2 norm gains per block
        assert sum(not t.requires_grad for t in bb.tensors().values()) == layers * 9


def test_parameter_count_arithmetic():
    # per block: 4 d*d + 2 d*f + f*d + 2d
    trunk = lambda cfg: Forecaster(cfg).parameter_report()["backbone"]
    assert trunk(small_cfg(layers=2, seed=24)) == 2 * 656
    assert trunk(RunConfig(seed=24)) == 4 * 65664  # desk


def test_frozen_params_never_gain_grads():
    bb = Backbone(small_cfg(seed=25))
    h = Tensor(rand((3, 8), 26))
    with T.Tape() as tape:
        out = bb.forward(h)
        tape.backward(T.mean(T.square(out)))
    assert all(t.grad is None for t in bb.tensors().values())


def test_optimizer_step_leaves_frozen_backbone_unchanged():
    from tokencast.training import AdamW

    bb = Backbone(small_cfg(seed=27))
    before = bb.checksum()
    extra = T.parameter(rand((4, 4), 28))
    opt = AdamW({**bb.tensors(), "extra": extra}, lr=0.1)
    with T.Tape() as tape:
        h = bb.forward(Tensor(rand((3, 8), 29)))
        loss = T.add(T.mean(T.square(h)), T.mean(T.square(extra)))
        tape.backward(loss)
    opt.step()
    assert bb.checksum() == before
    assert not np.array_equal(extra.data, rand((4, 4), 28))


def test_taped_block_keeps_only_what_its_pull_cannot_rebuild():
    # numpy buffers a taped block holds after its forward, beyond its output
    # and the per-row inverse norms: gate_out, up, h1, the head-major q, k,
    # v, the probabilities and each delta's gated rank-r rows. x, x2, the
    # silu output, its product with up and the attention context are not
    # kept; the pull forms them again.
    cfg = small_cfg(heads=2, seed=44)
    block = Backbone(cfg).blocks[0]
    b, n, d, f, r = 3, 4, cfg.dim, cfg.ffn_dim, cfg.rank
    h = Tensor(rand((b, n, d), 46), requires_grad=True)

    def retained(adapters, gates):
        tracemalloc.start()
        try:
            before = numpy_bytes()
            with T.Tape() as tape:
                out = block.forward(h, adapters, gates)
                kept = numpy_bytes() - before
        finally:
            tracemalloc.stop()
        assert tape_ops(tape) == ["transformer_block"]
        return kept - out.data.nbytes - 2 * 8 * b * n

    states = b * n * d  # each of h1, q, k, v
    adapters = make_adapters(block, r=r, seed=45)
    gates = {name: GATE_PATTERNS["mixed_rows"](j, b) for j, name in enumerate(MODULE_NAMES)}
    kept = 4 * states + 2 * b * n * f + b * cfg.heads * n * n + len(MODULE_NAMES) * b * n * r
    assert retained(adapters, gates) == 8 * kept
    # a frozen trunk without adapters: no deltas' rows
    assert retained(None, None) == 8 * (4 * states + 2 * b * n * f + b * cfg.heads * n * n)


def sine_view(rows):
    series = MultivariateSeries(name="p", values=np.sin(np.arange(float(rows)) / 7.0)[:, None])
    return chronological_split(series, SplitSpec(rows, 0, 0), lookback=16)[0]


def test_pretrain_then_freeze_runs_and_freezes():
    bb = Backbone(small_cfg(pretrain_mode="pretrain_then_freeze", seed=30))
    frozen = lambda: not any(t.requires_grad for t in bb.tensors().values())
    assert frozen()  # frozen at construction; pretraining unfreezes for its steps
    # 381 windows in batches of 64: 6 steps an epoch, so 24 steps are 4 epochs
    losses = pretrain_then_freeze(bb, sine_view(400), lookback=16, horizon=4, steps=24,
                                  batch_size=64, seed=30)
    assert frozen() and len(losses) == 4
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("steps, epochs", [(1, 1), (6, 1), (7, 2), (13, 3)])
def test_pretrain_runs_whole_epochs(monkeypatch, steps, epochs):
    from tokencast.training import AdamW

    calls = []
    step_fn = AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda opt: (calls.append(1), step_fn(opt)))
    bb = Backbone(small_cfg(pretrain_mode="pretrain_then_freeze", seed=32))
    # 81 windows in batches of 16: 6 steps an epoch, the last one of a single window
    losses = pretrain_then_freeze(bb, sine_view(100), lookback=16, horizon=4, steps=steps,
                                  batch_size=16, seed=32)
    assert len(losses) == epochs and len(calls) == 6 * epochs


def test_pretrain_zero_steps_keeps_the_random_trunk():
    cfg = small_cfg(pretrain_mode="pretrain_then_freeze", seed=33)
    bb = Backbone(cfg)
    assert pretrain_then_freeze(bb, sine_view(100), lookback=16, horizon=4, steps=0) == []
    assert bb.checksum() == Backbone(cfg).checksum()
    assert not any(t.requires_grad for t in bb.tensors().values())


def test_pretrain_divergence_raises_and_leaves_the_trunk_frozen():
    from tokencast.training import NumericError

    bb = Backbone(small_cfg(pretrain_mode="pretrain_then_freeze", seed=34))
    with pytest.raises(NumericError, match="diverging loss"), np.errstate(over="ignore"):
        pretrain_then_freeze(bb, sine_view(100), lookback=16, horizon=4, steps=6,
                             lr=1e9, seed=34)
    assert not any(t.requires_grad for t in bb.tensors().values())


def test_pretrain_step_sees_only_its_own_batch_grads(monkeypatch):
    # each AdamW step gets the grads of its own batch, not a running sum
    from tokencast.data import WindowSet
    from tokencast.embedding import OutputHead, TsEmbedder, denormalize, instance_normalize
    from tokencast.training import AdamW

    bb = Backbone(small_cfg(pretrain_mode="pretrain_then_freeze", seed=40))
    batches, seen, alone = [], [], []
    batch_fn, step_fn = WindowSet.batch, AdamW.step

    def batch_grads(params, batch):
        """The grads of one batch at the current weights, from cleared grads."""
        emb, head = TsEmbedder(16, 8, 0), OutputHead(8, 4, 0)
        for name in ("w1", "b1", "w2", "b2"):
            setattr(emb, name, params[f"pretrain_embedder.{name}"])
        head.weight, head.bias = params["pretrain_head.weight"], params["pretrain_head.bias"]
        for p in params.values():
            p.grad = None
        xn, stats = instance_normalize(batch.x)
        with T.Tape() as tape:
            pred = denormalize(head.project(bb.forward(emb.embed(Tensor(xn)))), stats)
            tape.backward(T.mean(T.square(T.sub(pred, Tensor(batch.y)))))
        return {k: p.grad.copy() for k, p in params.items()}

    def spy_batch(windows, idx):
        batches.append(batch_fn(windows, idx))
        return batches[-1]

    def spy_step(opt):
        seen.append({k: p.grad.copy() for k, p in opt.params.items()})
        alone.append(batch_grads(opt.params, batches[-1]))
        for k, p in opt.params.items():
            p.grad = seen[-1][k].copy()  # step on what the loop handed over
        step_fn(opt)

    monkeypatch.setattr(WindowSet, "batch", spy_batch)
    monkeypatch.setattr(AdamW, "step", spy_step)
    # 27 rows hold 8 windows: one epoch of two steps in batches of 4
    pretrain_then_freeze(bb, sine_view(27), lookback=16, horizon=4, steps=2, batch_size=4,
                         seed=40)
    assert len(seen) == 2 and set(seen[1]) == set(alone[1])
    for name, grad in seen[1].items():
        np.testing.assert_array_equal(grad, alone[1][name], err_msg=name)


def test_pretrained_trunk_leaves_the_pretraining_buffer(monkeypatch):
    # after pretraining no trunk tensor is a view of the run's flat value
    # buffer, which also holds the throwaway embedder and head; each is a
    # C-contiguous array that a checkpoint load can read into
    from tokencast.training import AdamW

    bb = Backbone(small_cfg(pretrain_mode="pretrain_then_freeze", seed=35))
    runs, step_fn = [], AdamW.step

    def spy_step(opt):
        step_fn(opt)
        runs.append((opt.params, {k: p.data.copy() for k, p in opt.params.items()}))

    monkeypatch.setattr(AdamW, "step", spy_step)
    pretrain_then_freeze(bb, sine_view(100), lookback=16, horizon=4, steps=2, seed=35)
    params, trained = runs[-1]
    throwaway = [p.data for k, p in params.items() if k.startswith("pretrain_")]
    assert throwaway and all(a.base is not None for a in throwaway)
    for name, t in bb.tensors().items():
        assert t.data.flags.c_contiguous, name
        assert not any(np.shares_memory(t.data, a.base) for a in throwaway), name
        np.testing.assert_array_equal(t.data, trained[name], err_msg=name)


def test_pretrain_rejects_random_frozen_mode():
    series = MultivariateSeries(name="p", values=np.zeros((100, 1)))
    view, _, _ = chronological_split(series, SplitSpec(100, 0, 0), lookback=8)
    bb = Backbone(small_cfg(seed=31))
    with pytest.raises(ShapeError, match="not configured"):
        pretrain_then_freeze(bb, view, lookback=8, horizon=2, steps=2)

