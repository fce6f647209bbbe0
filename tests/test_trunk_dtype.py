"""The trunk dtype: a float32 trunk is the float64 one rounded, only the block
op computes in it, the states between blocks stay in it, and checkpoints
store it in float32."""

import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

import oracles as O
from tokencast import cli, dlora, training
from tokencast import tensor as T
from tokencast.backbone import Backbone, TransformerBlock, module_dims, pretrain_then_freeze
from tokencast.checkpoint import (
    VERSION,
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from tokencast.config import PRESETS, RunConfig, build_config
from tokencast.data import SplitSpec, chronological_split, synth_generate
from tokencast.dlora import MODULE_NAMES, LoraAdapter
from tokencast.model import Forecaster
from tokencast.tensor import Tensor

F32 = {"trunk_dtype": "float32"}
VARIANTS = ["full", "v1_no_align", "v2_prefix_prompt", "v3_static_lora", "v4_frozen"]
# float32 carries 24 bits: a block pass and its pull stay within 1e-5 of
# the float64 ones, about 80 float32 ulps (5.6e-7 measured); a short desk
# fit accumulates no more than 1e-6 (1.7e-8 measured)
BLOCK_RTOL = 1e-5
FIT_RTOL = 1e-6


def tiny_cfg(**kw):
    base = dict(lookback=12, horizon=4, dim=8, layers=2, heads=2, ffn_dim=16,
                align_heads=2, rank=2, n_active=3, prompt_buckets=16,
                prompt_max_tokens=8, seed=5)
    base.update(kw)
    return RunConfig(**base)


def perturbed(cfg):
    """A model with non-zero adapter up factors and routers scaled up."""
    m = Forecaster(cfg)
    gen = np.random.Generator(np.random.PCG64(8))
    for adapters in m.adapters:
        for ad in adapters.values():
            ad.up.data[...] = gen.normal(size=ad.up.shape) * 0.1
    for router in m.routers:
        router.weight.data *= 50.0
    return m


def close(got, want, rtol):
    """Largest difference within rtol of want's largest magnitude."""
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("preset, dtype", [
    ("desk", "float64"), ("main_text", "float32"), ("appendix", "float32"),
])
def test_presets_pick_the_trunk_dtype(preset, dtype):
    assert build_config(preset=preset).trunk_dtype == dtype
    assert PRESETS[preset].get("trunk_dtype", RunConfig.trunk_dtype) == dtype


def test_float32_trunk_is_the_float64_trunk_rounded():
    wide = Backbone(tiny_cfg()).tensors()
    narrow = Backbone(tiny_cfg(**F32)).tensors()
    assert list(narrow) == list(wide)
    for name, t in narrow.items():
        assert t.data.dtype == np.float32 and not t.requires_grad and t.grad is None
        np.testing.assert_array_equal(t.data, wide[name].data.astype(np.float32), err_msg=name)


def block_pass(dtype, causal, state=None):
    """Output and every grad of one block with a trainable trunk, open,
    closed and per-sample gates and non-zero adapters; the float64 block
    holds the float32 block's rounded weights. The input state holds
    float32 values, stored in `state`, the block's dtype by default."""
    cfg = RunConfig(dim=16, heads=4, ffn_dim=32, rank=2, causal_mask=causal, trunk_dtype=dtype)
    block = TransformerBlock(cfg, np.random.Generator(np.random.PCG64(1)))
    rounded = TransformerBlock(dataclasses.replace(cfg, trunk_dtype="float32"),
                               np.random.Generator(np.random.PCG64(1)))
    for t, r in zip(block.tensors("b").values(), rounded.tensors("b").values()):
        t.data[...] = r.data
        t.requires_grad = True
    gen = np.random.Generator(np.random.PCG64(2))
    adapters = {}
    for name, (d_in, d_out) in module_dims(cfg).items():
        adapters[name] = ad = LoraAdapter(d_in, d_out, cfg.rank, gen)
        ad.up.data[...] = gen.normal(size=ad.up.shape) * 0.1
    gates = dict(zip(MODULE_NAMES, [1.0, np.array([1.0, 0.0, 1.0]), 0.0, np.ones(3),
                                    np.array([0.0, 1.0, 1.0]), 1.0, np.array([1.0, 0.0, 0.0])]))
    h = T.parameter(gen.normal(size=(3, 5, 16)).astype(np.float32), state or dtype)
    weight = Tensor(gen.normal(size=(3, 5, 16)))
    learn = [h, *block.tensors("b").values()] + [
        t for ad in adapters.values() for t in (ad.down, ad.up)]
    with T.Tape() as tape:
        out = block.forward(h, adapters, gates)
        tape.backward(T.total(T.mul(out, weight)))
    return [out.data] + [p.grad for p in learn]


@pytest.mark.parametrize("causal", [False, True], ids=["bidirectional", "causal"])
def test_float32_block_op_matches_float64_on_rounded_weights(monkeypatch, causal):
    wide = block_pass("float64", causal)
    seen = set()  # dtypes of every array the linears of the float32 block compute with
    converted = []  # per linear with an adapter: (its delta ran, its factors were converted)
    apply, apply_grads = dlora.apply, dlora.apply_grads

    def apply_spy(x, weight, bias, adapter, gate):
        out, low, mask = apply(x, weight, bias, adapter, gate)
        factors = () if low is None else (adapter.down.data, adapter.up.data)
        seen.update(a.dtype for a in (x, weight, out, *factors) + (low, mask) if a is not None)
        if adapter is not None:
            converted.append((low is not None, not isinstance(adapter, LoraAdapter)))
        return out, low, mask

    def apply_grads_spy(gx, g, x, weight, adapter, low, mask):
        grads = apply_grads(gx, g, x, weight, adapter, low, mask)
        seen.update(a.dtype for a in (g, weight.data, *grads) if a is not None)
        return grads

    monkeypatch.setattr(dlora, "apply", apply_spy)
    monkeypatch.setattr(dlora, "apply_grads", apply_grads_spy)
    narrow = block_pass("float32", causal)
    assert seen == {np.dtype(np.float32)}
    # the factors of the closed v_proj gate's adapter are left as they are
    assert converted == [(True, True)] * 2 + [(False, False)] + [(True, True)] * 4
    assert len(narrow) == 1 + 1 + 9 + 14  # out; h, 9 trunk tensors, 7 adapters
    for i, (got, want) in enumerate(zip(narrow, wide)):
        if want is None:  # the closed gate's adapter
            assert got is None, i
            continue
        # the output and the grads of the state and the trunk in their own
        # dtype, float32; the adapters' grads in their factors', float64
        assert got.dtype == (np.float32 if i < 11 else np.float64), i
        assert close(got, want, BLOCK_RTOL), (i, np.abs(got - want).max())
    # block 0 reads a float64 state: the op converts it on entry and hands
    # its grad back in float64, every bit as for the float32 state
    entry = block_pass("float32", causal, state="float64")
    for i, (got, want) in enumerate(zip(entry, narrow)):
        if want is None:
            assert got is None, i
            continue
        assert got.dtype == (np.float64 if i == 1 else want.dtype), i
        np.testing.assert_array_equal(got, want, err_msg=str(i))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("trunk", ["frozen", "trainable"])
def test_float32_states_match_a_float64_round_trip_per_block(monkeypatch, variant, b, trunk):
    # keeping the states in float32 between blocks changes no bit: the
    # prediction, the loss and every grad equal those of a stack whose every
    # block hands its state back in float64; a trainable trunk holds float64
    # masters, as pretraining trains it, and at b=1 a routed module's gate
    # is all open or all closed
    def run():
        m = perturbed(tiny_cfg(variant=variant, **F32))
        if trunk == "trainable":
            for t in m.backbone.tensors().values():
                t.data = t.data.astype(np.float64)
                t.requires_grad = True
        params = m.named_parameters()
        x = np.random.Generator(np.random.PCG64(9)).normal(size=(b, 3, 12))
        with T.Tape() as tape:
            pred, probs = m.forward_array(x)
            task = training.task_loss("mse", pred, x[:, :, :m.cfg.horizon])
            loss = training.total_loss(task, probs, training.batch_stats(probs)[0], 0.1)
            tape.backward(loss)
        return [pred.data, loss.data] + [params[k].grad for k in sorted(params)]

    kept = run()
    monkeypatch.setattr(TransformerBlock, "forward", O.widened_block)
    oracle = run()
    assert sum(g is not None for g in kept) > 2
    for i, (got, want) in enumerate(zip(kept, oracle, strict=True)):
        assert (got is None) == (want is None), i
        if got is not None:
            assert got.dtype == want.dtype == np.float64, i
            np.testing.assert_array_equal(got, want, err_msg=str(i))


def records(raw: bytes):
    """(name, shape, payload bytes) of every tensor record of a checkpoint."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + hlen
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        name, ndim = raw[pos + 2:pos + 2 + nlen].decode(), raw[pos + 2 + nlen]
        pos += 3 + nlen
        *shape, plen = struct.unpack_from(f"<{ndim}IQ", raw, pos)
        pos += 4 * ndim + 8
        yield name, tuple(shape), raw[pos:pos + plen]
        pos += plen
    assert pos == len(raw)


def widen_trunk(raw: bytes) -> bytes:
    """The file an earlier build wrote for the same model: every `backbone.*`
    payload widened to float64, 8 bytes per element."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    out = bytearray(raw[:12 + hlen + 4])
    for name, shape, payload in records(raw):
        if name.startswith("backbone."):
            payload = np.frombuffer(payload, "<f4").astype("<f8").tobytes()
        name_b = name.encode()
        out += struct.pack(f"<H{len(name_b)}sB{len(shape)}IQ", len(name_b), name_b,
                           len(shape), *shape, len(payload))
        out += payload
    return bytes(out)


def slice_into_buffers(m):
    """Rebind the trunk to views of one buffer of its dtype, and every other
    tensor to views of one float64 buffer, as `pretrain_then_freeze` and
    `AdamW` leave them."""
    trunk = m.backbone.tensors()
    rest = [t for name, t in m.named_parameters().items() if name not in trunk]
    for group in (list(trunk.values()), rest):
        buffer = np.empty(sum(t.size for t in group), group[0].data.dtype)
        for t, home in zip(group, training.flat_views(buffer, group)):
            home[...] = t.data
            t.data = home


@pytest.mark.parametrize("layout", ["default", "sliced"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_float32_round_trip_keeps_float64_payloads(tmp_path, variant, layout):
    # the trunk is stored in float32 and every other payload stays float64,
    # whether each tensor owns its buffer or is a view of a shared one
    m = perturbed(RunConfig(variant=variant, seed=3, **F32).validate())
    if layout == "sliced":
        slice_into_buffers(m)
        assert m.backbone.tensors()["backbone.block0.q_proj.weight"].data.base is not None
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    loaded, _ = load_checkpoint(path)
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(4, 3, 64))
    np.testing.assert_array_equal(loaded.predict(x), m.predict(x))
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, 4) == (VERSION,) == (2,)
    assert read_header(path)["config"]["trunk_dtype"] == "float32"
    tensors, got = m.named_parameters(), loaded.named_parameters()
    stored = {"<f4": 0, "<f8": 0}
    for name, shape, payload in records(raw):
        t = tensors[name]
        dtype = np.dtype("<f4" if name.startswith("backbone.") else "<f8")
        stored[dtype.str] += 1
        assert t.data.dtype == dtype and shape == t.shape, name
        assert len(payload) == dtype.itemsize * t.size == t.data.nbytes, name
        assert payload == t.data.tobytes(), name  # bit for bit
        assert got[name].data.dtype == dtype and got[name].data.tobytes() == payload, name
    assert stored["<f4"] == len(m.backbone.tensors()) > 0
    assert sum(stored.values()) == len(tensors) > stored["<f4"]


def test_widened_float32_file_is_refused(tmp_path, capsys):
    m = perturbed(tiny_cfg(**F32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = path.read_bytes()
    old = tmp_path / "widened.ckpt"
    old.write_bytes(widen_trunk(raw))
    assert old.stat().st_size == len(raw) + 4 * sum(t.size for t in m.backbone.tensors().values())
    with pytest.raises(CheckpointError, match="payload size mismatch") as info:
        load_checkpoint(old)
    msg = str(info.value)
    assert "float32, 4 bytes per element" in msg and "earlier build" in msg, msg
    assert "float64 payloads" in msg, msg
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--length", "40", "--output", str(hist)]) == 0
    capsys.readouterr()
    code = cli.main(["forecast", "--checkpoint", str(old), "--input", str(hist),
                     "--date-column", "date", "--output", str(tmp_path / "fc.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "earlier build" in err and "Traceback" not in err, err
    assert not (tmp_path / "fc.csv").exists()


def traced_save_and_load(path, dtype):
    """Peak traced bytes of a desk model's save, and of its load beyond the model's own."""
    m = Forecaster(RunConfig(trunk_dtype=dtype).validate())
    model_bytes = sum(t.data.nbytes for t in m.named_parameters().values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_checkpoint(path, m)
        save_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before - model_bytes
    finally:
        tracemalloc.stop()
    return save_peak, load_peak


def test_float32_save_and_load_make_no_tensor_sized_temporary(tmp_path):
    # a save writes each tensor's own buffer and a load reads straight into
    # it, so neither side allocates a float64 copy of a trunk tensor (16384
    # elements): beyond what a float64 model's save and load allocate, less
    # than half of one
    widened = 8 * max(t.size for t in Backbone(RunConfig()).tensors().values())
    wide = traced_save_and_load(tmp_path / "wide.ckpt", "float64")
    narrow = traced_save_and_load(tmp_path / "narrow.ckpt", "float32")
    for got, reference in zip(narrow, wide):
        assert got < reference + widened // 2, (narrow, wide)


def test_header_without_trunk_dtype_loads_as_float64(tmp_path):
    # every checkpoint written before the field existed lacks it
    m = perturbed(tiny_cfg(variant="full"))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + hlen])
    del header["config"]["trunk_dtype"]
    header_bytes = json.dumps(header, sort_keys=True).encode()
    old = tmp_path / "old.ckpt"
    old.write_bytes(raw[:8] + struct.pack("<I", len(header_bytes)) + header_bytes
                    + raw[12 + hlen:])
    loaded, _ = load_checkpoint(old)
    assert loaded.cfg.trunk_dtype == "float64"
    assert all(t.data.dtype == np.float64 for t in loaded.named_parameters().values())
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(4, 3, 12))
    np.testing.assert_array_equal(loaded.predict(x), m.predict(x))


def fit(variant, dtype):
    cfg = build_config(overrides={"variant": variant, "length": 600, "epochs": 3,
                                  "val_frac": 0.0, "trunk_dtype": dtype})
    _, _, (train_ws, _, test_ws) = cli.prepare_data(cfg)
    m = Forecaster(cfg)
    result = training.train(m, train_ws, None, cfg)
    ratio = training.evaluate_mse(m, test_ws) / training.naive_repeat_last_mse(test_ws)
    return [row["train_loss"] for row in result.history], ratio


@pytest.mark.parametrize("variant", ["full", "v3_static_lora", "v4_frozen"])
def test_float32_desk_fit_beats_naive_and_matches_float64(variant):
    losses, ratio = fit(variant, "float32")
    wide_losses, wide_ratio = fit(variant, "float64")
    assert ratio < 1.0
    assert abs(ratio - wide_ratio) <= FIT_RTOL * wide_ratio
    np.testing.assert_allclose(losses, wide_losses, rtol=FIT_RTOL)


def test_pretrain_then_freeze_ends_with_a_frozen_float32_trunk():
    cfg = tiny_cfg(pretrain_mode="pretrain_then_freeze", **F32)
    m = Forecaster(cfg)
    before = {name: t.data.copy() for name, t in m.backbone.tensors().items()}
    view, _, _ = chronological_split(synth_generate("sine_mixture", 2, 80, 0),
                                     SplitSpec(80, 0, 0), cfg.lookback)
    losses = pretrain_then_freeze(m.backbone, view, cfg.lookback, cfg.horizon, steps=4,
                                  batch_size=16)
    assert np.isfinite(losses).all()
    trunk = m.backbone.tensors()
    base = trunk["backbone.block0.q_proj.weight"].data.base
    for name, t in trunk.items():
        assert t.data.dtype == np.float32 and not t.requires_grad and t.grad is None
        assert t.data.base is base  # one buffer of the trunk dtype
        assert not np.array_equal(t.data, before[name]), name


def test_outside_the_trunk_every_array_and_grad_is_float64():
    # only the blocks emit float32, and each block after the first reads its
    # predecessor's output as is; every other record, every trainable and
    # every grad stays float64
    cfg = tiny_cfg(variant="full", lambda_lb=0.1, **F32)
    m = perturbed(cfg)
    trunk = {id(t) for t in m.backbone.tensors().values()}
    params = m.trainable()
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(4, 3, 12))
    with T.Tape() as tape:
        pred, probs = m.forward_array(x)
        task = training.task_loss(cfg.loss_kind, pred, x[:, :, :cfg.horizon])
        loss = training.total_loss(task, probs, training.batch_stats(probs)[0], cfg.lambda_lb)
        records = tape._records
        blocks = [(out, inputs) for out, inputs, pull in records
                  if pull.__qualname__.startswith("transformer_block.")]
        assert len(blocks) == cfg.layers
        emitted32 = {id(out) for out, _ in blocks}
        for out, inputs, _ in records:
            assert out.data.dtype == (np.float32 if id(out) in emitted32 else np.float64)
            for t in inputs:
                if id(t) not in trunk:
                    assert t.data.dtype == (np.float32 if id(t) in emitted32 else np.float64)
        states = [inputs[0] for _, inputs in blocks]
        assert all(s is out for s, (out, _) in zip(states[1:], blocks))
        # past the alignment, the one float64 array of the state's shape is
        # block 0's input, the alignment's output
        aligned = next(i for i, (out, _, _) in enumerate(records) if out is states[0])
        wide = {id(t) for out, inputs, _ in records[aligned + 1:] for t in (out, *inputs)
                if t.shape == states[0].shape and t.data.dtype == np.float64}
        assert wide == {id(states[0])}
        assert all(t.data.dtype == np.float32 for t in m.backbone.tensors().values())
        tape.backward(loss)
    assert pred.data.dtype == np.float64 and all(p.data.dtype == np.float64 for p in probs)
    assert all(p.data.dtype == np.float64 for p in params.values())
    grads = [p.grad for p in params.values() if p.grad is not None]
    assert len(grads) > len(params) // 2 and all(g.dtype == np.float64 for g in grads)
