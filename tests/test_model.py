"""Composed forecaster: variants, shared init, gradients, parameter budget."""

import inspect
from pathlib import Path

import numpy as np
import pytest

from tokencast import backbone, dlora
from tokencast import tensor as T
from tokencast import training
from tokencast.backbone import TransformerBlock, pretrain_then_freeze
from tokencast.config import (
    ROUTED_VARIANTS,
    VARIANT_PARTS,
    VARIANTS,
    ConfigError,
    RunConfig,
    build_config,
)
from tokencast.data import SplitSpec, WindowSet, chronological_split, synth_generate
from tokencast.dlora import N_MODULES, batch_stats, load_balance_loss
from tokencast.model import Forecaster
from tokencast.tensor import Tensor

import oracles as O
from helpers import finite_difference, tape_ops


def tiny_cfg(**kw):
    base = dict(
        lookback=12,
        horizon=4,
        dim=8,
        layers=2,
        heads=2,
        ffn_dim=16,
        align_heads=2,
        rank=2,
        n_active=3,
        prompt_buckets=16,
        prompt_max_tokens=8,
        seed=5,
    )
    base.update(kw)
    return RunConfig(**base)


def batch(cfg, b=3, n=2, seed=0):
    g = np.random.Generator(np.random.PCG64(seed))
    return g.normal(size=(b, n, cfg.lookback)) + 3.0


@pytest.mark.parametrize("bad", [
    {"heads": 3}, {"align_heads": 3}, {"heads": 0}, {"dim": 0},
    # rank caps at min(dim, ffn_dim) // 2: 4 here, 1 with ffn_dim 3
    {"rank": 0}, {"rank": 5}, {"ffn_dim": 3},
    {"n_active": 0}, {"n_active": 8}, {"layers": 0}, {"lookback": 0},
    {"prompt_buckets": 0}, {"variant": "bogus"},
    {"pretrain_mode": "bogus"}, {"trunk_dtype": "float16"},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_forecaster_rejects_invalid_config(bad):
    # the constructor's one validate() is the only shape check of the model
    with pytest.raises(ConfigError):
        Forecaster(tiny_cfg(**bad))


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_shapes(variant):
    cfg = tiny_cfg(variant=variant)
    m = Forecaster(cfg)
    pred = Tensor(m.predict(batch(cfg)))
    assert pred.shape == (3, 2, cfg.horizon)
    assert np.all(np.isfinite(pred.data))


def test_variants_share_component_initialization():
    models = {v: Forecaster(tiny_cfg(variant=v)) for v in VARIANTS}
    sums = {v: m.backbone.checksum() for v, m in models.items()}
    assert len(set(sums.values())) == 1
    # embedder and head weights bit-identical too
    ref = models["full"]
    for v, m in models.items():
        np.testing.assert_array_equal(m.embedder.w1.data, ref.embedder.w1.data)
        np.testing.assert_array_equal(m.head.weight.data, ref.head.weight.data)


def test_readme_variant_table_matches_config():
    # the README's table is read as written, so the tests that take their
    # variants and parts from config's table do not check it against itself
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Variants\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    cells = [[c.strip().strip("`") for c in line.split("|")[1:4]] for line in lines]
    assert cells[0] == ["variant", "prompt", "adapters"]
    assert cells[2:] == [[v, *parts] for v, parts in VARIANT_PARTS.items()]


def test_routing_variants_only():
    for v in VARIANTS:
        m = Forecaster(tiny_cfg(variant=v))
        x = batch(m.cfg)
        _, probs = m.forward_array(x)
        assert len(probs) == (m.cfg.layers if v in ROUTED_VARIANTS else 0)
        for p in probs:
            assert p.shape == (x.shape[0], N_MODULES)


def test_v4_has_no_adapter_parameters():
    m = Forecaster(tiny_cfg(variant="v4_frozen"))
    report = m.parameter_report()
    assert report["adapters"] == 0
    assert report["routers"] == 0
    assert not any(k.startswith(("adapters.", "routers.")) for k in m.named_parameters())


def test_v3_gates_every_module():
    m = Forecaster(tiny_cfg(variant="v3_static_lora"))
    report = m.parameter_report()
    assert report["adapters"] > 0
    assert report["routers"] == 0


def test_prefix_variant_extends_backbone_sequence():
    cfg = tiny_cfg(variant="v2_prefix_prompt")
    m = Forecaster(cfg)
    p = len(m.prompt.ids)
    assert p > 0
    seen = []
    orig = m.backbone.blocks[0].forward
    m.backbone.blocks[0].forward = lambda h, a=None, g=None: (
        seen.append(h.shape),
        orig(h, a, g),
    )[1]
    pred = m.predict(batch(cfg, b=3, n=2))
    assert seen[0] == (3, p + 2, cfg.dim)  # prompt rows prepended
    assert pred.shape == (3, 2, cfg.horizon)  # and stripped before the head


def test_full_variant_keeps_backbone_sequence_at_channel_count():
    cfg = tiny_cfg(variant="full")
    m = Forecaster(cfg)
    seen = []
    orig = m.backbone.blocks[0].forward
    m.backbone.blocks[0].forward = lambda h, a=None, g=None: (
        seen.append(h.shape),
        orig(h, a, g),
    )[1]
    m.predict(batch(cfg, b=3, n=2))
    assert seen[0] == (3, 2, cfg.dim)


def test_predict_is_deterministic():
    cfg = tiny_cfg()
    x = batch(cfg)
    a = Forecaster(cfg).predict(x)
    b = Forecaster(cfg).predict(x)
    np.testing.assert_array_equal(a, b)


def test_prediction_scales_with_input_level():
    # instance normalization makes the model equivariant to per-window
    # affine changes of a channel
    cfg = tiny_cfg()
    m = Forecaster(cfg)
    x = batch(cfg)
    base = m.predict(x)
    shifted = m.predict(x * 2.0 + 10.0)
    np.testing.assert_allclose(shifted, base * 2.0 + 10.0, atol=1e-8)


def perturbed_desk_model(variant, trunk_dtype="float64"):
    """A desk model whose routers are scaled up and whose adapter up factors
    are non-zero, so samples route apart and every open delta moves the
    output; and the generator that perturbed it."""
    m = Forecaster(RunConfig(variant=variant, seed=3, trunk_dtype=trunk_dtype).validate())
    gen = np.random.Generator(np.random.PCG64(5))
    for adapters in m.adapters:
        for ad in adapters.values():
            ad.up.data[...] = gen.normal(size=ad.up.shape) * 0.1
    for router in m.routers:
        router.weight.data[...] = gen.normal(size=router.weight.shape)
    return m, gen


@pytest.mark.parametrize("variant, trunk_dtype", [
    *(pytest.param(v, "float64", id=v) for v in VARIANTS),
    # a float32 v2_prefix_prompt forecast depends on the batch's row count
    *(pytest.param(v, "float32", id=f"{v}-float32")
      for v in VARIANTS if v != "v2_prefix_prompt"),
])
def test_predictions_bit_identical_across_batch_sizes(variant, trunk_dtype):
    # a window's forecast does not depend on the batch it is predicted in:
    # B=64 against 64 B=1 calls and two B=32 calls
    m, gen = perturbed_desk_model(variant, trunk_dtype)
    x = gen.normal(size=(64, m.cfg.channels, m.cfg.lookback))
    whole = m.predict(x)
    np.testing.assert_array_equal(np.concatenate([m.predict(x[i:i + 1]) for i in range(64)]),
                                  whole)
    np.testing.assert_array_equal(np.concatenate([m.predict(x[:32]), m.predict(x[32:])]), whole)
    if m.routers:  # the samples do not all open the same modules
        _, probs = m.forward_array(x)
        gates = dlora.top_n_gates_rows(probs[0].data, m.cfg.n_active)
        assert len({tuple(row) for row in gates}) > 1


@pytest.mark.parametrize("variant", ["v3_static_lora", "v4_frozen"])
def test_unrouted_variants_are_channel_permutation_equivariant(variant):
    # without routers nothing singles out a channel token: permuting the
    # input channels permutes the forecasts, up to summation order
    m, gen = perturbed_desk_model(variant)
    x = gen.normal(size=(8, 5, m.cfg.lookback))
    perm = np.array([3, 0, 4, 1, 2])
    np.testing.assert_allclose(m.predict(x[:, perm]), m.predict(x)[:, perm], rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["v3_static_lora", "v4_frozen"])
def test_tape_records_do_not_grow_with_head_count(variant):
    # no routers, so gate skipping cannot move the count; only the head
    # count differs between the two models
    counts = []
    for heads in (1, 8):
        cfg = tiny_cfg(variant=variant, dim=64, heads=heads, align_heads=heads)
        with T.Tape() as tape:
            Forecaster(cfg).forward_array(batch(cfg))
        counts.append(len(tape_ops(tape)))
    assert counts[0] == counts[1] > 0


def test_desk_dispatch_op_counts(monkeypatch):
    # desk batch-1 latency is Python dispatch, about 10 us per tensor op; the
    # counts are exact for a fixed config, unlike timings on a shared host
    cfg = RunConfig()  # the desk preset, variant full
    m = Forecaster(cfg)
    emitted = []
    emit = T.emit

    def counting_emit(data, inputs, pull, *dtype):
        emitted.append(pull.__qualname__.partition(".")[0])
        return emit(data, inputs, pull, *dtype)

    monkeypatch.setattr(T, "emit", counting_emit)
    m.predict(batch(cfg, b=1, n=cfg.channels))
    # 4 routers, 4 blocks and 12 ops outside the trunk: the embedder's two
    # linears and silu, the prompt rows, the alignment's three key, query
    # and value matmuls, attention and output linear, the head's linear and
    # denormalize's mul and add; the fused ops of backbone and dlora emit
    # through the tensor module, so they are counted
    assert emitted.count("transformer_block") == emitted.count("router_probs") == cfg.layers == 4
    assert emitted.count("linear") == 4 and "add" in emitted
    assert len(emitted) == 20
    with T.Tape() as tape:
        m.forward_array(batch(cfg, b=cfg.batch_size, n=cfg.channels))
    assert len(tape._records) == 20


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("attention", ["bidirectional"])  # the only kind there is
@pytest.mark.parametrize("trunk", ["frozen", "trainable"])
def test_forecaster_bit_identical_with_composed_blocks(monkeypatch, variant, b, attention, trunk):
    # the model's prediction, loss and every grad are the same bits whether
    # each block is one transformer_block record or the records it replaces;
    # at b=1 a routed module's gate is all open or all closed
    def run():
        m = Forecaster(tiny_cfg(variant=variant, n_active=3, seed=7))
        gen = np.random.Generator(np.random.PCG64(8))
        for adapters in m.adapters:
            for ad in adapters.values():
                ad.up.data[...] = gen.normal(size=ad.up.shape) * 0.1
        params = m.named_parameters()
        if trunk == "trainable":
            for t in m.backbone.tensors().values():
                t.requires_grad = True
        x = batch(m.cfg, b=b)
        with T.Tape() as tape:
            pred, probs = m.forward_array(x)
            task = training.task_loss("mse", pred, x[:, :, :m.cfg.horizon])
            loss = training.total_loss(task, probs, batch_stats(probs)[0], 0.1)
            tape.backward(loss)
        return [pred.data, loss.data] + [params[k].grad for k in sorted(params)]

    fused = run()
    monkeypatch.setattr(TransformerBlock, "forward", O.composed_block)
    oracle = run()
    for i, (a, o) in enumerate(zip(fused, oracle)):
        assert (a is None) == (o is None), i
        if a is not None:
            np.testing.assert_array_equal(a, o, err_msg=str(i))


FUSED_STATE_INPUTS = {"transformer_block": 1, "router_probs": 1, "attention": 3}


@pytest.mark.parametrize("run", [*VARIANTS, "pretrain_then_freeze"])
def test_fused_ops_only_see_states_that_require_grad(monkeypatch, run):
    # the transformer_block, router_probs and attention pulls always form the
    # grads of their state inputs; that costs nothing only while every
    # training step feeds them states that require grad, as the learning
    # embedder makes them
    seen = []
    record = T.Tape.record

    def spy(tape, out, inputs, pull):
        op = pull.__qualname__.partition(".")[0]
        if op in FUSED_STATE_INPUTS:
            seen.append((op, [t.requires_grad for t in inputs[:FUSED_STATE_INPUTS[op]]]))
        return record(tape, out, inputs, pull)

    monkeypatch.setattr(T.Tape, "record", spy)
    pretrain = run == "pretrain_then_freeze"
    cfg = tiny_cfg(variant="full" if pretrain else run,
                   pretrain_mode=run if pretrain else "random_frozen", epochs=1, batch_size=64)
    m = Forecaster(cfg)
    view, _, _ = chronological_split(synth_generate("sine_mixture", 2, 40, 0),
                                     SplitSpec(40, 0, 0), cfg.lookback)
    windows = WindowSet(view, cfg.lookback, cfg.horizon)  # 25 windows: one step
    if pretrain:
        pretrain_then_freeze(m.backbone, view, cfg.lookback, cfg.horizon, steps=1,
                             batch_size=cfg.batch_size)
        assert [op for op, _ in seen] == ["transformer_block"] * cfg.layers
    training.train(m, windows, None, cfg)
    ops = [op for op, _ in seen]
    assert ops.count("transformer_block") == cfg.layers * (1 + pretrain)
    assert ops.count("router_probs") == (cfg.layers if m.routers else 0)
    assert ops.count("attention") == (1 if m.cross is not None else 0)
    assert all(all(needs) for _, needs in seen), seen


def test_forward_records_no_balance_means():
    # the batch means of the balance term are recorded by the loss that uses
    # them, after the forward
    cfg = tiny_cfg()
    m = Forecaster(cfg)
    with T.Tape() as tape:
        m.forward_array(batch(cfg))
    forward_ops = tape_ops(tape)
    assert "mean" not in forward_ops
    with T.Tape() as tape:
        _, probs = m.forward_array(batch(cfg))
        load_balance_loss(probs, batch_stats(probs)[0])
    assert tape_ops(tape)[:len(forward_ops)] == forward_ops
    assert tape_ops(tape).count("mean") == cfg.layers


def test_tensor_defines_exactly_the_ops_the_model_records():
    # an op that no taped forward or loss records is a test oracle and lives
    # in tests/oracles.py; the fused block and router ops live with the model
    # parts whose algorithm they are, on tensor's engine helpers
    helpers = {"parameter", "emit", "recording", "attend", "attend_context", "attend_grads"}
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name not in helpers}
    ops |= {backbone.transformer_block.__name__, dlora.router_probs.__name__}
    recorded = set()
    for variant in VARIANTS:
        for loss_kind in ("mse", "smape"):
            cfg = tiny_cfg(variant=variant, loss_kind=loss_kind, lambda_lb=0.1)
            x = batch(cfg)
            with T.Tape() as tape:
                pred, probs = Forecaster(cfg).forward_array(x)
                task = training.task_loss(loss_kind, pred, x[:, :, :cfg.horizon])
                training.total_loss(task, probs, batch_stats(probs)[0], cfg.lambda_lb)
            recorded.update(tape_ops(tape))
    assert ops == recorded


def test_routing_stats_of_evaluate_merges_batches_exactly():
    # 105 windows in batches of 8 leave a last batch of 1: weighting by batch
    # size must pool them into the stats of one batch of every window
    cfg = tiny_cfg()
    m = Forecaster(cfg)
    view, _, _ = chronological_split(synth_generate("sine_mixture", 2, 120, 0),
                                     SplitSpec(120, 0, 0), cfg.lookback)
    windows = WindowSet(view, cfg.lookback, cfg.horizon)
    whole = m.routing_stats(training.evaluate(m.forward_array, windows, windows.count)[2])
    merged = m.routing_stats(training.evaluate(m.forward_array, windows, 8)[2])
    assert merged.samples == whole.samples == windows.count == 105
    np.testing.assert_allclose(merged.f, whole.f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(merged.phat, whole.phat, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["v3_static_lora", "v4_frozen"])
def test_unrouted_model_has_no_routing_stats(variant):
    m = Forecaster(tiny_cfg(variant=variant))
    assert m.routing_stats([m.forward_array(batch(m.cfg))[1]]) is None


def test_composed_gradients_match_finite_differences():
    # end-to-end check through embed, align, route, adapt, project;
    # gate decisions must not flip under the probe step, so verify margins
    cfg = tiny_cfg(seed=11)
    m = Forecaster(cfg)
    x = batch(cfg, seed=12)
    y = np.random.Generator(np.random.PCG64(13)).normal(size=(3, 2, cfg.horizon))

    _, probs = m.forward_array(x)
    assert probs

    params = m.trainable()
    lam = 0.01

    def loss_value():
        with T.Tape() as tape:
            pred, probs = m.forward_array(x)
            err = T.mean(T.square(T.sub(pred, Tensor(y))))
            loss = T.add(err, T.scale(load_balance_loss(probs, batch_stats(probs)[0]), lam))
            tape.backward(loss)
        return loss, tape

    loss, _ = loss_value()
    analytic = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    for p in params.values():
        p.zero_grad()

    def scalar():
        pred, probs = m.forward_array(x)
        err = T.mean(T.square(T.sub(pred, Tensor(y))))
        return T.add(err, T.scale(load_balance_loss(probs, batch_stats(probs)[0]), lam)).item()

    checked = 0
    for name, p in sorted(params.items()):
        if name not in analytic:
            continue
        numeric = finite_difference(scalar, [p.data], h=1e-5)[0]
        scale = np.maximum(np.abs(numeric), np.abs(analytic[name]))
        mask = scale > 1e-6
        if mask.any():
            rel = np.abs(numeric - analytic[name])[mask] / scale[mask]
            assert rel.max() < 1e-3, f"{name}: rel {rel.max():.2e}"
        checked += 1
    assert checked >= 10


def test_gradients_cover_all_trainable_groups():
    cfg = tiny_cfg(seed=3)
    m = Forecaster(cfg)
    # zero-initialized output factors block gradient flow at construction;
    # nudge them off zero so every group participates
    g = np.random.Generator(np.random.PCG64(99))
    m.cross.wo.data[...] = g.normal(size=m.cross.wo.shape) * 0.05
    for per_block in m.adapters:
        for ad in per_block.values():
            ad.up.data[...] = g.normal(size=ad.up.shape) * 0.05
    x = batch(cfg, seed=4)
    y = np.zeros((3, 2, cfg.horizon))
    with T.Tape() as tape:
        pred, probs = m.forward_array(x)
        loss = T.add(
            T.mean(T.square(T.sub(pred, Tensor(y)))),
            T.scale(load_balance_loss(probs, batch_stats(probs)[0]), 0.01),
        )
        tape.backward(loss)
    got = {k.split(".")[0] for k, p in m.trainable().items()
           if p.grad is not None and np.any(p.grad != 0)}
    assert {"embedder", "align", "prompt", "adapters", "routers", "head"} <= got


def test_parameter_report_sums():
    m = Forecaster(tiny_cfg())
    report = m.parameter_report()
    groups = ["embedder", "alignment", "adapters", "routers", "head"]
    assert report["trainable"] == sum(report[g] for g in groups)
    assert report["total"] == report["trainable"] + report["backbone"]
    assert report["trainable_fraction"] == pytest.approx(
        report["trainable"] / report["total"]
    )
    # closed forms at dim 8, ffn 16, rank 2, 2 layers, lookback 12, horizon 4
    assert {g: report[g] for g in ["backbone", *groups]} == {
        "backbone": 2 * 656, "embedder": 344, "alignment": 384,
        "adapters": 2 * 272, "routers": 2 * 8 * 7, "head": 8 * 4 + 4,
    }


def test_adapter_budget_small_at_reference_scale():
    # the pinned desk config trades budget for runtime; the reference-scale
    # preset must stay under a tenth of total parameters
    report = Forecaster(build_config(preset="appendix")).parameter_report()
    assert report["trainable_fraction"] < 0.10


def test_trainable_excludes_backbone():
    m = Forecaster(tiny_cfg())
    names = list(m.trainable())
    assert names and not any(n.startswith("backbone.") for n in names)
    assert all(p.requires_grad for p in m.trainable().values())
