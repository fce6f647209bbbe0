"""Composed forecaster: variants, shared init, gradients, parameter budget."""

import numpy as np
import pytest

from tokencast import tensor as T
from tokencast.config import ConfigError, RunConfig, build_config
from tokencast.data import SplitSpec, WindowSet, chronological_split, synth_generate
from tokencast.dlora import N_MODULES, batch_stats, load_balance_loss
from tokencast.model import Forecaster
from tokencast.tensor import Tensor

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


VARIANTS = ["full", "v1_no_align", "v2_prefix_prompt", "v3_static_lora", "v4_frozen"]


@pytest.mark.parametrize("bad", [
    {"heads": 3}, {"align_heads": 3}, {"heads": 0}, {"dim": 0},
    # rank caps at min(dim, ffn_dim) // 2: 4 here, 1 with ffn_dim 3
    {"rank": 0}, {"rank": 5}, {"ffn_dim": 3},
    {"n_active": 0}, {"n_active": 8}, {"layers": 0}, {"lookback": 0},
    {"prompt_buckets": 0}, {"variant": "bogus"}, {"router_activation": "bogus"},
    {"pretrain_mode": "bogus"},
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


def test_routing_variants_only():
    routed = {"full", "v1_no_align", "v2_prefix_prompt"}
    for v in VARIANTS:
        m = Forecaster(tiny_cfg(variant=v))
        x = batch(m.cfg)
        _, probs = m.forward_array(x)
        assert len(probs) == (m.cfg.layers if v in routed else 0)
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
    emitted = 0
    emit = T._emit

    def counting_emit(*args):
        nonlocal emitted
        emitted += 1
        return emit(*args)

    monkeypatch.setattr(T, "_emit", counting_emit)
    m.predict(batch(cfg, b=1, n=cfg.channels))
    assert emitted <= 92
    with T.Tape() as tape:
        m.forward_array(batch(cfg, b=cfg.batch_size, n=cfg.channels))
    assert len(tape._records) <= 104


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


def test_collect_routing_stats_merges_batches_exactly():
    # 105 windows in batches of 8 leave a last batch of 1: weighting by batch
    # size must pool them into the stats of one batch of every window
    cfg = tiny_cfg()
    m = Forecaster(cfg)
    view, _, _ = chronological_split(synth_generate("sine_mixture", 2, 120, 0),
                                     SplitSpec(120, 0, 0), cfg.lookback)
    windows = WindowSet(view, cfg.lookback, cfg.horizon)
    whole = m.collect_routing_stats(windows, batch_size=windows.count)
    merged = m.collect_routing_stats(windows, batch_size=8)
    assert merged.samples == whole.samples == windows.count == 105
    np.testing.assert_allclose(merged.f, whole.f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(merged.phat, whole.phat, rtol=0, atol=1e-12)


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
