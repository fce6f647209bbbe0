"""Optimizer laws, loss oracles, and training-loop behavior."""

import ctypes
import dataclasses
import platform
import sys
import tracemalloc

import numpy as np
import pytest

from tokencast import training as tr
from tokencast import tensor as T
from tokencast.backbone import pretrain_then_freeze
from tokencast.checkpoint import load_checkpoint, save_checkpoint
from tokencast.config import RunConfig
from tokencast.data import (
    DataError,
    SplitSpec,
    WindowSet,
    chronological_split,
    synth_generate,
)
from tokencast.dlora import batch_stats
from tokencast.model import Forecaster
from tokencast.tensor import Tensor

from helpers import rand, tape_ops
from oracles import LoopAdamW


def tiny_cfg(**kw):
    base = dict(lookback=16, horizon=4, dim=8, layers=2, heads=2, ffn_dim=16,
                align_heads=2, rank=2, n_active=3, prompt_buckets=16,
                prompt_max_tokens=8, seed=5)
    base.update(kw)
    return RunConfig(**base)


def sine_windows(length=240, lookback=16, horizon=4, channels=2, seed=0):
    series = synth_generate("sine_mixture", channels, length, seed)
    tr_view, val_view, _ = chronological_split(
        series, SplitSpec(length - 60, 60, 0), lookback
    )
    return (
        WindowSet(tr_view, lookback, horizon),
        WindowSet(val_view, lookback, horizon),
    )


# ------------------------------------------------------------ loss oracles


def test_mse_loss_hand_value():
    pred = Tensor(np.array([[1.0, 2.0]]))
    assert tr.mse_loss(pred, np.array([[2.0, 2.0]])).item() == pytest.approx(0.5)


def test_smape_loss_hand_value():
    # |1-2|/(1+2) = 1/3, |2-2|/(2+2) = 0; mean 1/6, scaled by 200
    pred = Tensor(np.array([1.0, 2.0]))
    got = tr.smape_loss(pred, np.array([2.0, 2.0])).item()
    assert got == pytest.approx(100.0 / 3.0, abs=1e-9)


def test_smape_loss_symmetric_and_zero_on_perfect():
    a = np.array([1.0, 5.0, -2.0])
    b = np.array([3.0, 4.0, -1.0])
    assert tr.smape_loss(Tensor(a), b).item() == pytest.approx(
        tr.smape_loss(Tensor(b), a).item()
    )
    assert tr.smape_loss(Tensor(a), a).item() == 0.0


def uniform_probs(layers=2, batch=10):
    return [Tensor(np.full((batch, 7), 1 / 7)) for _ in range(layers)]


def test_total_loss_lambda_zero_is_task():
    task = Tensor(np.array(1.5))
    f, _ = batch_stats([])
    assert tr.total_loss(task, [], f, 0.5) is task
    assert tr.total_loss(task, uniform_probs(), np.full((2, 7), 1 / 7), 0.0) is task


def test_total_loss_adds_scaled_balance_term():
    # uniform probs and f give exactly layers=2 -> task + lambda*2
    task = Tensor(np.array(1.5))
    got = tr.total_loss(task, uniform_probs(), np.full((2, 7), 1 / 7), 0.25).item()
    assert got == pytest.approx(1.5 + 0.25 * 2.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_train_step_records_balance_means_only_when_used(monkeypatch, lam):
    # the task loss takes one mean; the balance term adds one per layer, and
    # at lambda_lb = 0 it is not built, so no router mean is recorded
    counts = []

    class CountingTape(T.Tape):
        def backward(self, loss):
            counts.append(tape_ops(self).count("mean"))
            super().backward(loss)

    monkeypatch.setattr(tr, "Tape", CountingTape)
    train_ws, _ = sine_windows()
    m = Forecaster(tiny_cfg())
    tr.train(m, train_ws, None, RunConfig(epochs=1, batch_size=64, seed=0, lambda_lb=lam))
    assert counts and set(counts) == {1 + (m.cfg.layers if lam else 0)}


def test_task_loss_dispatch():
    pred = Tensor(np.array([1.0]))
    y = np.array([2.0])
    assert tr.task_loss("mse", pred, y).item() == pytest.approx(1.0)
    assert tr.task_loss("smape", pred, y).item() == pytest.approx(200.0 / 3.0)


# --------------------------------------------------------------- optimizer


def test_adamw_zero_grad_is_noop_without_decay():
    p = T.parameter(np.array([1.0, -2.0]))
    opt = tr.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_decay_shrinks_without_gradient():
    p = T.parameter(np.array([1.0, -2.0]))
    opt = tr.AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    np.testing.assert_allclose(p.data, [0.95, -1.9], atol=1e-12)


def test_adamw_descends_against_gradient_sign():
    p = T.parameter(np.array([0.0, 0.0]))
    p.grad = np.array([3.0, -3.0])
    tr.AdamW({"p": p}, lr=0.01).step()
    assert p.data[0] < 0 < p.data[1]


def test_adamw_step_allocates_no_array_sized_block():
    p = T.parameter(np.linspace(-1.0, 1.0, 50_000))
    small = T.parameter(np.ones(7))
    desk = Forecaster(RunConfig()).trainable()  # 71 tensors, 86992 values
    for params in ({"p": p, "small": small}, desk):
        opt = tr.AdamW(params, lr=0.1, weight_decay=0.1)
        opt.grad.fill(0.5)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < opt.data.nbytes // 10


def test_adamw_matches_per_tensor_oracle():
    # over 5 steps: grads added into the bound views (as a backward does),
    # assigned from outside, or None; decay on, a frozen tensor, and one
    # tensor longer than CHUNK in a total that is not a multiple of it
    shapes = {"big": (tr.CHUNK + 37,), "w": (5, 3), "none": (4,)}

    def params():
        out = {name: T.parameter(rand(shape, i)) for i, (name, shape) in enumerate(shapes.items())}
        out["frozen"] = Tensor(rand((6,), 9))
        return out

    flat, loop = params(), params()
    opts = [tr.AdamW(flat, lr=1e-2, weight_decay=0.1), LoopAdamW(loop, lr=1e-2, weight_decay=0.1)]
    assert sum(p.size for p in flat.values() if p.requires_grad) % tr.CHUNK != 0
    for step in range(5):
        for ps, opt in zip((flat, loop), opts):
            for name in ("big", "w"):
                g = rand(shapes[name], 10 * step + len(name))
                if step % 2 and ps[name].grad is not None:
                    ps[name].grad += g
                else:
                    ps[name].grad = g
            ps["none"].grad = None
            opt.step()
            opt.zero_grad()
        for name in flat:
            np.testing.assert_array_equal(flat[name].data, loop[name].data, err_msg=name)
    assert "frozen" not in opts[0].params and np.array_equal(flat["frozen"].data, rand((6,), 9))


def test_adamw_binds_every_trainable_to_one_buffer():
    # checkpoint loads read straight into each tensor's C-contiguous buffer
    m = Forecaster(tiny_cfg())
    before = {k: p.data.copy() for k, p in m.trainable().items()}
    opt = tr.AdamW(m.trainable())
    for name, p in m.trainable().items():
        assert p.data.base is opt.data and p.data.flags.c_contiguous, name
        assert p.grad.base is opt.grad and not p.grad.any(), name
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
    assert opt.data.size == sum(p.size for p in before.values())


def test_train_leaves_no_grads_and_round_trips_a_checkpoint(tmp_path):
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    tr.train(m, train_ws, val_ws, RunConfig(lr=1e-2, epochs=2, seed=0))
    assert all(p.grad is None for p in m.named_parameters().values())
    save_checkpoint(tmp_path / "m.ckpt", m)
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    x = val_ws.batch(np.arange(val_ws.count)).x
    np.testing.assert_array_equal(loaded.predict(x), m.predict(x))


@pytest.mark.parametrize("case", ["full", "v3_static_lora", "pretrain", "early_stop"])
def test_train_matches_per_tensor_optimizer(monkeypatch, case):
    # the flat buffers change no bit of a seeded run, pretraining and
    # the early-stop restore included
    def run():
        train_ws, val_ws = sine_windows()
        cfg = tiny_cfg(variant="v3_static_lora" if case == "v3_static_lora" else "full",
                       pretrain_mode="pretrain_then_freeze" if case == "pretrain" else "random_frozen")
        m = Forecaster(cfg)
        if case == "pretrain":
            pretrain_then_freeze(m.backbone, train_ws.view, 16, 4, steps=8, seed=5)
        run_cfg = RunConfig(lr=3e-2, epochs=6, batch_size=16, seed=1, weight_decay=0.01,
                            patience=1 if case == "early_stop" else 0)
        res = tr.train(m, train_ws, val_ws if case == "early_stop" else None, run_cfg)
        return res, {k: p.data.tobytes() for k, p in m.named_parameters().items()}

    flat, flat_params = run()
    monkeypatch.setattr(tr, "AdamW", LoopAdamW)
    loop, loop_params = run()
    assert flat.history == loop.history and flat_params == loop_params
    if case == "early_stop":
        assert flat.stopped_early and flat.best_epoch < flat.epochs_run - 1


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's allocator through the process's minor faults")
def test_training_steps_fault_in_no_new_memory(monkeypatch):
    # after the first epoch, every step's arrays fit in memory that earlier
    # steps freed and the allocator kept, so a step faults in no new pages
    import resource

    cfg = RunConfig(seed=3)
    series = synth_generate("sine_mixture", cfg.channels, 399, 3)
    windows = WindowSet(chronological_split(series, SplitSpec(399, 0, 0), cfg.lookback)[0],
                        cfg.lookback, cfg.horizon)
    assert windows.count == 20 * cfg.batch_size
    faults = []
    step = tr.AdamW.step

    def counted(opt):
        step(opt)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    monkeypatch.setattr(tr.AdamW, "step", counted)
    tr.train(Forecaster(cfg), windows, None, dataclasses.replace(cfg, epochs=3))
    assert len(faults) == 60
    assert (faults[-1] - faults[19]) / 40 < 8


def test_train_runs_the_same_without_mallopt(monkeypatch):
    def run():
        train_ws, val_ws = sine_windows()
        return tr.train(Forecaster(tiny_cfg()), train_ws, val_ws,
                        RunConfig(lr=1e-2, epochs=2, seed=0)).history

    opened = []

    def no_mallopt(name, *args, **kwargs):
        opened.append(name)
        return object()

    # keep_freed_memory acts once per process; clearing its cache makes it act again
    tr.keep_freed_memory.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(ctypes, "CDLL", no_mallopt)
            without = run()
        assert opened == [None]
        tr.keep_freed_memory.cache_clear()
        assert run() == without
    finally:
        tr.keep_freed_memory.cache_clear()


def test_adamw_skips_frozen_params():
    p = T.parameter(np.array([1.0]))
    frozen = Tensor(np.array([1.0]))
    opt = tr.AdamW({"p": p, "frozen": frozen}, lr=0.1, weight_decay=0.5)
    opt.step()
    assert frozen.data[0] == 1.0 and p.data[0] != 1.0


def test_off_path_router_gets_no_grad_and_step_matches_zero_grads():
    # at lambda_lb = 0 the routers feed only constant gates and the unused
    # balance statistics, so their weights are off the loss path
    train_ws, _ = sine_windows()
    batch = train_ws.batch(np.arange(8))

    def step(fill_zeros):
        m = Forecaster(tiny_cfg())
        params = m.trainable()
        with T.Tape() as tape:
            pred, probs = m.forward_array(batch.x)
            f, _ = batch_stats(probs)
            tape.backward(tr.total_loss(tr.task_loss("mse", pred, batch.y), probs, f, 0.0))
        assert all(r.weight.grad is None for r in m.routers)
        if fill_zeros:
            for p in params.values():
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
        tr.clip_gradients(params, 5.0)
        tr.AdamW(params, lr=1e-2, weight_decay=0.1).step()
        return {k: p.data.copy() for k, p in params.items()}

    left, right = step(False), step(True)
    for k in left:
        np.testing.assert_array_equal(left[k], right[k], err_msg=k)


def test_clip_reports_norm_and_rescales():
    a = T.parameter(np.zeros(1)); a.grad = np.array([3.0])
    b = T.parameter(np.zeros(1)); b.grad = np.array([4.0])
    norm = tr.clip_gradients({"a": a, "b": b}, max_norm=2.5)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(a.grad, [1.5])
    np.testing.assert_allclose(b.grad, [2.0])
    total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert total == pytest.approx(2.5)


def test_clip_leaves_small_gradients_alone():
    a = T.parameter(np.zeros(1)); a.grad = np.array([0.3])
    norm = tr.clip_gradients({"a": a}, max_norm=5.0)
    assert norm == pytest.approx(0.3)
    np.testing.assert_array_equal(a.grad, [0.3])


# ----------------------------------------------------------- training loop


def test_naive_baseline_hand_value():
    series = synth_generate("sine_mixture", 1, 100, 0)
    series.values.setflags(write=True)
    series.values[:4, 0] = [1.0, 2.0, 3.0, 5.0]
    series.values.setflags(write=False)
    view, _, _ = chronological_split(series, SplitSpec(4, 0, 0), lookback=2)
    ws = WindowSet(view, lookback=2, horizon=2)
    assert ws.count == 1
    # repeats 2 over horizon [3, 5]: ((2-3)^2 + (2-5)^2) / 2
    assert tr.naive_repeat_last_mse(ws) == pytest.approx(5.0)


def test_scoring_an_empty_window_set_is_a_data_error():
    view, _, _ = chronological_split(synth_generate("sine_mixture", 2, 19, 0),
                                     SplitSpec(19, 0, 0), lookback=16)
    ws = WindowSet(view, lookback=16, horizon=4)
    assert ws.count == 0
    with pytest.raises(DataError, match="no evaluation windows"):
        tr.evaluate_mse(Forecaster(tiny_cfg()), ws)
    with pytest.raises(DataError, match="no evaluation windows"):
        tr.naive_repeat_last_mse(ws)


def test_training_reduces_loss_on_sine():
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    cfg = RunConfig(lr=3e-3, epochs=4, batch_size=16, seed=1, patience=0)
    result = tr.train(m, train_ws, val_ws, cfg)
    assert result.epochs_run == 4
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
    assert all(len(r["entropy"]) == 2 for r in result.history)


def test_training_is_deterministic():
    def run():
        train_ws, val_ws = sine_windows()
        m = Forecaster(tiny_cfg())
        cfg = RunConfig(lr=3e-3, epochs=2, batch_size=16, seed=1)
        res = tr.train(m, train_ws, val_ws, cfg)
        return res, {k: p.data.copy() for k, p in m.named_parameters().items()}

    r1, p1 = run()
    r2, p2 = run()
    assert r1.history == r2.history
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_training_never_touches_frozen_backbone():
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    before = m.backbone.checksum()
    tr.train(m, train_ws, val_ws, RunConfig(lr=1e-2, epochs=2, seed=0))
    assert m.backbone.checksum() == before


def test_early_stopping_law(monkeypatch):
    # scripted val curve: best at epoch 1, then three worse epochs -> stop at 5
    schedule = iter([1.0, 0.5, 0.6, 0.7, 0.8, 0.4])
    monkeypatch.setattr(tr, "evaluate_mse", lambda *a, **k: next(schedule))
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    cfg = RunConfig(lr=1e-3, epochs=10, seed=0, patience=3)
    result = tr.train(m, train_ws, val_ws, cfg)
    assert result.stopped_early
    assert result.epochs_run == 5
    assert result.best_epoch == 1
    assert result.best_val == 0.5


def test_best_epoch_parameters_restored(monkeypatch):
    recorded = []

    def spy(model, windows, batch_size=64):
        recorded.append({k: p.data.copy() for k, p in model.trainable().items()})
        return [0.3, 1.0, 1.0][len(recorded) - 1]

    monkeypatch.setattr(tr, "evaluate_mse", spy)
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    tr.train(m, train_ws, val_ws, RunConfig(lr=1e-2, epochs=3, seed=0, patience=5))
    final = m.trainable()
    for k, snap in recorded[0].items():
        np.testing.assert_array_equal(final[k].data, snap)


def test_nan_loss_aborts_with_diagnostics():
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    m.head.bias.data[:] = np.nan
    with pytest.raises(tr.NumericError) as exc:
        tr.train(m, train_ws, val_ws, RunConfig(epochs=1, seed=0))
    diag = exc.value.diagnostics
    assert diag["epoch"] == 0 and diag["step"] == 0
    assert not np.isfinite(diag["loss"])
    for key in ("x_min", "x_max", "y_min", "y_max", "pred_min", "pred_max", "lr"):
        assert key in diag


def test_empty_training_split_rejected():
    series = synth_generate("sine_mixture", 1, 30, 0)
    view, _, _ = chronological_split(series, SplitSpec(10, 0, 0), lookback=16)
    ws = WindowSet(view, lookback=16, horizon=4)
    assert ws.count == 0
    m = Forecaster(tiny_cfg())
    with pytest.raises(DataError, match="no usable windows"):
        tr.train(m, ws, None, RunConfig(epochs=1))


def test_balance_penalty_raises_routing_entropy():
    # start from deliberately peaked routers: the penalty is the only
    # gradient path into them, so lam=0 stays put while a strong penalty
    # must spread the routing back out
    def final_entropy(lam):
        train_ws, val_ws = sine_windows()
        m = Forecaster(tiny_cfg(seed=9))
        for router in m.routers:
            router.weight.data *= 60.0
        cfg = RunConfig(lr=5e-3, epochs=3, seed=2, lambda_lb=lam, patience=0)
        res = tr.train(m, train_ws, val_ws, cfg)
        return float(np.mean(res.history[-1]["entropy"]))

    peaked = final_entropy(0.0)
    spread = final_entropy(10.0)
    assert peaked < 2.7  # scaling really did concentrate the routing
    assert spread > peaked + 0.01


def test_smape_training_runs():
    train_ws, val_ws = sine_windows()
    m = Forecaster(tiny_cfg())
    cfg = RunConfig(lr=3e-3, epochs=2, loss_kind="smape", seed=3)
    res = tr.train(m, train_ws, val_ws, cfg)
    assert res.epochs_run == 2
    assert np.isfinite(res.history[-1]["train_loss"])


def test_history_csv_roundtrip(tmp_path):
    result = tr.TrainResult(history=[
        {"epoch": 0, "train_loss": 0.5, "val_loss": 0.25, "lb_loss": 2.0,
         "entropy": [2.8, 2.7]},
        {"epoch": 1, "train_loss": 0.4, "val_loss": None, "lb_loss": 1.9,
         "entropy": [2.6, 2.5]},
    ])
    path = tmp_path / "history.csv"
    tr.write_history_csv(result, path, layers=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lb_loss,entropy_layer_0,entropy_layer_1"
    assert lines[1].split(",") == ["0", "0.5", "0.25", "2.0", "2.8", "2.7"]
    assert lines[2].split(",")[2] == ""  # missing val stays blank
