"""Acceptance gate: ten criteria, one test each, in order.

Every test finishes by printing a single PASS line with the measured
quantity so a `pytest tests/test_acceptance.py -v -s` run reads as a
checklist. Failures surface as ordinary assertion errors.
"""

import json
import time

import numpy as np

from tokencast import cli, rng, training
from tokencast import tensor as T
from tokencast.backbone import Backbone, module_dims
from tokencast.config import RunConfig, build_config
from tokencast.data import DataError, SeriesView, few_shot_subset, synth_generate
from tokencast.dlora import (
    MODULE_NAMES,
    N_MODULES,
    LoraAdapter,
    RoutingStats,
    apply,
    batch_stats,
    load_balance_loss,
    top_n_gates_rows,
)
from tokencast.metrics import build_report, mae, mape, mase, mse, smape
from tokencast.model import Forecaster
from tokencast.tensor import Tensor

import oracles as O
from helpers import assert_grads_match, finite_difference


def ok(num: int, detail: str) -> None:
    print(f"[PASS] criterion {num}: {detail}")


def tiny_cfg(**kw) -> RunConfig:
    base = dict(lookback=12, horizon=4, dim=8, layers=2, heads=2, ffn_dim=16,
                align_heads=2, rank=2, n_active=3, prompt_buckets=16,
                prompt_max_tokens=8, seed=5)
    base.update(kw)
    return RunConfig(**base).validate()


# ------------------------------------------------------- 1: gradient suite


def test_criterion_01_gradient_suite():
    start = time.time()
    g = np.random.Generator(np.random.PCG64(41))

    def p(shape, scale=1.0):
        return T.parameter(g.normal(size=shape) * scale)

    # one loss builder per differentiable op; each closes over fresh params
    a, b = p((2, 3)), p((3,))
    c = p((2, 3), 0.5)
    d = p((2, 3))
    d.data[...] = np.abs(d.data) + 0.5  # keep div well conditioned
    m1, m2 = p((2, 4)), p((4, 3))
    rows = p((5, 3))
    t1, t2 = p((2, 2)), p((3, 2))
    sq = p((2, 3))
    w = p((4,))
    x4 = p((3, 4))
    cases = [
        ("add", [a, b], lambda: T.total(T.add(a, b))),
        ("sub", [a, b], lambda: T.total(T.sub(a, b))),
        ("mul", [a, c], lambda: T.total(T.mul(a, c))),
        ("div", [a, d], lambda: T.total(T.div(a, d))),
        ("scale", [a], lambda: T.total(T.scale(a, 1.7))),
        ("silu", [a], lambda: T.total(T.silu(a))),
        ("tanh", [a], lambda: T.total(O.tanh(a))),
        ("square", [a], lambda: T.total(T.square(a))),
        ("absolute", [c], lambda: T.total(T.absolute(c))),
        ("clamp_min", [c], lambda: T.total(T.clamp_min(c, 0.1))),
        ("mean", [a], lambda: T.total(T.square(T.mean(a, axis=1)))),
        ("matmul", [m1, m2], lambda: T.total(T.matmul(m1, m2))),
        ("take_rows", [rows],
         lambda: T.total(T.take_rows(rows, np.array([0, 2, 2, 4])))),
        ("concat", [t1, t2],
         lambda: T.total(T.square(T.concat([t1, t2], axis=0)))),
        ("transpose", [sq], lambda: T.total(T.matmul(O.transpose(sq), sq))),
        ("reshape", [sq], lambda: T.total(T.square(O.reshape(sq, (3, 2))))),
        ("slice", [rows], lambda: T.total(T.square(rows[1:4, :2]))),
        ("softmax", [a], lambda: T.total(T.mul(O.softmax(a, axis=-1), c))),
        ("rmsnorm", [x4, w], lambda: T.total(T.square(O.rmsnorm(x4, w)))),
    ]
    for name, params, build in cases:
        assert_grads_match(build, params, rtol=1e-5, atol=1e-7)

    # composed model: embed -> align -> 2 adapted blocks -> project,
    # loss = mse + 0.01 * balance penalty, checked at 1e-4
    cfg = tiny_cfg(seed=11)
    model = Forecaster(cfg)
    gen = np.random.Generator(np.random.PCG64(97))
    # zero-initialized output factors gate gradient flow off; nudge them
    model.cross.wo.data[...] = gen.normal(size=model.cross.wo.data.shape) * 0.05
    for key, tensor in model.trainable().items():
        if key.endswith(".up"):
            tensor.data[...] = gen.normal(size=tensor.data.shape) * 0.05
    x = gen.normal(size=(2, 2, cfg.lookback)) + 3.0
    y = gen.normal(size=(2, 2, cfg.horizon))
    lam = 0.01

    def scalar():
        pred, probs = model.forward_array(x)
        err = T.mean(T.square(T.sub(pred, Tensor(y))))
        return T.add(err, T.scale(load_balance_loss(probs, batch_stats(probs)[0]), lam)).item()

    params = model.trainable()
    for tensor in params.values():
        tensor.zero_grad()
    with T.Tape() as tape:
        pred, probs = model.forward_array(x)
        err = T.mean(T.square(T.sub(pred, Tensor(y))))
        tape.backward(T.add(err, T.scale(load_balance_loss(probs, batch_stats(probs)[0]), lam)))

    checked = 0
    for name in sorted(params):
        tensor = params[name]
        analytic = tensor.grad.copy() if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = finite_difference(scalar, [tensor.data], h=1e-5)[0]
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-4, atol=1e-7,
            err_msg=f"composed gradient mismatch at {name}",
        )
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    ok(1, f"{len(cases)} ops at 1e-5 and {checked} composed tensors at 1e-4 "
          f"in {elapsed:.1f}s")


# ------------------------------------------------------------ 2: gate laws


def test_criterion_02_gate_laws():
    cfg = tiny_cfg(seed=3)
    bb = Backbone(cfg)
    gen = np.random.Generator(np.random.PCG64(21))
    dims = module_dims(cfg)
    adapters = [
        {name: LoraAdapter(d_in, d_out, 2, gen)
         for name, (d_in, d_out) in dims.items()}
        for _ in range(cfg.layers)
    ]
    h = Tensor(gen.normal(size=(3, 5, cfg.dim)))
    base = bb.forward(h)

    # all-zero gates: adapted forward must equal the frozen base forward
    for layer in adapters:
        for ad in layer.values():
            ad.up.data[...] = gen.normal(size=ad.up.data.shape)  # live adapters
    gated = bb.forward(h, adapters, lambda layer, state: dict.fromkeys(dims, 0.0))
    gap_gates = float(np.abs(gated.data - base.data).max())
    assert gap_gates <= 1e-12

    # zero second factor: open gates still contribute exactly nothing
    for layer in adapters:
        for ad in layer.values():
            ad.up.data[...] = 0.0
    zeroed = bb.forward(h, adapters, lambda layer, state: dict.fromkeys(dims, 1.0))
    gap_up = float(np.abs(zeroed.data - base.data).max())
    assert gap_up <= 1e-12

    # rank-1 hand example: x=[2,3], W=I, correction is [0, x0] -> [2, 5]
    ad = LoraAdapter(2, 2, 1, gen)
    ad.down.data[...] = [[1.0], [0.0]]
    ad.up.data[...] = [[0.0, 1.0]]
    out, _, _ = apply(np.array([[2.0, 3.0]]), np.eye(2), None, ad, 1.0)
    np.testing.assert_array_equal(out, [[2.0, 5.0]])
    ok(2, f"closed-gate gap {gap_gates:.1e}, zero-factor gap {gap_up:.1e}, "
          f"rank-1 example exact")


# ---------------------------------------------------------- 3: router laws


def test_criterion_03_router_laws():
    g = np.random.Generator(np.random.PCG64(33))
    logits = g.normal(size=(1000, N_MODULES)) * 2.0
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    for n in range(1, N_MODULES + 1):
        gates = top_n_gates_rows(probs, n)
        assert np.all(gates.sum(axis=1) == n)
        if n < N_MODULES:
            # dominance: every kept module beats every dropped one
            kept = np.where(gates == 1.0, probs, np.inf).min(axis=1)
            dropped = np.where(gates == 0.0, probs, -np.inf).max(axis=1)
            assert np.all(kept >= dropped)
    uniform = np.full((1, N_MODULES), 1.0 / N_MODULES)
    for n in range(1, N_MODULES + 1):
        gates = top_n_gates_rows(uniform, n)
        np.testing.assert_array_equal(np.flatnonzero(gates), np.arange(n))
    ok(3, f"exactly-n and dominance on 1000 vectors for n in 1..{N_MODULES}, "
          f"uniform ties open lowest indices")


# ------------------------------------------------- 4: balance closed forms


def test_criterion_04_load_balance_closed_forms():
    for layers in (1, 4):
        uniform = [Tensor(np.full((1, N_MODULES), 1.0 / N_MODULES)) for _ in range(layers)]
        f = np.full((layers, N_MODULES), 1.0 / N_MODULES)
        val = load_balance_loss(uniform, f).item()
        assert abs(val - layers) <= 1e-10

        onehot = np.zeros((layers, N_MODULES))
        onehot[:, 0] = 1.0
        collapsed = [Tensor(row[None, :]) for row in onehot]
        val = load_balance_loss(collapsed, onehot).item()
        assert abs(val - N_MODULES * layers) <= 1e-10

    # same collapse with f read off raw probability rows
    rows = [Tensor(np.tile(np.eye(N_MODULES)[0], (8, 1))) for _ in range(3)]
    f, _ = batch_stats(rows)
    assert abs(load_balance_loss(rows, f).item() - N_MODULES * 3) <= 1e-10
    ok(4, f"uniform = L and collapsed = {N_MODULES}L within 1e-10")


# --------------------------------------------------------- 5: metric oracles


def test_criterion_05_metric_oracles():
    y = np.array([1.0, 2.0])
    y_hat = np.array([2.0, 2.0])
    assert abs(mse(y, y_hat) - 0.5) <= 1e-9
    assert abs(mae(y, y_hat) - 0.5) <= 1e-9
    assert abs(smape(y, y_hat) - 100.0 / 3.0) <= 1e-9
    assert abs(mape(y, y_hat) - 50.0) <= 1e-9
    assert abs(mase(np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0, 1.0]), s=1)
               - 2.0 / 3.0) <= 1e-9

    rng_ = np.random.Generator(np.random.PCG64(5))
    truth = rng_.normal(size=(4, 2, 6)) + 5.0
    naive = truth + rng_.normal(scale=0.5, size=truth.shape)
    as_baseline = build_report(truth, naive, seasonality=2, naive_pred=naive)
    assert abs(as_baseline.aggregate["owa"] - 1.0) <= 1e-9

    perfect = build_report(truth, truth.copy(), seasonality=2, naive_pred=naive)
    for name in ("mse", "mae", "smape", "mape", "mase", "owa"):
        assert abs(perfect.aggregate[name]) <= 1e-9
    ok(5, "hand values, owa(baseline) = 1, and zeros on perfect forecasts "
          "all within 1e-9")


# ------------------------------------------------------- 6: E2E-1 learning


def test_criterion_06_end_to_end_learning():
    start = time.time()
    cfg = build_config(overrides={"seed": "7"})  # desk defaults, 20 epochs max
    assert (cfg.length, cfg.lookback, cfg.horizon) == (2000, 64, 16)
    assert (cfg.layers, cfg.dim, cfg.n_active, cfg.rank) == (4, 64, 4, 8)
    assert cfg.channels == 3 and cfg.noise == 0.0
    _, views, windows = cli.prepare_data(cfg)
    model = cli.build_model(cfg, views[0])
    result = training.train(model, windows[0], windows[1], cfg)
    assert result.epochs_run <= 20
    test_mse = training.evaluate_mse(model, windows[2])
    naive_mse = training.naive_repeat_last_mse(windows[2])
    elapsed = time.time() - start
    assert test_mse <= 0.7 * naive_mse, (
        f"test mse {test_mse:.6f} not 30% below naive {naive_mse:.6f}"
    )
    assert elapsed < 180.0, f"E2E-1 took {elapsed:.1f}s"
    ok(6, f"test mse {test_mse:.2e} vs naive {naive_mse:.3f} "
          f"({100 * (1 - test_mse / naive_mse):.1f}% better) after "
          f"{result.epochs_run} epochs in {elapsed:.0f}s")


# ------------------------------------------------- 7: E2E-2 ablation order


def test_criterion_07_ablation_ordering():
    wins, detail = 0, []
    for seed in (7, 8, 9):
        scores = {}
        for variant in ("full", "v4_frozen"):
            cfg = build_config(overrides={
                "seed": str(seed), "epochs": "6", "variant": variant,
            })
            _, views, windows = cli.prepare_data(cfg)
            model = cli.build_model(cfg, views[0])
            training.train(model, windows[0], windows[1], cfg)
            scores[variant] = training.evaluate_mse(model, windows[2])
        wins += scores["v4_frozen"] >= scores["full"]
        detail.append(f"seed {seed}: full {scores['full']:.2e} "
                      f"vs frozen {scores['v4_frozen']:.2e}")
    assert wins >= 2, f"frozen variant beat full on {3 - wins}/3 seeds: {detail}"
    ok(7, f"frozen >= full on {wins}/3 seeds ({'; '.join(detail)})")


# ------------------------------------------- 8: determinism & persistence


def test_criterion_08_determinism_and_persistence(tmp_path):
    from tokencast.checkpoint import load_checkpoint, save_checkpoint

    cfg = tiny_cfg(seed=5, variant="full")
    series = synth_generate("sine_mixture", channels=2, length=240, seed=9)
    view = SeriesView(series, 0, 200)
    val_view = SeriesView(series, 200, 240)
    from tokencast.data import WindowSet

    train_w = WindowSet(view, cfg.lookback, cfg.horizon)
    val_w = WindowSet(val_view, cfg.lookback, cfg.horizon)
    tc = RunConfig(epochs=3, seed=5, batch_size=8)

    histories = []
    models = []
    for _ in range(2):
        model = Forecaster(cfg)
        result = training.train(model, train_w, val_w, tc)
        histories.append(result.history)
        models.append(model)
    assert histories[0] == histories[1]  # bit-identical loss history

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, models[0], step=12, prng_state={"note": "acceptance"})
    restored, meta = load_checkpoint(path)
    x = np.random.Generator(np.random.PCG64(77)).normal(size=(4, 2, cfg.lookback))
    np.testing.assert_array_equal(models[0].predict(x), restored.predict(x))
    assert meta["step"] == 12
    ok(8, "two seeded runs match epoch-for-epoch and the checkpoint round "
          "trip is bit-identical")


# ----------------------------------------------------- 9: few-shot protocol


def test_criterion_09_few_shot_protocol():
    series = synth_generate("sine_mixture", channels=1, length=9000, seed=1)
    train_view = SeriesView(series, 0, 8545)
    subset = few_shot_subset(train_view, 0.05)
    assert subset.length == 427

    short = SeriesView(series, 0, 50)
    try:
        few_shot_subset(short, 0.05, lookback=64, horizon=16)
        raise AssertionError("insufficiency error did not trigger")
    except DataError as exc:
        assert "insufficient few-shot data" in str(exc)
    ok(9, "floor(8545 * 0.05) = 427 rows kept and the too-short case raises")


# ------------------------------------------------ 10: routing distribution


def test_criterion_10_routing_distribution_export(tmp_path):
    cfg = tiny_cfg(seed=4, n_active=2)
    model = Forecaster(cfg)
    x = np.random.Generator(np.random.PCG64(6)).normal(size=(16, 3, cfg.lookback))
    _, probs = model.forward_array(x)
    f, phat = batch_stats(probs)
    payload = RoutingStats(f=f, phat=phat, samples=16, n_active=2).to_json_dict()
    for layer in payload["layers"]:
        assert abs(sum(layer["frequency"].values()) - 1.0) <= 1e-10
        assert set(layer["frequency"]) == set(MODULE_NAMES)

    out = tmp_path / "sweep"
    code = cli.main([
        "sweep-n", "--length", "260", "--lookback", "16", "--horizon", "4",
        "--dim", "8", "--layers", "2", "--heads", "2", "--ffn-dim", "16",
        "--align-heads", "2", "--rank", "2", "--prompt-buckets", "16",
        "--epochs", "1", "--n-values", "1,7", "--out", str(out),
    ])
    assert code == 0
    checked = 0
    for n in (1, 7):
        exported = json.loads((out / f"routing_n{n}.json").read_text())
        assert exported["n_active"] == n
        for layer in exported["layers"]:
            assert abs(sum(layer["frequency"].values()) - 1.0) <= 1e-10
            checked += 1
    ok(10, f"per-layer frequencies sum to 1 within 1e-10 in live stats and "
           f"{checked} exported sweep layers")
