"""Loss assembly, the AdamW optimizer, and the training loop.

`train` reads its settings (lr, weight_decay, batch_size, epochs,
lambda_lb, loss_kind, seed, patience, clip_norm) from the run's RunConfig,
whose `validate()` holds their bounds; model facts such as the layer count
and `n_active` come from `model.cfg`.

Each step's router probs give its constant (f, p-hat) (`dlora.batch_stats`)
for the balance term and `lb_loss`; the entropy columns merge them with
weight 1 per step, so a shorter last batch counts in full.

The loop is single-threaded and fully deterministic for a given seed:
batch order comes from one seeded generator and parameters update in sorted
name order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import rng
from . import tensor as T
from .config import RunConfig
from .data import DataError
from .dlora import N_MODULES, RoutingStats, batch_stats, load_balance_loss, merge_stats
from .tensor import Tape, Tensor


class NumericError(RuntimeError):
    """Training produced a non-finite loss or gradient norm; carries a diagnostic dump."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    return T.mean(T.square(T.sub(pred, Tensor(target))))


def smape_loss(pred: Tensor, target: np.ndarray, floor: float = 1e-8) -> Tensor:
    """Differentiable symmetric error, 0 on a perfect fit, bounded by 200."""
    y = Tensor(target)
    num = T.absolute(T.sub(pred, y))
    den = T.clamp_min(T.add(T.absolute(pred), T.absolute(y)), floor)
    return T.scale(T.mean(T.div(num, den)), 200.0)


def task_loss(kind: str, pred: Tensor, target: np.ndarray) -> Tensor:
    return mse_loss(pred, target) if kind == "mse" else smape_loss(pred, target)


def total_loss(task: Tensor, probs: list[Tensor], f: np.ndarray, lambda_lb: float) -> Tensor:
    """task + lambda_lb * balance term, or task itself (no op recorded) when unused."""
    if not probs or lambda_lb == 0.0:
        return task
    return T.add(task, T.scale(load_balance_loss(probs, f), lambda_lb))


class AdamW:
    """Decoupled weight decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = {name: p for name, p in sorted(params.items()) if p.requires_grad}
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros(p.size) for name, p in self.params.items()}
        self._v = {name: np.zeros(p.size) for name, p in self.params.items()}
        self._scratch = np.empty((2, max((p.size for p in self.params.values()), default=0)))

    def step(self) -> None:
        self.step_count += 1
        for name, p in self.params.items():
            g = p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size)
            kernels.adamw_update(
                p.data.reshape(-1), np.ascontiguousarray(g),
                self._m[name], self._v[name], self.step_count,
                self.lr, self.beta1, self.beta2, self.eps, self.weight_decay,
                self._scratch,
            )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad * p.grad).sum())
    norm = np.sqrt(sq)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return float(norm)


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_val: float | None = None
    best_epoch: int | None = None
    stopped_early: bool = False
    epochs_run: int = 0
    steps_run: int = 0
    rng_state: dict | None = None  # batch-order generator state at exit


def evaluate_mse(model, windows, batch_size: int = 64) -> float:
    """Mean squared forecast error over every window, no gradient tape."""
    if windows.count < 1:
        raise ValueError("no windows to evaluate")
    total_se = 0.0
    count = 0
    for batch in windows.iter_batches(batch_size):
        pred = model.predict(batch.x)
        total_se += float(((pred - batch.y) ** 2).sum())
        count += batch.y.size
    return total_se / count


def naive_repeat_last_mse(windows, batch_size: int = 64) -> float:
    """Baseline that repeats each window's final observation across the horizon."""
    total_se = 0.0
    count = 0
    for batch in windows.iter_batches(batch_size):
        pred = np.repeat(batch.x[:, :, -1:], batch.y.shape[2], axis=2)
        total_se += float(((pred - batch.y) ** 2).sum())
        count += batch.y.size
    return total_se / count


def _numeric_failure(what: str, epoch: int, step: int, loss: float, task: Tensor,
                     batch, pred: Tensor, lr: float, **extra) -> NumericError:
    """The error for a non-finite `what`, with the step's input and output ranges."""
    return NumericError(
        f"non-finite {what} at epoch {epoch} step {step}",
        diagnostics={
            "epoch": epoch,
            "step": step,
            "loss": loss,
            "task_loss": task.item(),
            "x_min": float(batch.x.min()),
            "x_max": float(batch.x.max()),
            "y_min": float(batch.y.min()),
            "y_max": float(batch.y.max()),
            "pred_min": float(pred.data.min()),
            "pred_max": float(pred.data.max()),
            "lr": lr,
            **extra,
        },
    )


def train(model, train_windows, val_windows, cfg: RunConfig) -> TrainResult:
    """Fit the model's trainable parameters; returns per-epoch history.

    Early stopping watches val MSE with `cfg.patience` and restores
    the best-epoch parameters before returning. With no val windows the
    loop always runs the full epoch budget.
    """
    if train_windows.count < 1:
        raise DataError("training split has no usable windows")
    params = model.trainable()
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    gen = rng.generator(cfg.seed, "batch_order")
    result = TrainResult()
    has_val = val_windows is not None and val_windows.count > 0
    best_snapshot = None
    bad_epochs = 0

    for epoch in range(cfg.epochs):
        order = gen.permutation(train_windows.count)
        epoch_loss = 0.0
        epoch_lb = 0.0
        steps = 0
        routing = []  # each step's (f, phat)
        for batch in train_windows.iter_batches(cfg.batch_size, order):
            with Tape() as tape:
                pred, probs = model.forward_array(batch.x)
                f, phat = batch_stats(probs)
                task = task_loss(cfg.loss_kind, pred, batch.y)
                loss = total_loss(task, probs, f, cfg.lambda_lb)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise _numeric_failure("loss", epoch, steps, loss_val, task,
                                           batch, pred, cfg.lr)
                tape.backward(loss)
            grad_norm = clip_gradients(params, cfg.clip_norm)
            if not np.isfinite(grad_norm):
                raise _numeric_failure("gradient norm", epoch, steps, loss_val, task,
                                       batch, pred, cfg.lr, grad_norm=grad_norm)
            opt.step()
            opt.zero_grad()
            epoch_loss += task.item()
            epoch_lb += float(N_MODULES * (f * phat).sum())
            routing.append((f, phat))
            steps += 1

        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / steps,
            "val_loss": None,
            "lb_loss": epoch_lb / steps,
        }
        if model.uses_routers:
            f, phat = merge_stats(routing, [1] * steps)
            ent = RoutingStats(f=f, phat=phat, samples=train_windows.count,
                               n_active=model.cfg.n_active).entropy_bits()
        else:
            ent = np.zeros(model.cfg.layers)
        row["entropy"] = [float(e) for e in ent]

        if has_val:
            val_mse = evaluate_mse(model, val_windows, batch_size=cfg.batch_size)
            row["val_loss"] = val_mse
            if result.best_val is None or val_mse < result.best_val:
                result.best_val = val_mse
                result.best_epoch = epoch
                best_snapshot = {n: p.data.copy() for n, p in params.items()}
                bad_epochs = 0
            else:
                bad_epochs += 1
        result.history.append(row)
        result.epochs_run = epoch + 1
        if has_val and cfg.patience > 0 and bad_epochs >= cfg.patience:
            result.stopped_early = True
            break

    if best_snapshot is not None:
        for name, p in params.items():
            p.data[...] = best_snapshot[name]
    result.steps_run = opt.step_count
    result.rng_state = rng.state_dict(gen)
    return result


def write_history_csv(result: TrainResult, path, layers: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "train_loss", "val_loss", "lb_loss"]
            + [f"entropy_layer_{i}" for i in range(layers)]
        )
        for row in result.history:
            val = "" if row["val_loss"] is None else repr(row["val_loss"])
            writer.writerow(
                [row["epoch"], repr(row["train_loss"]), val, repr(row["lb_loss"])]
                + [repr(e) for e in row["entropy"]]
            )
