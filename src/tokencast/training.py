"""Loss assembly, the AdamW optimizer, and the training loop.

`train` reads its settings (lr, weight_decay, batch_size, epochs,
lambda_lb, loss_kind, seed, patience, clip_norm) from the run's RunConfig,
whose `validate()` holds their bounds; model facts such as the layer count
and `n_active` come from `model.cfg`.

Each step's router probs give its constant (f, p-hat) (`dlora.batch_stats`)
for the balance term and `lb_loss`; the entropy columns merge them with
weight 1 per step, so a shorter last batch counts in full.

The loop is single-threaded and fully deterministic for a given seed:
batch order comes from one seeded generator, and AdamW updates each value
by the textbook formula however its flat buffers are sliced. The early-stop
snapshot is one copy of AdamW's value buffer; `train` returns with every
trainable's grad None, which frees its grad buffer.

`train` frees and allocates the same array sizes step after step, so it
first calls `keep_freed_memory`. That asks glibc's allocator to serve
every array below 32 MiB from the heap and not to hand the heap's top
back to the kernel, for the rest of the process. Otherwise a step's
activations went back to the kernel when it ended, and the next step
faulted the same pages in again: about 28K minor faults (111 MiB) and 6%
of a main_text train step. No value changes; where `mallopt` does not
exist (not glibc) the call does nothing.

`evaluate` is the one scoring loop, for validation, test, the naive
baseline, `eval` and routing_stats.json. It sums squared errors batch by
batch, so its batch size enters the last bits of each mse.
"""

from __future__ import annotations

import csv
import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import rng
from . import tensor as T
from .config import RunConfig
from .data import DataError
from .dlora import N_MODULES, RoutingStats, batch_stats, load_balance_loss, merge_stats
from .tensor import Tape, Tensor

DIVERGENCE_FACTOR = 1e6  # the divergence guard's factor; `train` says what it multiplies
CHUNK = 1 << 14  # elements per `kernels.adamw_update` call: AdamW's scratch is (2, CHUNK)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt(3) parameters, from glibc's malloc.h
MMAP_THRESHOLD = 32 << 20  # glibc's own ceiling for its dynamic threshold on 64-bit
TRIM_THRESHOLD = 1 << 30  # above any step's freed footprint


@functools.cache
def keep_freed_memory() -> None:
    """Have glibc keep the heap memory this process frees (module docstring)."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to open by name None
        return
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class NumericError(RuntimeError):
    """A non-finite or diverging loss, a non-finite gradient norm, validation
    mse or prediction; carries a diagnostic dump."""

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


def flat_views(buffer: np.ndarray, tensors):
    """Consecutive C-contiguous views of a flat buffer, one shaped like each tensor."""
    start = 0
    for t in tensors:
        yield buffer[start:start + t.size].reshape(t.shape)
        start += t.size


class AdamW:
    """Decoupled weight decay Adam over a named parameter dict.

    The trainable tensors' values, grads and both moments each live in one
    flat float64 buffer (`data`, `grad`, and the moments), laid out in sorted
    name order. Construction copies each tensor's values (and any grad it
    holds) in and rebinds its `data` and `grad` to C-contiguous views of the
    buffers, so a backward pass accumulates straight into the grad buffer
    and a step updates every tensor in a few `kernels.adamw_update` calls
    over CHUNK-element slices.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = {name: p for name, p in sorted(params.items()) if p.requires_grad}
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        total = sum(p.size for p in self.params.values())
        self.data = np.empty(total)
        self.grad = np.zeros(total)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._scratch = np.empty((2, min(CHUNK, total)))
        self._grads = []  # each tensor's view of the grad buffer
        params = list(self.params.values())
        for p, data, grad in zip(params, flat_views(self.data, params),
                                 flat_views(self.grad, params)):
            data[...] = p.data
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = data, grad
            self._grads.append(grad)

    def step(self) -> None:
        """Update every tensor from its grad; a grad None counts as zeros.

        A grad a caller assigned in place of the tensor's view is copied into
        the view first.
        """
        self.step_count += 1
        for p, grad in zip(self.params.values(), self._grads):
            if p.grad is not grad:
                if p.grad is None:
                    grad.fill(0.0)
                else:
                    grad[...] = p.grad
        for start in range(0, self.data.size, CHUNK):
            end = start + CHUNK
            kernels.adamw_update(
                self.data[start:end], self.grad[start:end],
                self._m[start:end], self._v[start:end], self.step_count,
                self.lr, self.beta1, self.beta2, self.eps, self.weight_decay,
                self._scratch,
            )

    def zero_grad(self) -> None:
        """Zero the grad buffer and bind every tensor's grad to its view again."""
        self.grad.fill(0.0)
        for p, grad in zip(self.params.values(), self._grads):
            if p.grad is not grad:
                p.grad = grad


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


EVAL_BATCH = 64  # windows per forward when scoring a split


def evaluate(forward, windows, batch_size: int = EVAL_BATCH) -> tuple[float, np.ndarray, list]:
    """The mse of `forward` over every window, its stacked (windows, C, horizon)
    forecasts and each batch's probs; `forward` maps a (B, C, lookback) batch
    to (forecast Tensor, router probs), as `Forecaster.forward_array` does."""
    if windows.count < 1:
        raise DataError("no evaluation windows; split is too short")
    total_se = 0.0
    count = 0
    preds, probs = [], []
    for batch in windows.iter_batches(batch_size):
        pred, batch_probs = forward(batch.x)
        total_se += float(((pred.data - batch.y) ** 2).sum())
        count += batch.y.size
        preds.append(pred.data)
        probs.append(batch_probs)
    return total_se / count, np.concatenate(preds), probs


def evaluate_mse(model, windows, batch_size: int = EVAL_BATCH) -> float:
    """Mean squared forecast error over every window, no gradient tape."""
    return evaluate(model.forward_array, windows, batch_size)[0]


def naive_repeat_last_mse(windows, batch_size: int = EVAL_BATCH) -> float:
    """Baseline that repeats each window's final observation across the horizon."""
    def repeat_last(x):
        return Tensor(np.repeat(x[:, :, -1:], windows.horizon, axis=2)), []
    return evaluate(repeat_last, windows, batch_size)[0]


def _numeric_failure(what: str, epoch: int, step: int, loss: float, task: Tensor,
                     batch, pred: Tensor, lr: float, **extra) -> NumericError:
    """The error for a failed guard, with the step's input and output ranges."""
    return NumericError(
        f"{what} at epoch {epoch} step {step}",
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
    loop always runs the full epoch budget. A finite step loss above
    DIVERGENCE_FACTOR times the larger of the first step's loss and the
    training split's mean square (the mse of predicting 0) is diverging
    and raises NumericError; so does a non-finite val MSE, which a finite
    but huge validation truth, such as 1e308, gives.

    The first call sets glibc's allocator, for the rest of the process, to
    keep the heap memory it frees (`keep_freed_memory`): a process that
    trains and goes on running holds its peak heap instead of returning
    it, up to about 4% more RSS on a desk pretraining run.
    """
    if train_windows.count < 1:
        raise DataError("training split has no usable windows")
    keep_freed_memory()
    params = model.trainable()
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    gen = rng.generator(cfg.seed, "batch_order")
    result = TrainResult()
    has_val = val_windows is not None and val_windows.count > 0
    best_snapshot = None
    bad_epochs = 0
    loss_limit = None  # set at the first step, floored by the split's scale
    split_mean_square = float(np.mean(np.square(train_windows.view.array)))

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
                    raise _numeric_failure("non-finite loss", epoch, steps, loss_val, task,
                                           batch, pred, cfg.lr)
                if loss_limit is None:
                    loss_limit = DIVERGENCE_FACTOR * max(loss_val, split_mean_square)
                elif loss_val > loss_limit:
                    raise _numeric_failure("diverging loss", epoch, steps, loss_val, task,
                                           batch, pred, cfg.lr, loss_limit=loss_limit)
                tape.backward(loss)
            grad_norm = clip_gradients(params, cfg.clip_norm)
            if not np.isfinite(grad_norm):
                raise _numeric_failure("non-finite gradient norm", epoch, steps, loss_val,
                                       task, batch, pred, cfg.lr, grad_norm=grad_norm)
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
            if not np.isfinite(val_mse):
                y = val_windows.view.array
                raise NumericError(f"non-finite validation mse at epoch {epoch}", diagnostics={
                    "epoch": epoch, "val_mse": val_mse,
                    "y_min": float(y.min()), "y_max": float(y.max()),
                })
            row["val_loss"] = val_mse
            if result.best_val is None or val_mse < result.best_val:
                result.best_val = val_mse
                result.best_epoch = epoch
                best_snapshot = opt.data.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
        result.history.append(row)
        result.epochs_run = epoch + 1
        if has_val and cfg.patience > 0 and bad_epochs >= cfg.patience:
            result.stopped_early = True
            break

    if best_snapshot is not None:
        np.copyto(opt.data, best_snapshot)
    for p in params.values():
        p.grad = None  # releases the grad buffer
    result.steps_run = opt.step_count
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
