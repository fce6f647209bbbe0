"""Low-rank adapters with per-sample top-n routing over the seven linears.

Every block linear can carry an adapter: x' = x W + ((x A) g) B, with
g a binary gate chosen per sample by that layer's router and applied to the
rank-r intermediate x A, so a closed gate zeroes r columns, not d_out. The
product A B is never materialized; the delta is one tape op
(`tensor.lora_linear`) of two thin matmuls, added in place into the base
product x W, which never escapes it. A router is one tape op too
(`tensor.router_probs`): it pools each sample's last token, squashes it,
projects it onto the modules and takes the softmax.
The forward's list of router outputs is a batch's one routing record:
`batch_stats` reads constant (f, p-hat) off it, and `load_balance_loss`
records the mean probabilities it needs. Gates are constants to the tape,
so router weights learn only through that balance term.

Adapters and routers take their shapes from a RunConfig that `Forecaster`
has already validated (rank within min(dim, ffn_dim) // 2, n_active within
[1, 7], a known router activation), so they do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from . import tensor as T
from .tensor import Tensor

MODULE_NAMES = ("q_proj", "k_proj", "v_proj", "o_proj", "gate_proj", "up_proj", "down_proj")
N_MODULES = len(MODULE_NAMES)
ADAPTER_INIT_STD = 0.02
ROUTER_INIT_STD = 0.02


class LoraAdapter:
    """Rank-r factors for one linear: down (d_in, r) Gaussian, up (r, d_out) zero."""

    def __init__(self, d_in: int, d_out: int, r: int, gen: np.random.Generator):
        self.down = T.parameter(rng.gaussian(gen, (d_in, r), ADAPTER_INIT_STD))
        self.up = T.parameter(np.zeros((r, d_out)))


def apply(x: Tensor, weight: Tensor, bias: Tensor | None,
          adapter: LoraAdapter | None, gate) -> Tensor:
    """Adapted linear map: x W + ((x A) g) B, plus b when a bias is given.

    `gate` is None (no adapter path) or a 0/1 constant that broadcasts from
    the leading axes of x: a scalar or one value per sample. An all-closed
    gate skips the adapter; an all-open one skips the gate product. Any open
    gate records the base matmul and one `lora_linear` delta op.
    """
    mask = None if adapter is None or gate is None else np.asarray(gate, dtype=np.float64)
    if mask is None or not mask.any():
        out = T.matmul(x, weight)
    elif mask.all():
        out = T.lora_linear(x, weight, adapter.down, adapter.up, None)
    else:
        mask = mask.reshape(mask.shape + (1,) * (x.ndim - mask.ndim))
        out = T.lora_linear(x, weight, adapter.down, adapter.up, mask)
    if bias is not None:
        out = T.add(out, bias)
    return out


class LoraRouter:
    """Per-layer gate chooser: probs = softmax(tanh(h[:, -1]) @ weight), one tape op.

    The last token row of each sample's block input is its routing summary;
    the `identity` activation skips the tanh.
    """

    def __init__(self, dim: int, layer: int, seed: int, activation: str = "tanh"):
        gen = rng.generator(seed, f"router:{layer}")
        self.activation = activation
        self.weight = T.parameter(rng.gaussian(gen, (dim, N_MODULES), ROUTER_INIT_STD))

    def probs(self, h: Tensor) -> Tensor:
        """(B, N, dim) block input -> (B, N_MODULES) gate probabilities."""
        return T.router_probs(h, self.weight, self.activation == "tanh")

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight}


def top_n_gates_rows(probs: np.ndarray, n: int) -> np.ndarray:
    """Row-wise binary gates keeping the n most probable modules of each row.

    Ties break toward the lower index (stable sort on descending prob),
    so a uniform row opens modules 0..n-1 deterministically.
    """
    order = np.argsort(-probs, axis=1, kind="stable")
    gates = np.zeros_like(probs)
    gates[np.arange(probs.shape[0])[:, None], order[:, :n]] = 1.0
    return gates


@dataclass
class RoutingStats:
    """Per-layer activation frequencies f and mean probabilities p-hat.

    Both are constants: f rows are argmax frequencies, p-hat rows the mean
    of the router outputs over `samples` inputs.
    """

    f: np.ndarray  # (L, N_MODULES)
    phat: np.ndarray  # (L, N_MODULES)
    samples: int
    n_active: int

    def entropy_bits(self) -> np.ndarray:
        """Shannon entropy of each layer's mean gate probabilities."""
        p = np.clip(self.phat, 1e-300, 1.0)
        return -(p * np.log2(p)).sum(axis=1)

    def to_json_dict(self) -> dict:
        return {
            "n_active": self.n_active,
            "samples": self.samples,
            "layers": [
                {
                    "layer": i,
                    "frequency": {m: float(self.f[i, j]) for j, m in enumerate(MODULE_NAMES)},
                    "mean_prob": {m: float(self.phat[i, j]) for j, m in enumerate(MODULE_NAMES)},
                    "entropy_bits": float(self.entropy_bits()[i]),
                }
                for i in range(self.f.shape[0])
            ],
        }


def batch_stats(probs: list[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer argmax frequencies f and mean probabilities p-hat of (B, N_MODULES) probs.

    No probs (an unrouted variant) give (0, N_MODULES) arrays.
    """
    f = np.zeros((len(probs), N_MODULES))
    phat = np.zeros((len(probs), N_MODULES))
    for i, p in enumerate(probs):
        f[i] = np.bincount(np.argmax(p.data, axis=1), minlength=N_MODULES) / p.shape[0]
        phat[i] = p.data.mean(axis=0)
    return f, phat


def merge_stats(batches: list[tuple[np.ndarray, np.ndarray]],
                weights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of per-batch (f, p-hat); weights of the batch sizes pool them exactly."""
    total = sum(weights)
    f = sum(w * bf for (bf, _), w in zip(batches, weights)) / total
    phat = sum(w * bp for (_, bp), w in zip(batches, weights)) / total
    return f, phat


def load_balance_loss(probs: list[Tensor], f: np.ndarray) -> Tensor:
    """N_MODULES * sum over layers l and modules i of f[l, i] * mean_b(probs[l])[i].

    Equals the layer count exactly when both distributions are uniform and
    N_MODULES * layers when routing collapses onto a single module. The
    batch means are recorded here, so the term is differentiable through
    the router outputs while f stays a constant.
    """
    terms = [T.total(T.mul(Tensor(f[i]), T.mean(p, axis=0))) for i, p in enumerate(probs)]
    return T.scale(reduce(T.add, terms), float(N_MODULES))
