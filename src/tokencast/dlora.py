"""Low-rank adapters with per-sample top-n routing over the seven linears.

Every block linear can carry an adapter: x' = x W + ((x A) g) B, with
g a binary gate chosen per sample by that layer's router and applied to the
rank-r intermediate x A, so a closed gate zeroes r columns, not d_out. The
product A B is never materialized; the delta is one tape op
(`tensor.lora_linear`) of two thin matmuls, added in place into the base
product x W, which never escapes it. A router is one tape op too
(`tensor.router_probs`): it pools each sample's last token, squashes it,
projects it onto the modules and takes the softmax.
Gates are constants to the gradient tape, so router weights learn only
through the load-balance term, which is built from the differentiable mean
gate probabilities.

Adapters and routers take their shapes from a RunConfig that `Forecaster`
has already validated (rank within min(dim, ffn_dim) // 2, n_active within
[1, 7], a known router activation), so they do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from . import tensor as T
from .tensor import ShapeError, Tensor

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

    `phat_nodes` holds the live tape tensors when the stats were collected
    during a recorded forward; load_balance_loss uses them so the balance
    term stays differentiable. f rows are argmax frequencies and always
    constants.
    """

    f: np.ndarray  # (L, N_MODULES)
    phat: np.ndarray  # (L, N_MODULES)
    samples: int
    n_active: int
    phat_nodes: list[Tensor] | None = field(default=None, repr=False)

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


def accumulate_stats(prob_rows: list[np.ndarray], n_active: int,
                     phat_nodes: list[Tensor] | None = None) -> RoutingStats:
    """Fold per-layer (B, N_MODULES) probability batches into RoutingStats."""
    if not prob_rows:
        raise ShapeError("no probability rows to accumulate")
    f_rows, p_rows = [], []
    batch = prob_rows[0].shape[0]
    for rows in prob_rows:
        if rows.ndim != 2 or rows.shape[1] != N_MODULES:
            raise ShapeError(f"expected (B, {N_MODULES}) probabilities, got {rows.shape}")
        winners = np.argmax(rows, axis=1)
        f_rows.append(np.bincount(winners, minlength=N_MODULES) / rows.shape[0])
        p_rows.append(rows.mean(axis=0))
    return RoutingStats(
        f=np.stack(f_rows), phat=np.stack(p_rows), samples=batch,
        n_active=n_active, phat_nodes=phat_nodes,
    )


def load_balance_loss(stats: RoutingStats) -> Tensor:
    """N_MODULES * sum over layers and modules of f_i * phat_i.

    Equals the layer count exactly when both distributions are uniform and
    N_MODULES * layers when routing collapses onto a single module.
    Differentiable through phat when live tape nodes are attached.
    """
    if stats.phat_nodes is not None:
        terms = [
            T.total(T.mul(Tensor(stats.f[i]), node))
            for i, node in enumerate(stats.phat_nodes)
        ]
        acc = terms[0]
        for t in terms[1:]:
            acc = T.add(acc, t)
        return T.scale(acc, float(N_MODULES))
    return Tensor(N_MODULES * float((stats.f * stats.phat).sum()))
