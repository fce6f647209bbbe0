"""Low-rank adapters with per-sample top-n routing over the seven linears.

Every block linear can carry an adapter: x' = x W + ((x A) g) B, with
g a binary gate chosen per sample by that layer's router and applied to the
rank-r intermediate x A, so a closed gate zeroes r columns, not d_out. The
product A B is never materialized: `apply` adds the delta, two thin
matmuls, in place into the base product x W, and `apply_grads` forms the
linear's grads from what `apply` returned. Both work on arrays, inside the
block's one tape op (`backbone.transformer_block`). A router is one tape op
(`router_probs`): it pools each sample's last token, squashes it, projects
it onto the modules and takes the softmax.
The forward's list of router outputs is a batch's one routing record:
`batch_stats` reads constant (f, p-hat) off it, and `load_balance_loss`
records the mean probabilities it needs. Gates are constants to the tape,
so router weights learn only through that balance term.

Adapters and routers hold float64 factors, AdamW's masters. `apply` and
`apply_grads` compute in the dtype of the arrays they are given: the block
op hands them its input, trunk weights and the factors of each delta that
runs in the run's trunk dtype, and `apply` converts a gate to the input's
dtype. A router reads its block's input state, which is float32 after the
first block of a float32 trunk, widened to float64.

Adapters and routers take their shapes from a RunConfig that `Forecaster`
has already validated (rank within min(dim, ffn_dim) // 2, n_active within
[1, 7]), so they do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import kernels, rng
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


def apply(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
          adapter: LoraAdapter | None, gate):
    """Adapted linear map on arrays: x W + ((x A) g) B, plus b when a bias is given.

    `gate` is None (no adapter path) or a 0/1 constant that broadcasts from
    the leading axes of x: a scalar or one value per sample. The product is
    in x's dtype, which weight shares, and the adapter's factors too when
    a gate is open; the gate is converted to it. An all-closed gate skips
    the adapter, whose factors are then not read; an all-open one skips
    the gate product. Returns (out, low, mask). low is the gated rank-r
    intermediate (x A) g with the leading axes of x folded into rows,
    None when no delta ran; mask is g shaped to broadcast against the
    unfolded (.., r) intermediate, None when every gate is open.
    `backbone.transformer_block` calls this once per linear and hands low
    and mask to `apply_grads`.
    """
    g = None if adapter is None or gate is None else np.asarray(gate, dtype=x.dtype)
    lead = x.shape[:-1]
    x2 = x.reshape(-1, weight.shape[0])
    out = x2 @ weight
    low = mask = None
    n_open = 0 if g is None else np.count_nonzero(g)
    if n_open:
        low = x2 @ adapter.down.data
        if n_open < g.size:
            mask = g.reshape(g.shape + (1,) * (x.ndim - g.ndim))
            low = (low.reshape(lead + low.shape[1:]) * mask).reshape(low.shape)
        out += low @ adapter.up.data
    if bias is not None:
        out += bias
    return out.reshape(lead + weight.shape[1:]), low, mask


def reads_input(weight: Tensor, adapter: LoraAdapter | None, low: np.ndarray | None) -> bool:
    """Whether `apply_grads` reads the linear's input: for the weight's or the down grad."""
    return weight.requires_grad or (low is not None and adapter.down.requires_grad)


def apply_grads(gx, g, x: np.ndarray | None, weight: Tensor, adapter: LoraAdapter | None,
                low: np.ndarray | None, mask: np.ndarray | None):
    """Grads of one adapted linear without bias from its output grad g.

    x is the linear's input, which may be None when `reads_input` is false,
    and low and mask are what `apply` returned for it; the delta's grads
    are formed only when low shows that it ran. The input's grad is added
    into gx (None: nothing yet), the delta's share before the base
    product's, as the lora_linear and matmul records added theirs. Returns
    gx and the weight, down and up grads, each None where that parameter is
    frozen or its delta did not run.
    """
    k, p = weight.shape
    shape = g.shape[:-1] + (k,)
    g2 = g.reshape(-1, p)
    x2 = None if x is None else x.reshape(-1, k)
    gd = gu = None
    if low is not None:
        down, up = adapter.down, adapter.up
        glow = g2 @ up.data.T
        if mask is not None:
            glow = (glow.reshape(shape[:-1] + low.shape[1:]) * mask).reshape(low.shape)
        gx = _accumulate(gx, (glow @ down.data.T).reshape(shape))
        gd = x2.T @ glow if down.requires_grad else None
        gu = low.T @ g2 if up.requires_grad else None
    gx = _accumulate(gx, (g2 @ weight.data.T).reshape(shape))
    return gx, x2.T @ g2 if weight.requires_grad else None, gd, gu


def _accumulate(acc, g):
    """acc + g, in place into acc; g itself when nothing came before."""
    if acc is None:
        return g
    acc += g
    return acc


def router_probs(h: Tensor, weight: Tensor) -> Tensor:
    """softmax(tanh(h[:, -1]) @ weight) as one op: per-sample probabilities.

    h is (B, N, d) and weight (d, m); the result is (B, m). Each sample is
    summarised by its last token row, squashed by tanh.
    Forward and backward run the numpy expressions of the equivalent slice,
    reshape, tanh, matmul and softmax records (tests/oracles.py) in their
    order, so values and grads match those records bit for bit. The grad
    of h is always formed, the weight's only when it requires grad.
    A float32 state (a block's output in a float32 trunk) is read widened,
    and its grad is formed in float64, so the router computes as it would
    on the state widened.
    The op keeps only the probabilities: its pull forms the tanh rows again
    from h, which its record holds, and hands back the grad of h's last
    token rows alone, as a `tensor.Part`.
    """
    if h.ndim != 3 or weight.ndim != 2 or weight.shape[0] != h.shape[2]:
        raise ShapeError(f"router_probs: states {h.shape} do not fit weight {weight.shape}")
    b, n, d = h.shape
    key = (slice(None), slice(n - 1, n), slice(None))

    def squashed():
        return np.tanh(np.ascontiguousarray(h.data[key], dtype=np.float64).reshape(b, d))

    wd = weight.data
    probs = kernels.softmax_rows(squashed() @ wd)

    def pull(g):
        glogits = kernels.softmax_rows_grad(probs, np.ascontiguousarray(g))
        x = squashed()
        gx = (glogits @ wd.T) * (1.0 - x * x)
        return T.Part(key, gx.reshape(b, 1, d)), x.T @ glogits if weight.requires_grad else None

    return T.emit(probs, (h, weight), pull)


class LoraRouter:
    """Per-layer gate chooser: probs = softmax(tanh(h[:, -1]) @ weight), one tape op.

    The last token row of each sample's block input is its routing summary.
    """

    def __init__(self, dim: int, layer: int, seed: int):
        gen = rng.generator(seed, f"router:{layer}")
        self.weight = T.parameter(rng.gaussian(gen, (dim, N_MODULES), ROUTER_INIT_STD))

    def probs(self, h: Tensor) -> Tensor:
        """(B, N, dim) block input -> (B, N_MODULES) gate probabilities."""
        return router_probs(h, self.weight)

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
