"""The composed forecaster and its ablation variants.

Pipeline: per-window channel normalization, channel-as-token embedding,
prompt alignment, the frozen adapted trunk, linear projection to the
horizon, de-normalization. Each variant builds the parts that
`config.VARIANT_PARTS` lists for it, and the forward runs the parts built.

Every component draws its initialization from a generator keyed by the run
seed and the component's name, so two variants built from the same seed
hold bit-identical copies of every component they share.
"""

from __future__ import annotations

import numpy as np

from . import rng
from . import tensor as T
from .alignment import CrossAttention, PromptEmbedding
from .backbone import Backbone, module_dims
from .config import VARIANT_PARTS, RunConfig
from .dlora import (
    MODULE_NAMES,
    LoraAdapter,
    LoraRouter,
    RoutingStats,
    batch_stats,
    merge_stats,
    top_n_gates_rows,
)
from .embedding import OutputHead, TsEmbedder, denormalize, instance_normalize
from .tensor import ShapeError, Tensor

# parameter_report group of each parameter-name prefix
PARAM_GROUPS = {"backbone": "backbone", "embedder": "embedder", "align": "alignment",
                "prompt": "alignment", "adapters": "adapters", "routers": "routers",
                "head": "head"}


class Forecaster:
    def __init__(self, cfg: RunConfig, backbone: Backbone | None = None):
        """`backbone`, when given, is a trunk built from a config whose trunk
        fields equal cfg's; models of one ablation share it."""
        self.cfg = cfg.validate()  # the one check of every shape below
        self.backbone = Backbone(cfg) if backbone is None else backbone
        self.embedder = TsEmbedder(cfg.lookback, cfg.dim, cfg.seed)
        self.head = OutputHead(cfg.dim, cfg.horizon, cfg.seed)
        prompt_path, gating = VARIANT_PARTS[cfg.variant]

        self.cross = (
            CrossAttention(cfg.dim, cfg.align_heads, cfg.seed)
            if prompt_path == "cross" else None
        )
        self.prompt = (
            PromptEmbedding(cfg.dim, cfg.prompt_buckets, cfg.seed,
                            cfg.prompt_text(), cfg.prompt_max_tokens)
            if prompt_path != "none" else None
        )

        self.adapters: list[dict[str, LoraAdapter]] = []
        if gating != "none":
            for layer in range(cfg.layers):
                gen = rng.generator(cfg.seed, f"adapters:{layer}")
                self.adapters.append({
                    name: LoraAdapter(d_in, d_out, cfg.rank, gen)
                    for name, (d_in, d_out) in module_dims(cfg).items()
                })
        self.routers: list[LoraRouter] = []
        if gating == "routed":
            self.routers = [LoraRouter(cfg.dim, layer, cfg.seed) for layer in range(cfg.layers)]

    # ------------------------------------------------------------- forward

    def forward_array(self, x: np.ndarray) -> tuple[Tensor, list[Tensor]]:
        """(B, C, lookback) windows -> (B, C, horizon) forecast and router probs.

        probs holds each routed layer's (B, N_MODULES) router output, empty
        for the unrouted variants: the batch's one routing record.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"expected (batch, channels, lookback), got {x.shape}")
        if self.cfg.normalize:
            xn, norm_stats = instance_normalize(x)
        else:
            xn, norm_stats = x, None
        tokens = self.embedder.embed(Tensor(xn))  # (B, N, dim)

        prefix_len = 0
        if self.cross is not None:
            h = self.cross.align(tokens, self.prompt.encode())
        elif self.prompt is not None:  # prompt rows enter the trunk as a prefix
            rows = self.prompt.encode()  # (P, dim)
            prefix_len = rows.shape[0]
            b = tokens.shape[0]
            lift = Tensor(np.zeros((b, prefix_len, self.cfg.dim)))
            prompt_b = T.add(lift, rows)  # broadcast rows across the batch
            h = T.concat([prompt_b, tokens], axis=1)
        else:
            h = tokens

        probs_by_layer: list[Tensor] = []

        def gates(layer: int, state: Tensor) -> dict:
            """Each module's gate: the router's top-n_active rows, or open without routers."""
            if not self.routers:
                return dict.fromkeys(MODULE_NAMES, 1.0)
            probs = self.routers[layer].probs(state)  # (B, 7)
            gate_rows = top_n_gates_rows(probs.data, self.cfg.n_active)
            probs_by_layer.append(probs)
            return {name: gate_rows[:, j] for j, name in enumerate(MODULE_NAMES)}

        h = self.backbone.forward(h, self.adapters, gates if self.adapters else None)

        if prefix_len:
            h = h[:, prefix_len:, :]
        pred = self.head.project(h)
        if norm_stats is not None:
            pred = denormalize(pred, norm_stats)
        return pred, probs_by_layer

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward outside any tape: plain arrays in, plain arrays out."""
        pred, _ = self.forward_array(x)
        return pred.data

    def routing_stats(self, batch_probs: list[list[Tensor]]) -> RoutingStats | None:
        """Merge the router outputs of several forwards, one list per batch;
        None for a model without routers.

        Each batch's stats weigh by its window count, so the merge equals
        the stats of one batch holding every window.
        """
        if not self.routers:
            return None
        sizes = [probs[0].shape[0] for probs in batch_probs]
        f, phat = merge_stats([batch_stats(probs) for probs in batch_probs], sizes)
        return RoutingStats(f=f, phat=phat, samples=sum(sizes), n_active=self.cfg.n_active)

    # ---------------------------------------------------------- bookkeeping

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.embedder.params("embedder"))
        if self.cross is not None:
            out.update(self.cross.params("align"))
        if self.prompt is not None:
            out.update(self.prompt.params("prompt"))
        out.update(self.backbone.tensors("backbone"))
        for i, adapters in enumerate(self.adapters):
            for name, ad in adapters.items():
                out[f"adapters.block{i}.{name}.down"] = ad.down
                out[f"adapters.block{i}.{name}.up"] = ad.up
        for i, router in enumerate(self.routers):
            out.update(router.params(f"routers.block{i}"))
        out.update(self.head.params("head"))
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named_parameters().items() if v.requires_grad}

    def parameter_report(self) -> dict:
        """Parameter counts by component plus the trainable fraction."""
        groups = dict.fromkeys(PARAM_GROUPS.values(), 0)
        for name, p in self.named_parameters().items():
            groups[PARAM_GROUPS[name.split(".", 1)[0]]] += p.size
        total = sum(groups.values())
        trainable = sum(p.size for p in self.trainable().values())
        return {
            **groups,
            "total": total,
            "trainable": trainable,
            "trainable_fraction": trainable / total if total else 0.0,
        }

