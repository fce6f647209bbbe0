"""Spans and shape-derived counts recorded around tokencast's public functions.

Nothing here edits the program: the tracer replaces module functions and
class methods with wrappers for the duration of a traced pass and puts the
originals back afterwards. Each wrapped call becomes one span
(name, start, end, parent index, op id) held in memory; the benchmark writes
the spans out when it exits and derives each layer's self time from them
(a span's duration minus the time covered by its direct children).

While `counting` is set, the tracer also counts work that repeats exactly for
a fixed seed: tape records, records whose pull ran, the bytes of the
gradients pulls return and the flops of matmul pulls (both computed from
operand shapes, not measured) and calls per span name. While
`counting_deltas` is set it counts the (sample, module) pairs whose adapter
delta was computed and those among them whose gate was open.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

from tokencast import alignment, backbone, checkpoint, cli, data, dlora
from tokencast import embedding, kernels, model, tensor, training

FORWARD_KERNELS = ("softmax_rows", "rmsnorm_rows", "silu")
BACKWARD_KERNELS = ("softmax_rows_grad", "rmsnorm_rows_grad", "silu_grad")

# (owner, attribute, span name). The cli module imported load_checkpoint and
# load_csv by name, so its references are wrapped alongside the originals.
SPAN_TARGETS = [
    (model.Forecaster, "forward_array", "model.forward"),
    (embedding.TsEmbedder, "embed", "embedding.embed"),
    (embedding.OutputHead, "project", "embedding.head"),
    (alignment.CrossAttention, "align", "alignment.align"),
    (alignment.PromptEmbedding, "encode", "alignment.prompt_encode"),
    (backbone.TransformerBlock, "forward", "backbone.block"),
    (dlora.LoraRouter, "probs", "dlora.router"),
    (dlora, "apply", "dlora.apply"),
    (tensor.Tape, "backward", "tensor.backward"),
    (training.AdamW, "step", "training.optimizer"),
    (training, "clip_gradients", "training.clip"),
    (data.WindowSet, "batch", "data.batch"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (cli, "load_checkpoint", "checkpoint.load"),
    (data, "load_csv", "data.load_csv"),
    (cli, "load_csv", "data.load_csv"),
] + [
    (kernels, k, f"kernels.{k}")
    for k in FORWARD_KERNELS + BACKWARD_KERNELS + ("adamw_update",)
]


def patch(owner, attr, make_wrapper, undo: list) -> None:
    """Replace owner.attr by make_wrapper(original); remember how to undo it."""
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
    undo.append((owner, attr, original))


def unpatch(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0  # id of the benchmark operation (train step, predict call, ...)
        self.counting = False
        self.counting_deltas = False
        self.counts: Counter = Counter()
        self._undo: list = []

    # --------------------------------------------------------------- spans

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name: str, idx: int, parent: int, t0: float) -> None:
        self.stack.pop()
        self.spans[idx] = (name, t0, time.perf_counter(), parent, self.op)

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.counting:
                    self.counts["calls:" + name] += 1
                idx, parent, t0 = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(name, idx, parent, t0)
            return wrapper
        return make

    # -------------------------------------------------------------- counts

    def _counted_record(self, record):
        counts = self.counts

        def wrapper(tape, out, inputs, pull):
            if self.counting:
                counts["tape_records"] += 1
                pull = self._counted_pull(pull.__qualname__.partition(".")[0], inputs, pull)
            return record(tape, out, inputs, pull)
        return wrapper

    def _counted_pull(self, op: str, inputs, pull):
        counts = self.counts

        def counted(g):
            counts["pulled_records"] += 1
            counts["grad_bytes"] += 8 * sum(t.size for t in inputs)
            if op == "matmul":
                a, b = inputs
                # one (.., M, K) @ (.., K, N) product costs 2*M*K*N per batch
                # entry; the pull forms both the input and the weight grad
                flop = 2 * a.size * b.shape[-1]
                counts["matmul_flop"] += 2 * flop
                if not b.requires_grad:
                    counts["frozen_weight_grad_flop"] += flop
            return pull(g)
        return counted

    def _counted_apply(self, apply):
        counts = self.counts

        def wrapper(x, weight, bias, adapter, gate):
            if self.counting_deltas and adapter is not None and gate is not None:
                mask = np.asarray(gate)
                if mask.ndim == 1 and mask.any():
                    counts["delta_rows_computed"] += mask.size
                    counts["delta_rows_open"] += int(np.count_nonzero(mask))
            return apply(x, weight, bias, adapter, gate)
        return wrapper

    # ------------------------------------------------------ install/remove

    def install(self) -> None:
        patch(tensor.Tape, "record", self._counted_record, self._undo)
        patch(dlora, "apply", self._counted_apply, self._undo)
        for owner, attr, name in SPAN_TARGETS:
            patch(owner, attr, self._spanned(name), self._undo)

    def remove(self) -> None:
        unpatch(self._undo)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, calls)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        covered = defaultdict(float)
        for _, (_, t0, t1, parent, _) in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        table: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, t0, t1, _, _) in spans:
            row = table[name]
            row[0] += (t1 - t0) - covered[i]
            row[1] += 1
        return {name: (row[0], row[1]) for name, row in table.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is not None:
                    name, t0, t1, parent, op = s
                    fh.write(json.dumps({"i": i, "name": name, "start": t0, "end": t1,
                                         "parent": parent, "op": op}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.state = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, *self.state)
        return False
