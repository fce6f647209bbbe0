"""The benchmark's contract with the package it patches and calls.

perfbench/tracing.py wraps tokencast functions by attribute name and reads
the flops of a tape pull whose qualified name starts with `matmul`. If a
rename or a rewrite of those functions breaks either, the benchmark's
per-layer counts silently drop to zero; the tracer test fails instead.
perfbench/run.py also calls tokencast functions directly; a short run of
one workload fails when one of their signatures changes. A traced run
needs every per-layer span to be called and some adapter delta rows to be
counted, so short traced runs of the desk workloads guard that contract.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tokencast import dlora, tensor
from tokencast import training as tr
from tokencast.config import RunConfig
from tokencast.data import SplitSpec, WindowSet, chronological_split, synth_generate
from tokencast.model import Forecaster

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    # import by path without leaving a __pycache__ under perfbench/
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_tracer_counts_a_train_step_and_restores_every_patch():
    tracing = load_tracing()
    targets = [(tensor.Tape, "record"), (dlora, "apply")] + [
        (owner, attr) for owner, attr, _ in tracing.SPAN_TARGETS
    ]
    originals = [getattr(owner, attr) for owner, attr in targets]

    cfg = RunConfig(lookback=16, horizon=4, dim=8, layers=2, heads=2, ffn_dim=16,
                    align_heads=2, rank=2, n_active=3, prompt_buckets=16, seed=5)
    series = synth_generate("sine_mixture", 2, 40, 0)
    view, _, _ = chronological_split(series, SplitSpec(40, 0, 0), cfg.lookback)
    windows = WindowSet(view, cfg.lookback, cfg.horizon)
    model = Forecaster(cfg)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.counting = True
        result = tr.train(model, windows, None,
                          RunConfig(epochs=1, batch_size=windows.count))
    finally:
        tracer.remove()

    assert result.steps_run == 1
    for key in ("tape_records", "pulled_records", "matmul_flop"):
        assert tracer.counts[key] > 0, key
    assert tracer.counts["calls:backbone.block"] == cfg.layers
    assert np.isfinite(result.history[0]["train_loss"])
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, f"{owner}.{attr} left patched"


def run_workload(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_desk_pretrain_workload_runs_clean():
    # perfbench calls cli.train_config, backbone.pretrain_then_freeze(...,
    # steps=, seed=) and Forecaster(cfg) directly; a signature change there
    # fails this one-second run instead of the benchmark
    proc = run_workload("--workload", "desk_pretrain", "--seed", "0", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", ["desk_train", "desk_serve"])
def test_traced_desk_workload_runs_clean(workload):
    # a traced run raises when a per-layer span gets no calls, and divides by
    # zero when no adapter delta rows are counted
    proc = run_workload("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
