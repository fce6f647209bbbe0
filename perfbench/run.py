"""End-to-end and per-layer benchmark of tokencast.

    python3 perfbench/run.py --workload desk_train --seed 3 --seconds 18 --trace 0

One workload runs in this process against the package sources in ../src.
The seed draws the observation noise on the held-out series that the model
is scored and served on; the training series, model initialisation and
batch order are fixed. The program sees only the generated series and its
CSV. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment,
sample counts and quantiles, the medians and tails that are not gated and,
when traced, the per-layer self-time table. The exit code is 0 when every
output check passed and 1 otherwise, or when the sources are missing.

A run: set-up repeated, checkpoint verification, warm-up (one train step,
one predict, one forecast), then two timed passes of seconds/2 each. A pass
interleaves fits (training.train for a fixed budget, then the test split),
B=64 evaluate_mse sweeps, a closed loop of batch-1 predicts from one client,
in-process `forecast` verb calls and more set-up repeats, each given a share
of the pass and a least number of runs. With --trace 0 both passes are
untraced and give the end-to-end metrics. With --trace 1 the second pass is
traced and gives the per-layer metrics; the first, untraced, is the
reference for the tracing overhead.
"""

import os
import sys

sys.dont_write_bytecode = True  # a run leaves nothing behind but .bench_out/

# Pinned before numpy loads: the box has 2 cores and no threadpoolctl.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODEL_SEED = 0
SERIES_SEED = 0
SYNTH_KIND = "sine_mixture"
NOISE_STD = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    train_steps: int  # the train split holds exactly this many full batches: one epoch
    test_windows: int
    setup_reps: int  # before the timed passes
    phases: dict  # operation -> (share of each pass, least runs per pass)
    pretrain: bool = False


DESK_TRAIN_PHASES = {"fit": (0.55, 1), "eval_sweep": (0.15, 1), "predict_b1": (0.12, 100),
                     "forecast": (0.15, 3), "setup": (0.03, 4)}
WORKLOADS = {
    "desk_train": Workload("desk", {}, 80, 256, 5, DESK_TRAIN_PHASES),
    "main_text_train": Workload("main_text", {"channels": 7}, 3, 64, 2, {
        "fit": (0.6, 1), "eval_sweep": (0.0, 0), "predict_b1": (0.15, 60),
        "forecast": (0.25, 5), "setup": (0.0, 1)}),
    "desk_serve": Workload("desk", {}, 80, 256, 5, {
        "fit": (0.1, 1), "eval_sweep": (0.15, 1), "predict_b1": (0.4, 100),
        "forecast": (0.3, 3), "setup": (0.05, 4)}),
    "desk_pretrain": Workload("desk", {"pretrain_mode": "pretrain_then_freeze"}, 80, 256, 5,
                              DESK_TRAIN_PHASES, pretrain=True),
}

END_TO_END = ("setup_s", "train_windows_per_s", "eval_windows_per_s", "predict_b1_ms_min",
              "cold_forecast_ms_min", "peak_rss_mb", "fit_mse_vs_naive")
UNITS = {
    "setup_s": "s", "train_windows_per_s": "windows/s", "eval_windows_per_s": "windows/s",
    "train_windows_per_s_p50": "windows/s", "eval_windows_per_s_p50": "windows/s",
    "peak_rss_mb": "MB", "fit_mse_vs_naive": "ratio",
    "tensor.matmul_gflop": "GFLOP/step", "tensor.frozen_weight_grad_gflop": "GFLOP/step",
    "tensor.tape_records": "records/step", "tensor.offpath_records": "records/step",
    "tensor.grad_bytes": "bytes/step", "kernels.calls": "calls/step",
    "dlora.delta_rows_useful_frac": "ratio", "checkpoint.bytes": "bytes",
    "trace.overhead_pct": "%",
}
# per-layer time metrics: mean self time per call of these spans
LAYER_SPANS = {
    "tensor.backward_ms": ("tensor.backward",),
    "backbone.block_ms": ("backbone.block",),
    "kernels.fwd_ms": tuple(f"kernels.{k}" for k in ("softmax_rows", "rmsnorm_rows", "silu")),
    "kernels.bwd_ms": tuple(f"kernels.{k}" for k in ("softmax_rows_grad", "rmsnorm_rows_grad",
                                                     "silu_grad")),
    "training.optimizer_ms": ("training.optimizer",),
    "training.clip_ms": ("training.clip",),
    "dlora.router_ms": ("dlora.router",),
    "dlora.apply_ms": ("dlora.apply",),
    "alignment.align_ms": ("alignment.align",),
    "alignment.prompt_encode_ms": ("alignment.prompt_encode",),
    "embedding.embed_ms": ("embedding.embed",),
    "embedding.head_ms": ("embedding.head",),
    "model.forward_ms": ("model.forward",),
    "data.batch_ms": ("data.batch",),
    "checkpoint.load_ms": ("checkpoint.load",),
    "checkpoint.save_ms": ("checkpoint.save",),
    "data.load_csv_ms": ("data.load_csv",),
}
PER_LAYER = tuple(LAYER_SPANS) + (
    "tensor.matmul_gflop", "tensor.frozen_weight_grad_gflop", "tensor.tape_records",
    "tensor.offpath_records", "tensor.grad_bytes", "kernels.calls",
    "dlora.delta_rows_useful_frac", "checkpoint.bytes", "trace.overhead_pct",
)


def import_program():
    """Import tokencast from this checkout's src/, never from elsewhere."""
    package = SRC / "tokencast"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no tokencast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tokencast

    if Path(tokencast.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tokencast from {tokencast.__file__}, not {package}")


def source_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class Run:
    def __init__(self, args):
        from tokencast import config, kernels

        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.dir = OUT / f"run-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ckpt = self.dir / "model.ckpt"
        self.csv = self.dir / "series.csv"
        self.forecast_out = self.dir / "forecast.csv"
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # the Tracer while a traced section runs
        self.trace_log = None
        self.samples = [self._empty_samples(), self._empty_samples()]
        self.pass_no = 0
        self.fit_outcomes = []
        self.fit_counts = []
        self.counted_steps = 0
        self.setup_times = []
        self.served_mse = None
        self._undo = []

        wl = self.wl
        base = config.build_config(overrides={**wl.overrides, "seed": MODEL_SEED},
                                   preset=wl.preset)
        self.train_rows = wl.train_steps * base.batch_size + base.lookback + base.horizon - 1
        self.test_rows = wl.test_windows + base.horizon - 1
        self.cfg = config.build_config(overrides={
            **wl.overrides, "seed": MODEL_SEED, "epochs": 1, "val_frac": 0.0,
            "synthetic": SYNTH_KIND, "length": self.train_rows, "train_frac": 1.0,
        }, preset=wl.preset)
        self.env = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "blas": self._blas_version(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "kernels_backend": kernels.BACKEND, "git_commit": git_commit(),
            "src_sha256": source_digest(SRC / "tokencast"),
            "bench_sha256": source_digest(Path(__file__).resolve().parent),
        }

    @staticmethod
    def _empty_samples():
        return {"step_s": [], "eval_s": [], "predict_s": [], "forecast_s": []}

    def _blas_version(self) -> str:
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    # ------------------------------------------------------------ plumbing

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def attempt(self, name: str, fn) -> None:
        """Run one checked operation; an exception or a False result fails it."""
        self.attempted += 1
        if self.tracer:
            self.tracer.op += 1
        try:
            with self.span("bench." + name):
                ok = fn()
        except Exception:
            traceback.print_exc()
            ok = False
        if ok is False:
            self.failed += 1
            print(f"perfbench: check failed in {name}", file=sys.stderr)

    def install_clock(self) -> None:
        """Timestamp every optimizer step and keep every training loss."""
        from tracing import patch
        from tokencast import training

        self.marks = []
        self.losses = []

        def step(fn):
            def wrapper(opt):
                fn(opt)
                self.marks.append(time.perf_counter())
                if self.tracer:
                    self.tracer.op += 1
            return wrapper

        def total_loss(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.losses.append(out.item())
                return out
            return wrapper

        patch(training.AdamW, "step", step, self._undo)
        patch(training, "total_loss", total_loss, self._undo)

    def start_tracing(self) -> None:
        from tracing import Tracer

        if self.trace_log is None:
            self.trace_log = Tracer()
        self.tracer = self.trace_log
        self.tracer.install()

    def stop_tracing(self) -> None:
        self.tracer.remove()
        self.tracer = None

    # --------------------------------------------------------------- data

    def make_inputs(self):
        """One fixed sine mixture: the fit learns its first rows, and the seed
        draws the observation noise on the rest, the held-out series that the
        fitted model is scored on and that is served (batch-1 inputs, B=64
        sweeps, the forecast CSV). Seeding the series itself moved the fit
        ratios by 12-26% between seeds on desk, and by up to 3.5x on
        main_text, whose 3-step fit at lr 1e-2 is chaotic."""
        from tokencast import data

        cfg = self.cfg
        base = data.synth_generate(SYNTH_KIND, cfg.channels, self.train_rows + self.test_rows,
                                   SERIES_SEED).values
        held_out = base[self.train_rows - cfg.lookback:]
        noise = np.random.default_rng(self.args.seed).normal(0.0, NOISE_STD, held_out.shape)
        train_series = data.MultivariateSeries("train", base[:self.train_rows])
        held_out = data.MultivariateSeries("held_out", held_out + noise)
        train_view = data.SeriesView(train_series, 0, train_series.length)
        test_view = data.SeriesView(held_out, 0, held_out.length)
        return (held_out, train_view, data.WindowSet(train_view, cfg.lookback, cfg.horizon),
                data.WindowSet(test_view, cfg.lookback, cfg.horizon))

    def setup_once(self, csv_path, ckpt_path):
        from tokencast import checkpoint, data
        from tokencast.model import Forecaster

        t0 = time.perf_counter()
        with self.span("bench.setup"):
            series, train_view, train_ws, test_ws = self.make_inputs()
            data.write_series_csv(series, csv_path, sidecar=False)
            model = Forecaster(self.cfg)
            checkpoint.save_checkpoint(ckpt_path, model)
        self.setup_times.append(time.perf_counter() - t0)
        return series, train_view, train_ws, test_ws, model

    def extra_setup(self) -> None:
        """The same set-up again, timed, into files nothing else reads.

        Set-up repeats are spread over the run so that its median does not
        hang on whichever slow or quiet spell of a shared host the start of
        the run fell into.
        """
        self.setup_once(self.dir / "extra.csv", self.dir / "extra.ckpt")

    def setup(self) -> None:
        for _ in range(self.wl.setup_reps):
            self.model = None  # drop the previous rep's model before building the next
            (self.series, self.train_view, self.train_ws, self.test_ws,
             self.model) = self.setup_once(self.csv, self.ckpt)
            self.attempted += 1
        if self.train_ws.count != self.wl.train_steps * self.cfg.batch_size:
            raise RuntimeError(f"train split has {self.train_ws.count} windows")
        self.x_b1 = [self.test_ws.batch([i]).x for i in range(self.test_ws.count)]
        self.expected_forecast = self.model.predict(
            self.series.values[-self.cfg.lookback:].T[None, :, :])[0]
        self.attempt("verify_checkpoint", self.verify_checkpoint)
        if self.wl.preset == "main_text":
            self.attempt("trainable_fraction", lambda: round(
                100 * self.model.parameter_report()["trainable_fraction"], 1) == 6.0)
        self.ckpt_bytes = self.ckpt.stat().st_size

    def verify_checkpoint(self) -> bool:
        """A loaded checkpoint predicts exactly what the in-memory model does."""
        from tokencast import checkpoint

        loaded, _ = checkpoint.load_checkpoint(self.ckpt)
        x = self.test_ws.batch(np.arange(min(4, self.test_ws.count))).x
        return bool(np.array_equal(loaded.predict(x), self.model.predict(x)))

    # ---------------------------------------------------------- operations

    def fit(self) -> bool:
        """Fit a fresh model for the fixed budget, then score the test split."""
        from tokencast import backbone, cli, training
        from tokencast.model import Forecaster

        cfg = self.cfg
        model = Forecaster(cfg)
        counts_before = self.tracer.counts.copy() if self.tracer else None
        self.marks = [time.perf_counter()]
        self.losses = []
        pre_losses = []
        if self.wl.pretrain:  # the measured steps are the pretraining ones
            self._count(steps=True, deltas=False)
            pre_losses = backbone.pretrain_then_freeze(
                model.backbone, self.train_view, cfg.lookback, cfg.horizon,
                steps=cfg.pretrain_steps, seed=cfg.seed)
            measured = list(np.diff(self.marks))
            self.marks = [time.perf_counter()]
        self._count(steps=not self.wl.pretrain, deltas=True)
        result = training.train(model, self.train_ws, None, cli.train_config(cfg))
        self._count(steps=False, deltas=False)
        if not self.wl.pretrain:
            measured = list(np.diff(self.marks))

        self.samples[self.pass_no]["step_s"].extend(measured)
        self.counted_steps += len(measured) if self.tracer else 0
        losses = pre_losses + self.losses
        self.attempted += len(losses)
        self.failed += sum(not np.isfinite(v) for v in losses)

        t0 = time.perf_counter()
        test_mse = training.evaluate_mse(model, self.test_ws)
        self.samples[self.pass_no]["eval_s"].append(time.perf_counter() - t0)
        ratio = test_mse / training.naive_repeat_last_mse(self.test_ws)

        outcome = (result.history[-1]["train_loss"], ratio)
        if self.wl.pretrain:
            outcome += (pre_losses[-1], model.backbone.checksum())
        self.fit_outcomes.append(outcome)
        if counts_before is not None:
            self.fit_counts.append(dict(self.tracer.counts - counts_before))
        ok = bool(np.isfinite(outcome[0]) and np.isfinite(ratio))
        ok &= outcome == self.fit_outcomes[0]  # same seed, same loss and fit ratio
        if self.args.workload == "desk_train":
            ok &= ratio < 1.0
        return ok

    def _count(self, steps: bool, deltas: bool) -> None:
        if self.tracer:
            self.tracer.counting = steps
            self.tracer.counting_deltas = deltas

    def eval_sweep(self) -> bool:
        from tokencast import training

        t0 = time.perf_counter()
        mse = training.evaluate_mse(self.model, self.test_ws, batch_size=64)
        self.samples[self.pass_no]["eval_s"].append(time.perf_counter() - t0)
        if self.served_mse is None:
            self.served_mse = mse
        return bool(np.isfinite(mse) and mse == self.served_mse)

    def predict_b1(self) -> bool:
        x = self.x_b1[len(self.samples[self.pass_no]["predict_s"]) % len(self.x_b1)]
        t0 = time.perf_counter()
        pred = self.model.predict(x)
        self.samples[self.pass_no]["predict_s"].append(time.perf_counter() - t0)
        return pred.shape == (1, self.cfg.channels, self.cfg.horizon) and bool(
            np.isfinite(pred).all())

    def forecast(self, record: bool = True) -> bool:
        """The in-process forecast verb: parses the checkpoint and the CSV."""
        from tokencast import cli

        argv = ["forecast", "--checkpoint", str(self.ckpt), "--input", str(self.csv),
                "--date-column", "date", "--output", str(self.forecast_out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - t0
        if record:
            self.samples[self.pass_no]["forecast_s"].append(elapsed)
        with open(self.forecast_out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([[float(v) for v in row[1:]] for row in rows]).T
        return code == 0 and bool(np.array_equal(got, self.expected_forecast))

    def warm_up(self) -> None:
        """First train step, first predict and first forecast, untimed."""
        from tokencast import backbone, cli, data, training
        from tokencast.model import Forecaster

        cfg = self.cfg
        one_batch = data.SeriesView(self.train_view.series, 0,
                                    cfg.batch_size + cfg.lookback + cfg.horizon - 1)
        windows = data.WindowSet(one_batch, cfg.lookback, cfg.horizon)

        def step():
            model = Forecaster(cfg)
            if self.wl.pretrain:
                backbone.pretrain_then_freeze(model.backbone, one_batch, cfg.lookback,
                                              cfg.horizon, steps=1, seed=cfg.seed)
            result = training.train(model, windows, None, cli.train_config(cfg))
            return bool(np.isfinite(result.history[-1]["train_loss"]))

        self.attempt("warm_step", step)
        self.attempt("warm_predict",
                     lambda: bool(np.isfinite(self.model.predict(self.x_b1[0])).all()))
        self.attempt("warm_forecast", lambda: self.forecast(record=False))

    def timed_pass(self, budget: float) -> None:
        """Interleave the operations, each time running the one furthest
        behind its share of the pass, so that every kind of sample spans the
        whole pass rather than one stretch of a shared host's load."""
        ops = {"fit": self.fit, "eval_sweep": self.eval_sweep, "predict_b1": self.predict_b1,
               "forecast": self.forecast, "setup": self.extra_setup}
        spent = dict.fromkeys(self.wl.phases, 0.0)
        runs = dict.fromkeys(self.wl.phases, 0)

        def progress(name):
            share, least = self.wl.phases[name]
            return spent[name] / (share * budget) if share else runs[name] / least

        while True:
            pending = [n for n, (share, least) in self.wl.phases.items()
                       if runs[n] < least or spent[n] < share * budget]
            if not pending:
                return
            name = min(pending, key=progress)
            t0 = time.perf_counter()
            self.attempt(name, ops[name])
            spent[name] += time.perf_counter() - t0
            runs[name] += 1

    # ------------------------------------------------------------- results

    def main_time(self, samples) -> float:
        """The fastest sample of what the workload is about: a train step,
        or a batch-1 predict when serving."""
        key = "predict_s" if self.args.workload == "desk_serve" else "step_s"
        return min(samples[key])

    def both_passes(self) -> dict:
        return {k: self.samples[0][k] + self.samples[1][k] for k in self.samples[0]}

    def end_to_end(self) -> dict:
        """Timings use the fastest sample of each kind: on a shared host,
        neighbours slow whole stretches of a run. Over ten runs a workload,
        medians spread (IQR over median) by up to 35%, minima by 2-16%."""
        both = self.both_passes()
        return {
            "setup_s": statistics.median(self.setup_times),
            "train_windows_per_s": self.cfg.batch_size / min(both["step_s"]),
            "eval_windows_per_s": self.test_ws.count / min(both["eval_s"]),
            "predict_b1_ms_min": 1000 * min(both["predict_s"]),
            "cold_forecast_ms_min": 1000 * min(both["forecast_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fit_mse_vs_naive": self.fit_outcomes[0][1],
        }

    def reported(self) -> dict:
        """Medians and tails, printed for reading but too noisy here to gate on."""
        both = self.both_passes()
        predict_ms = [1000 * v for v in both["predict_s"]]
        return {
            "train_windows_per_s_p50": self.cfg.batch_size / statistics.median(both["step_s"]),
            "eval_windows_per_s_p50": self.test_ws.count / statistics.median(both["eval_s"]),
            "predict_b1_ms_p50": statistics.median(predict_ms),
            "predict_b1_ms_p99": percentile(predict_ms, 99),
            "cold_forecast_ms_p50": 1000 * statistics.median(both["forecast_s"]),
        }

    def counts(self) -> dict:
        """Exact per-step counts of the traced fits, computed from shapes."""
        c = self.trace_log.counts
        steps = self.counted_steps
        kernel_calls = sum(v for k, v in c.items() if k.startswith("calls:kernels."))
        return {
            "tensor.tape_records": c["tape_records"] / steps,
            "tensor.offpath_records": (c["tape_records"] - c["pulled_records"]) / steps,
            "tensor.grad_bytes": c["grad_bytes"] / steps,
            "tensor.matmul_gflop": c["matmul_flop"] / steps / 1e9,
            "tensor.frozen_weight_grad_gflop": c["frozen_weight_grad_flop"] / steps / 1e9,
            "kernels.calls": kernel_calls / steps,
            "dlora.delta_rows_useful_frac": c["delta_rows_open"] / c["delta_rows_computed"],
            "checkpoint.bytes": self.ckpt_bytes,
        }

    def check_counts_repeat(self, counts: dict) -> bool:
        """Counts repeat bit for bit: across traced fits, and across runs of
        the same program and benchmark sources, workload and seed
        (remembered in .bench_out)."""
        ok = all(fc == self.fit_counts[0] for fc in self.fit_counts)
        store = OUT / "counts.json"
        key = (f"{self.args.workload}/seed{self.args.seed}/{self.env['src_sha256'][:16]}"
               f"/{self.env['bench_sha256'][:16]}")
        known = json.loads(store.read_text()) if store.is_file() else {}
        if key in known:
            ok &= known[key] == counts
        else:
            known[key] = counts
            store.write_text(json.dumps(known, indent=1, sort_keys=True))
        return ok

    def per_layer(self, untraced: float, traced: float) -> dict:
        table = self.trace_log.self_times()
        out = {}
        for metric, names in LAYER_SPANS.items():
            total = sum(table[n][0] for n in names if n in table)
            calls = sum(table[n][1] for n in names if n in table)
            if calls == 0:
                raise RuntimeError(f"no spans recorded for {metric}")
            out[metric] = 1000 * total / calls
        counts = self.counts()
        self.attempt("counts_repeat", lambda: self.check_counts_repeat(counts))
        out.update(counts)
        out["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
        self.layer_table = {n: {"self_ms": round(1000 * s, 3), "calls": k}
                            for n, (s, k) in sorted(table.items())}
        return out

    def execute(self) -> dict:
        budget = self.args.seconds / 2
        self.install_clock()
        if self.args.trace:
            self.start_tracing()
        self.setup()
        if self.args.trace:
            self.stop_tracing()
        self.warm_up()
        self.timed_pass(budget)
        self.pass_no = 1
        if self.args.trace:
            self.start_tracing()
        self.timed_pass(budget)
        if self.args.trace:
            self.stop_tracing()
            return self.per_layer(self.main_time(self.samples[0]),
                                  self.main_time(self.samples[1]))
        return self.end_to_end()

    def info(self) -> dict:
        samples = {"setup_s": {"n": len(self.setup_times)}}
        for k, v in self.both_passes().items():
            if v:
                samples[k] = {"n": len(v), **{f"p{q}_ms": percentile(v, q) * 1000
                                              for q in (0, 50, 99)}}
        info = {"env": self.env, "samples": samples, "fits": len(self.fit_outcomes),
                "series_rows": self.cfg.length, "train_windows": self.train_ws.count,
                "test_windows": self.test_ws.count,
                "reported": {n: {"value": v, "unit": UNITS.get(n, "ms")}
                             for n, v in self.reported().items()}}
        if self.trace_log:
            info["counts_basis"] = "flops and bytes computed from operand shapes"
            info["layers"] = self.layer_table
        return info

    def close(self) -> None:
        from tracing import unpatch

        if self.tracer:
            self.stop_tracing()
        if self.trace_log:
            self.trace_log.write_spans(OUT / f"spans-{self.args.workload}.jsonl")
        unpatch(self._undo)
        shutil.rmtree(self.dir, ignore_errors=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    run = Run(args)
    try:
        metrics = run.execute()
    finally:
        run.close()
    names = PER_LAYER if args.trace else END_TO_END
    correct = run.failed == 0
    print(json.dumps({"info": run.info()}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS.get(n, "ms")} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
