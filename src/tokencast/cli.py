"""Command-line front end: train, eval, forecast, ablate, sweep-n, synth.

Exit codes: 0 success, 2 configuration errors (including metric settings),
3 data and checkpoint file errors (an output that cannot be written among
them), 4 numeric failures: during training, or a non-finite prediction from
`eval` or `forecast`, which then writes nothing.

Every RunConfig key is exposed three ways with identical meaning: a line in
an INI config file (--config), a --set key=value override, and a direct
--key-name flag. Precedence is preset < file < override, with --set and
direct flags sharing the override level (direct flags win).

Each call builds only the arguments of the verb it runs. The four verbs
that take a config carry one hidden flag per RunConfig field, and adding
them all to every subparser cost more than loading the checkpoint of a
`forecast` call, which reads none of them. The other verbs are still
registered with their help, so the top-level usage, help and errors are
those of the full parser.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .backbone import pretrain_then_freeze
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    PRESETS,
    ROUTED_VARIANTS,
    VARIANTS,
    ConfigError,
    RunConfig,
    build_config,
    load_config_file,
    parse_override,
)
from .data import (
    DataError,
    MultivariateSeries,
    WindowSet,
    chronological_split,
    few_shot_subset,
    load_csv,
    split_spec_for,
    synth_generate,
    write_series_csv,
)
from .dlora import RoutingStats
from .metrics import MetricError, build_report, naive_seasonal_forecast, seasonality_for
from .model import Forecaster
from .training import (
    NumericError,
    evaluate,
    naive_repeat_last_mse,
    train,
    write_history_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ------------------------------------------------------------ data plumbing


def standardize_by_train(series: MultivariateSeries, train_len: int) -> MultivariateSeries:
    """Shift and scale every channel by its training-split statistics."""
    if train_len < 2:
        raise DataError("global standardization needs at least 2 training rows")
    head = series.values[:train_len]
    mu = head.mean(axis=0)
    sd = np.maximum(head.std(axis=0), 1e-8)
    return MultivariateSeries(
        name=series.name,
        values=(series.values - mu) / sd,
        frequency=series.frequency,
        channel_names=list(series.channel_names),
        meta=dict(series.meta),
    )


def prepare_data(cfg: RunConfig):
    """Series plus (train, val, test) views and window sets for a config."""
    if cfg.data_kind == "synthetic":
        series = synth_generate(cfg.synthetic, cfg.channels, cfg.length, cfg.seed,
                                noise=cfg.noise, frequency=cfg.frequency)
    else:
        series = load_csv(cfg.csv_path, date_column=cfg.date_column or None,
                          name=cfg.dataset_name or None, frequency=cfg.frequency)
    spec = split_spec_for(series.length, cfg.train_frac, cfg.val_frac)
    if cfg.global_standardize:
        series = standardize_by_train(series, spec.train_len)
    views = chronological_split(series, spec, cfg.lookback)
    train_view, val_view, test_view = views
    if cfg.few_shot < 1.0:
        train_view = few_shot_subset(train_view, cfg.few_shot, cfg.lookback, cfg.horizon)
    make = lambda v: WindowSet(v, cfg.lookback, cfg.horizon, cfg.stride)
    return series, (train_view, val_view, test_view), (
        make(train_view), make(val_view), make(test_view),
    )


def build_model(cfg: RunConfig, train_view) -> Forecaster:
    model = Forecaster(cfg)
    if cfg.pretrain_mode == "pretrain_then_freeze":
        pretrain_then_freeze(model.backbone, train_view, cfg.lookback, cfg.horizon,
                             steps=cfg.pretrain_steps, seed=cfg.seed)
    return model


def build_models(cfgs, train_view):
    """Yield a model per config, in turn; all share the first one's trunk.

    The trunk is built and pretrained once: pretraining reads neither the
    variant nor n_active, and training never writes a frozen trunk.
    """
    first = build_model(cfgs[0], train_view)
    yield first
    for cfg in cfgs[1:]:
        yield Forecaster(cfg, backbone=first.backbone)


def train_config(cfg: RunConfig) -> RunConfig:
    # only perfbench/run.py calls this; it goes with the next benchmark change
    return cfg


def routing_payload(model: Forecaster, stats: RoutingStats | None) -> dict:
    """The one routing json shape: the stats, if any, `routed` and `variant`."""
    payload = stats.to_json_dict() if stats is not None else {}
    return {**payload, "routed": stats is not None, "variant": model.variant}


def score(model: Forecaster, train_ws, test_ws) -> tuple[float, RoutingStats | None]:
    """One scoring pass of a fitted model: its test mse (nan without test
    windows) and `model.routing_stats` of that same pass. Without test
    windows a routed model takes its routing from the training split, and
    an unrouted one forwards nothing."""
    if not (test_ws.count or model.uses_routers):
        return float("nan"), None
    mse, _, probs = evaluate(model.forward_array, test_ws if test_ws.count else train_ws)
    return (mse if test_ws.count else float("nan")), model.routing_stats(probs)


def check_finite_prediction(pred: np.ndarray, x: np.ndarray, channel_names) -> None:
    """Raise NumericError unless every value of `pred` (..., channels,
    horizon), forecast from the lookbacks `x`, is finite."""
    finite = np.isfinite(pred)
    if finite.all():
        return
    bad = ~finite.all(axis=-1).reshape(-1, pred.shape[-2]).all(axis=0)
    channels = [name for name, b in zip(channel_names, bad) if b]
    raise NumericError(
        f"non-finite prediction for channels {channels}",
        diagnostics={"channels": channels, "x_min": float(x.min()), "x_max": float(x.max())},
    )


def check_finite_metrics(metrics: dict[str, float], y: np.ndarray) -> None:
    """Raise NumericError unless every value of `metrics` is finite, giving
    the range of `y`, the truths or the split they come from: a finite but
    huge truth, such as 1e308, overflows a squared error."""
    bad = [name for name, value in metrics.items() if not np.isfinite(value)]
    if bad:
        raise NumericError(
            f"non-finite metrics {bad}",
            diagnostics={"metrics": bad, "y_min": float(y.min()), "y_max": float(y.max())},
        )


def naive_test_mse(test_ws) -> float | None:
    """The repeat-last naive test mse, None without test windows, checked
    finite before any model trains: it needs no model, so a test split
    whose squared errors overflow exits 4 before the first fit."""
    if not test_ws.count:
        return None
    naive = naive_repeat_last_mse(test_ws)
    check_finite_metrics({"repeat_last.test_mse": naive}, test_ws.view.array)
    return naive


# ------------------------------------------------------------------- verbs


@contextlib.contextmanager
def _writing(path):
    """Report an OSError while creating or writing `path` as a data error."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _output_dir(path) -> Path:
    path = Path(path)
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_train(args) -> int:
    cfg = config_from_args(args)
    out = _output_dir(args.out)
    _, views, (train_ws, val_ws, test_ws) = prepare_data(cfg)
    naive = naive_test_mse(test_ws)
    model = build_model(cfg, views[0])
    result = train(model, train_ws, val_ws, cfg)
    test_mse, stats = score(model, train_ws, test_ws)
    if test_ws.count:  # scored before anything is written
        check_finite_metrics({f"{cfg.variant}.test_mse": test_mse}, test_ws.view.array)

    with _writing(out):
        save_checkpoint(out / "checkpoint.ckpt", model, step=result.steps_run)
        write_history_csv(result, out / "history.csv", layers=cfg.layers)
    _write_json(out / "routing_stats.json", routing_payload(model, stats))

    last = result.history[-1]
    print(f"trained {result.epochs_run} epochs ({result.steps_run} steps), "
          f"final train loss {last['train_loss']:.6f}")
    if result.best_val is not None:
        stopped = " (early stop)" if result.stopped_early else ""
        print(f"best val mse {result.best_val:.6f} at epoch {result.best_epoch}{stopped}")
    if test_ws.count:
        print(f"test mse {test_mse:.6f} vs repeat-last naive {naive:.6f}")
    print(f"wrote {out / 'checkpoint.ckpt'}, {out / 'history.csv'}, "
          f"{out / 'routing_stats.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    overrides = collect_overrides(args)
    cfg = build_config(dataclasses.asdict(model.cfg), overrides)
    for dim_key in ("lookback", "horizon"):
        if getattr(cfg, dim_key) != getattr(model.cfg, dim_key):
            raise ConfigError(
                f"{dim_key} mismatch: checkpoint was trained with "
                f"{dim_key}={getattr(model.cfg, dim_key)}, dataset asks for "
                f"{getattr(cfg, dim_key)}"
            )
    series, views, (_, _, test_ws) = prepare_data(cfg)
    _, y_pred, probs = evaluate(model.forward_array, test_ws)
    whole = test_ws.batch(np.arange(test_ws.count))
    x, y_true = whole.x, whole.y
    check_finite_prediction(y_pred, x, series.channel_names)

    s = seasonality_for(cfg.frequency)
    naive_pred = naive_seasonal_forecast(x, s, cfg.horizon) if x.shape[2] >= s else None
    insample = views[0].array if args.mase_convention == "m4" else None
    report = build_report(
        y_true, y_pred, seasonality=s, channel_names=series.channel_names,
        naive_pred=naive_pred, mase_convention=args.mase_convention,
        insample=insample,
    )
    rows = [*report.per_series.items(), ("ALL", report.aggregate)]
    check_finite_metrics({f"{name}.{metric}": value for name, row in rows
                          for metric, value in row.items()}, y_true)
    out = _output_dir(args.out)
    _write_json(out / "metrics.json", report.to_json_dict())
    table = report.to_text_table()
    _write_text(out / "metrics.txt", table + "\n")
    _write_json(out / "routing_stats.json",
                routing_payload(model, model.routing_stats(probs)))
    print(table)
    print(f"wrote {out / 'metrics.json'}, {out / 'metrics.txt'}, "
          f"{out / 'routing_stats.json'}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    if model.cfg.global_standardize and not model.cfg.normalize:
        raise ConfigError(
            "forecast cannot use a checkpoint trained with global_standardize=true and "
            "normalize=false: the checkpoint does not keep the training split's statistics, "
            "so raw inputs would meet a model fitted to standardized ones"
        )
    # the checkpoint's date column unless the flag names one; "" names none
    date_column = model.cfg.date_column if args.date_column is None else args.date_column
    series = load_csv(args.input, date_column=date_column or None)
    lookback = model.cfg.lookback
    if series.length < lookback:
        raise DataError(
            f"forecast needs at least {lookback} rows of history, "
            f"got {series.length}"
        )
    x = series.values[-lookback:].T[None, :, :]
    pred = model.predict(x)[0]  # (channels, horizon)
    check_finite_prediction(pred, x, series.channel_names)
    out_path = Path(args.output)
    with _writing(out_path):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step"] + list(series.channel_names))
            for h in range(pred.shape[1]):
                writer.writerow([h + 1] + [repr(float(v)) for v in pred[:, h]])
    print(f"wrote {out_path} ({pred.shape[1]} steps x {pred.shape[0]} channels)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = config_from_args(args)
    out = _output_dir(args.out)
    _, views, (train_ws, val_ws, test_ws) = prepare_data(cfg)
    naive = naive_test_mse(test_ws)

    rows = []
    vcfgs = [dataclasses.replace(cfg, variant=variant) for variant in VARIANTS]
    for vcfg, model in zip(vcfgs, build_models(vcfgs, views[0])):
        result = train(model, train_ws, val_ws, vcfg)
        report = model.parameter_report()
        test_mse, stats = score(model, train_ws, test_ws)
        # constant gates carry no selection variability
        entropy = float(np.mean(stats.entropy_bits())) if stats is not None else 0.0
        rows.append({
            "variant": vcfg.variant,
            "test_mse": test_mse,
            "best_val_mse": result.best_val if result.best_val is not None else float("nan"),
            "trainable_params": report["trainable"],
            "adapter_params": report["adapters"],
            "routing_entropy_bits": entropy,
        })

    if test_ws.count:  # scored before anything is written
        check_finite_metrics({f"{r['variant']}.test_mse": r["test_mse"] for r in rows},
                             test_ws.view.array)
    path = out / "ablate.csv"
    _write_csv(path, rows)
    if test_ws.count:
        print(f"repeat-last naive test mse: {naive:.6f}")
    header = f"{'variant':18}{'test_mse':>12}{'val_mse':>12}{'trainable':>12}{'adapters':>10}{'entropy':>10}"
    print(header)
    for r in rows:
        print(f"{r['variant']:18}{r['test_mse']:>12.6f}{r['best_val_mse']:>12.6f}"
              f"{r['trainable_params']:>12}{r['adapter_params']:>10}"
              f"{r['routing_entropy_bits']:>10.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep_n(args) -> int:
    cfg = config_from_args(args)
    if cfg.variant not in ROUTED_VARIANTS:
        raise ConfigError(
            f"sweep-n requires a routed variant, got '{cfg.variant}'"
        )
    # every n is checked before the first one trains
    ncfgs = [dataclasses.replace(cfg, n_active=n).validate()
             for n in parse_n_values(args.n_values)]
    out = _output_dir(args.out)
    _, views, (train_ws, val_ws, test_ws) = prepare_data(cfg)
    naive_test_mse(test_ws)

    rows, payloads = [], []
    for ncfg, model in zip(ncfgs, build_models(ncfgs, views[0])):
        train(model, train_ws, val_ws, ncfg)
        test_mse, stats = score(model, train_ws, test_ws)
        payloads.append(routing_payload(model, stats))
        rows.append({
            "n_active": ncfg.n_active,
            "test_mse": test_mse,
            "mean_entropy_bits": float(np.mean(stats.entropy_bits())),
        })
    if test_ws.count:  # scored before anything is written
        check_finite_metrics({f"n_active={r['n_active']}.test_mse": r["test_mse"] for r in rows},
                             test_ws.view.array)
    for payload in payloads:
        _write_json(out / f"routing_n{payload['n_active']}.json", payload)
    path = out / "sweep_n.csv"
    _write_csv(path, rows)
    for r in rows:
        print(f"n={r['n_active']}  test_mse={r['test_mse']:.6f}  "
              f"entropy={r['mean_entropy_bits']:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = RunConfig(synthetic=args.kind, channels=args.channels, length=args.length,
                    seed=args.seed, noise=args.noise, frequency=args.frequency).validate()
    series = synth_generate(cfg.synthetic, cfg.channels, cfg.length, cfg.seed,
                            noise=cfg.noise, frequency=cfg.frequency)
    out_path = Path(args.output)
    with _writing(out_path):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_series_csv(series, out_path)
    print(f"wrote {out_path} ({series.length} rows x {series.channels} channels)")
    return EXIT_OK


# --------------------------------------------------------------- arg wiring


def add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="INI config file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named starting point")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                   help="override any config key (repeatable)")
    for f in dataclasses.fields(RunConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f"cfg_{f.name}",
                       default=None, metavar="V", help=argparse.SUPPRESS)


def collect_overrides(args) -> dict:
    overrides = {}
    for item in getattr(args, "set", []) or []:
        key, value = parse_override(item)
        overrides[key] = value
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return overrides


def config_from_args(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    return build_config(file_values, collect_overrides(args), args.preset)


def parse_n_values(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--n-values must be comma-separated integers, got '{text}'")
    if not values:
        raise ConfigError("--n-values lists no values")
    return values


def _config_args(p: argparse.ArgumentParser) -> None:
    """The arguments of train and ablate, which end those of eval."""
    add_config_flags(p)
    p.add_argument("--out", default="tokencast_out", help="output directory")


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mase-convention", choices=["window", "m4"], default="window")
    _config_args(p)


def _forecast_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="CSV with at least lookback rows")
    p.add_argument("--output", default="forecast.csv")
    p.add_argument("--date-column", default=None)


def _sweep_n_args(p: argparse.ArgumentParser) -> None:
    add_config_flags(p)
    p.add_argument("--n-values", default="1,2,3,4,5,6,7")
    p.add_argument("--out", default="tokencast_out", help="output directory")


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="sine_mixture")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--frequency", default="hourly")
    p.add_argument("--output", default="synth.csv")


# (name, help, argument builder, command), in the order --help lists them
VERBS = (
    ("train", "fit a model, write checkpoint + history", _config_args, cmd_train),
    ("eval", "metric report for a checkpoint on a dataset", _eval_args, cmd_eval),
    ("forecast", "predict beyond the end of a lookback CSV", _forecast_args, cmd_forecast),
    ("ablate", "compare all five variants on shared data", _config_args, cmd_ablate),
    ("sweep-n", "sweep the active-adapter count", _sweep_n_args, cmd_sweep_n),
    ("synth", "generate a synthetic series CSV + sidecar", _synth_args, cmd_synth),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`: every verb is listed, only argv's verb has arguments.

    argparse hands the rest of argv to the subparser named by the first
    token that does not start with '-' (the top level takes only -h), so the
    other verbs' arguments would never be read.
    """
    parser = argparse.ArgumentParser(
        prog="tokencast",
        description="Train and evaluate the channel-as-token forecaster.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verb = next((a for a in argv if not a.startswith("-")), None)
    for name, help_text, add_arguments, func in VERBS:
        p = sub.add_parser(name, help=help_text)
        if name == verb:
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        # overflow on the way to a non-finite loss or grad norm is reported
        # by the numeric guards (exit 4), not as numpy warnings on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # every verb prints only after writing its files, so the run is done;
        # fd 1 goes to devnull so that the interpreter's own flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ConfigError, MetricError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        if e.diagnostics:
            print(json.dumps(e.diagnostics, indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
