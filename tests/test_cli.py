"""End-to-end command-line behavior and exit-code contract."""

import argparse
import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokencast import checkpoint, cli, model
from tokencast.backbone import pretrain_then_freeze
from tokencast.checkpoint import read_header
from tokencast.config import RunConfig
from tokencast.data import load_csv
from tokencast.training import EVAL_BATCH, TrainResult, evaluate_mse

TINY = [
    "--length", "260", "--lookback", "16", "--horizon", "4", "--dim", "8",
    "--layers", "2", "--heads", "2", "--ffn-dim", "16", "--align-heads", "2",
    "--rank", "2", "--prompt-buckets", "16", "--epochs", "2",
]


def train_tiny(out, extra=()):
    code = cli.main(["train", *TINY, *extra, "--out", str(out)])
    assert code == 0
    return out / "checkpoint.ckpt"


def test_train_writes_three_artifacts(tmp_path):
    train_tiny(tmp_path)
    assert (tmp_path / "checkpoint.ckpt").exists()
    assert (tmp_path / "history.csv").exists()
    assert (tmp_path / "routing_stats.json").exists()
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,train_loss,val_loss,lb_loss")
    assert len(history) == 3  # header + 2 epochs


def test_train_synthetic_alias_smoke(tmp_path):
    code = cli.main(["train", *TINY, "--synthetic", "sine",
                     "--out", str(tmp_path)])
    assert code == 0


def test_seed_repeat_reproduces_history(tmp_path):
    train_tiny(tmp_path / "a", ["--seed", "7"])
    train_tiny(tmp_path / "b", ["--seed", "7"])
    assert (tmp_path / "a/history.csv").read_bytes() == (
        tmp_path / "b/history.csv"
    ).read_bytes()
    assert (tmp_path / "a/checkpoint.ckpt").read_bytes() == (
        tmp_path / "b/checkpoint.ckpt"
    ).read_bytes()


def test_few_shot_insufficiency_exits_3(tmp_path, capsys):
    code = cli.main(["train", *TINY, "--few-shot", "0.05",
                     "--out", str(tmp_path)])
    assert code == 3
    assert "insufficient few-shot data" in capsys.readouterr().err


def test_unknown_key_exits_2_listing_valid_keys(tmp_path, capsys):
    code = cli.main(["train", *TINY, "--set", "hidden_dim=32",
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and "lookback" in err


@pytest.mark.parametrize("flag, value", [
    ("--heads", "3"), ("--align-heads", "3"), ("--rank", "40"),
    ("--pretrain-mode", "bogus"), ("--trunk-dtype", "bogus"),
    ("--batch-size", "0"), ("--epochs", "-1"), ("--epochs", "0"), ("--prompt-buckets", "0"),
    ("--prompt-max-tokens", "0"), ("--prompt-template", "{bogus}"),
    ("--lr", "0"), ("--lr", "-1"), ("--weight-decay", "-1"), ("--clip-norm", "-1"),
    ("--layers", "0"), ("--layers", "-1"), ("--train-frac", "0"), ("--train-frac", "-0.5"),
    ("--val-frac", "-0.1"), ("--train-frac", "0.95"),
    ("--channels", "0"), ("--length", "-10"), ("--stride", "0"), ("--synthetic", "bogus"),
    ("--noise", "-1"), ("--noise", "nan"), ("--pretrain-steps", "-3"),
    ("--lambda-lb", "-1"), ("--loss-kind", "rmse"), ("--patience", "-2"), ("--seed", "-1"),
    ("--frequency", "bogus"), ("--noise", "inf"), ("--lr", "inf"), ("--weight-decay", "inf"),
    ("--lambda-lb", "inf"),
])
def test_structural_config_error_exits_2(tmp_path, capsys, flag, value):
    # TINY has dim 8 and ffn_dim 16: 3 heads cannot split it, rank caps at 4;
    # val_frac defaults to 0.1, so train_frac 0.95 overfills the split.
    # RunConfig.validate() rejects each value before any data is read
    code = cli.main(["train", *TINY, flag, value, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


# Edge values for a tiny fuzzed run: zeros, negatives, bad enums, and a
# few valid settings that switch on other paths (pretraining, smape, the
# prefix-prompt and frozen variants).
FUZZ_VALUES = {
    "layers": ["-1", "0", "1", "2"], "dim": ["-8", "0", "4"], "heads": ["-2", "0", "3"],
    "ffn-dim": ["0", "2"], "rank": ["-1", "0", "9"], "n-active": ["0", "7", "8"],
    "lookback": ["-4", "0", "1"], "horizon": ["-1", "0", "1"], "epochs": ["-1", "0"],
    "batch-size": ["-1", "0", "1"], "train-frac": ["-0.5", "0", "0.01", "1.0"],
    "val-frac": ["-0.1", "0", "0.9"], "length": ["-10", "0", "12"],
    "stride": ["-1", "0", "200"], "channels": ["-1", "0", "1"],
    "few-shot": ["0", "0.01", "2"], "lr": ["0", "-1", "1e300"],
    "variant": ["bogus", "v2_prefix_prompt", "v4_frozen"],
    "trunk-dtype": ["bogus", "float32"],
    "pretrain-mode": ["bogus", "pretrain_then_freeze"],
    "loss-kind": ["bogus", "smape"], "data-kind": ["bogus", "csv"],
}
FUZZ_BASE = [
    "--length", "120", "--lookback", "8", "--horizon", "2", "--dim", "8", "--layers", "1",
    "--heads", "2", "--ffn-dim", "8", "--align-heads", "2", "--rank", "1",
    "--prompt-buckets", "4", "--epochs", "1", "--batch-size", "8", "--pretrain-steps", "2",
]


@settings(max_examples=29, deadline=None, derandomize=True, database=None)
@example(verb="train", overrides=[("layers", "0")])  # crashed in the router stats
@given(verb=st.sampled_from(["train", "ablate", "sweep-n"]),
       overrides=st.lists(st.sampled_from([(k, v) for k, vs in FUZZ_VALUES.items() for v in vs]),
                          max_size=3, unique_by=lambda kv: kv[0]))
def test_fuzzed_config_keeps_exit_contract(verb, overrides):
    # any config either runs or is refused with a message: exit 0, 2, 3 or 4
    flags = [item for k, v in overrides for item in (f"--{k}", v)]
    extra = ["--n-values", "1,2"] if verb == "sweep-n" else []
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([verb, *FUZZ_BASE, *flags, *extra, "--out", out])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def assert_data_error(code, capsys):
    assert code == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("setting", ["global_standardize=true", "normalize=false"])
def test_train_with_other_scaling_runs(tmp_path, setting):
    out = tmp_path / "out"
    train_tiny(out, ["--set", setting])
    key, value = setting.split("=")
    assert read_header(out / "checkpoint.ckpt")["config"][key] is (value == "true")
    header, *rows = (out / "history.csv").read_text().splitlines()
    assert header.startswith("epoch,train_loss,val_loss,lb_loss") and len(rows) == 2
    for row in rows:
        assert all(np.isfinite(float(v)) for v in row.split(",")[1:])


def test_infinite_clip_norm_never_clips(tmp_path):
    assert RunConfig(clip_norm=math.inf).validate().clip_norm == math.inf
    train_tiny(tmp_path, ["--clip-norm", "inf"])


@pytest.mark.parametrize("normalize", ["true", "false"])
def test_forecast_refuses_globally_standardized_raw_model(tmp_path, capsys, normalize):
    # the checkpoint keeps no training statistics, so without instance norm
    # a raw history would meet a model fitted to standardized inputs
    ckpt = train_tiny(tmp_path / "run", ["--set", "global_standardize=true",
                                         "--set", f"normalize={normalize}"])
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--length", "40", "--output", str(hist)]) == 0
    capsys.readouterr()
    fc = tmp_path / "fc.csv"
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(hist),
                     "--date-column", "date", "--output", str(fc)])
    if normalize == "true":
        assert code == 0 and fc.exists()
        return
    assert code == 2 and not fc.exists()
    err = capsys.readouterr().err
    assert "config error:" in err and "global_standardize" in err and "Traceback" not in err


def test_global_standardization_ignores_the_test_split(tmp_path):
    src = tmp_path / "series.csv"
    assert cli.main(["synth", "--length", "120", "--output", str(src)]) == 0
    lines = src.read_text().splitlines()
    name, first, *rest = lines[-1].split(",")
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(lines[:-1] + [",".join([name, "1e6", *rest])]) + "\n")
    views = {}
    for path in (src, changed):
        cfg = RunConfig(data_kind="csv", csv_path=str(path), date_column="date",
                        global_standardize=True, lookback=16, horizon=4)
        _, views[path], _ = cli.prepare_data(cfg)
    (a_train, _, a_test), (b_train, _, b_test) = views[src], views[changed]
    assert a_train.length > 0
    np.testing.assert_array_equal(a_train.array, b_train.array)
    assert a_test.array[-1, 0] != b_test.array[-1, 0]


def test_missing_csv_exits_3(tmp_path, capsys):
    code = cli.main(["train", *TINY, "--data-kind", "csv",
                     "--csv-path", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
    assert_data_error(code, capsys)


def test_forecast_missing_input_exits_3(tmp_path, capsys):
    ckpt = train_tiny(tmp_path)
    code = cli.main(["forecast", "--checkpoint", str(ckpt),
                     "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "fc.csv")])
    assert_data_error(code, capsys)


def write_latin1_csv(path):
    path.write_bytes(b"t,x\n" + b"t0,1\xe9\n")  # e-acute in latin-1, not UTF-8
    return path


def test_train_non_utf8_csv_exits_3(tmp_path, capsys):
    csv_path = write_latin1_csv(tmp_path / "latin1.csv")
    code = cli.main(["train", *TINY, "--data-kind", "csv", "--csv-path", str(csv_path),
                     "--date-column", "t", "--out", str(tmp_path / "out")])
    assert "not UTF-8 text" in assert_data_error(code, capsys)


def test_forecast_non_utf8_input_exits_3(tiny_run, tmp_path, capsys):
    ckpt, _ = tiny_run
    csv_path = write_latin1_csv(tmp_path / "latin1.csv")
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(csv_path),
                     "--date-column", "t", "--output", str(tmp_path / "fc.csv")])
    assert "not UTF-8 text" in assert_data_error(code, capsys)


def test_training_split_without_windows_exits_3(tmp_path, capsys):
    # 200 training rows cannot hold one 300-step lookback
    code = cli.main(["train", *TINY, "--length", "400", "--train-frac", "0.5",
                     "--val-frac", "0", "--lookback", "300", "--out", str(tmp_path)])
    assert "no usable windows" in assert_data_error(code, capsys)


def test_repeated_channel_name_exits_3(tiny_run, tmp_path, capsys):
    # eval would key both channels named a into one per-series entry
    rows = "".join(f"2020-01-{i % 28 + 1:02d},{i},{2 * i},{3 * i}\n" for i in range(60))
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("date,a,a,b\n" + rows)
    code = cli.main(["train", *TINY, "--data-kind", "csv", "--csv-path", str(csv_path),
                     "--out", str(tmp_path / "out")])
    assert "repeated channel names" in assert_data_error(code, capsys)
    ckpt, _ = tiny_run
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(csv_path),
                     "--date-column", "date", "--output", str(tmp_path / "fc.csv")])
    assert "repeated channel names" in assert_data_error(code, capsys)


def test_unknown_trunk_dtype_exits_2(tmp_path, capsys):
    code = cli.main(["train", *TINY, "--set", "trunk_dtype=float16", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: trunk_dtype must be one of ('float64', 'float32')" in err
    assert "Traceback" not in err and not (tmp_path / "checkpoint.ckpt").exists()


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("case", ["directory", "latin1"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, case):
    path = tmp_path / "run.ini"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[data]\nprompt_template = caf\xe9\n")
    code = cli.main(["train", *TINY, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config file" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_file_and_override_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\ndim = 8\nlayers = 2\nheads = 2\nffn_dim = 16\n"
                   "align_heads = 2\nrank = 2\nprompt_buckets = 16\n"
                   "[data]\nlength = 260\nlookback = 16\nhorizon = 4\n"
                   "[training]\nepochs = 7\n")
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(ini), "--set", "epochs=1",
                     "--out", str(out)])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2  # override epochs=1 beat the file's 7


def test_config_file_with_byte_order_mark_trains(tmp_path):
    # Windows Notepad saves UTF-8 with a leading byte order mark
    text = "[model]\nn_active = 3\n[training]\nseed = 5\n"
    headers = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        ini = tmp_path / f"{name}.ini"
        ini.write_bytes(data)
        out = tmp_path / name
        assert cli.main(["train", *TINY, "--config", str(ini), "--out", str(out)]) == 0
        headers.append(read_header(out / "checkpoint.ckpt")["config"])
    assert headers[0] == headers[1]
    assert headers[1]["n_active"] == 3 and headers[1]["seed"] == 5


def test_numeric_overflow_exits_4(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", *TINY, "--lr", "1e200", "--clip-norm", "0",
                         "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err and "pred_max" in err


@pytest.mark.parametrize("lr", ["1", "1e4", "1e9"])
def test_finite_divergence_exits_4(tmp_path, capsys, lr):
    # losses stay finite but grow: 0.91, then 2.8e6 at lr 1, 2.8e30 at lr 1e4
    # and 2.8e60 at lr 1e9; the guard stops each run at its second step
    code = cli.main(["train", "--synthetic", "sine", "--length", "300", "--epochs", "1",
                     "--lr", lr, "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: diverging loss at epoch 0 step 1\n")
    assert '"loss_limit"' in err and "Traceback" not in err
    assert not (tmp_path / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("wiggle", [0.0, 1e-9], ids=["constant", "nearly_constant"])
def test_near_zero_loss_does_not_trip_the_divergence_guard(tmp_path, wiggle):
    rows = "".join(f"t{i},{3.5 + wiggle * math.sin(i / 5)!r},-2.0\n" for i in range(260))
    path = tmp_path / "flat.csv"
    path.write_text("date,a,b\n" + rows)
    out = tmp_path / "out"
    code = cli.main(["train", *TINY, "--data-kind", "csv", "--csv-path", str(path),
                     "--lambda-lb", "0", "--out", str(out)])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) < 1e-12 for row in history)


@pytest.mark.parametrize("variant", ["v4_frozen", "full"])
def test_flat_first_batch_does_not_zero_the_divergence_bound(tmp_path, variant):
    # seed 2 draws a first batch of flat windows only: its loss is exactly 0,
    # and a bound of 1e6 times that stopped the next ordinary step
    rows = "".join(f"t{i},{5.0 if i < 500 else 5.0 + math.sin(i / 7)!r}\n" for i in range(900))
    path = tmp_path / "flat.csv"
    path.write_text("date,a\n" + rows)
    code = cli.main(["train", "--data-kind", "csv", "--csv-path", str(path), "--lookback", "32",
                     "--horizon", "8", "--epochs", "1", "--batch-size", "4", "--lambda-lb", "0",
                     "--variant", variant, "--seed", "2", "--out", str(tmp_path / "out")])
    assert code == 0


def test_diverging_gradient_norm_exits_4(tmp_path, capsys):
    # a series of scale 1e150: the first loss stays finite (about 6e299) while
    # the squared grad norm overflows
    rows = "".join(f"t{i},{1e150 * math.sin(i / 7)!r},{1e150 * math.cos(i / 5)!r}\n"
                   for i in range(300))
    path = tmp_path / "huge.csv"
    path.write_text("date,a,b\n" + rows)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--data-kind", "csv", "--csv-path", str(path),
                         "--epochs", "1", "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "grad" in err and "Traceback" not in err
    assert err.startswith("numeric failure: non-finite gradient norm at epoch 0 step 0\n")


def test_numeric_failure_emits_no_runtime_warning(tmp_path, capsys):
    # stderr holds the message and the diagnostics, no numpy warning lines
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--synthetic", "sine", "--length", "120", "--lookback", "16",
                         "--horizon", "4", "--epochs", "1", "--lr", "1e200", "--clip-norm", "0",
                         "--out", str(tmp_path)])
    assert code == 4
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.startswith("numeric failure")


def test_eval_writes_reports(tmp_path, capsys):
    ckpt = train_tiny(tmp_path)
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["horizon"] == 4
    assert metrics["aggregate"]["mse"] > 0
    assert set(metrics["per_series"]) == {"ch0", "ch1", "ch2"}
    assert (out / "metrics.txt").exists()
    routing = json.loads((out / "routing_stats.json").read_text())
    assert routing["routed"] is True
    assert "series" in capsys.readouterr().out


def test_eval_horizon_mismatch_exits_2(tmp_path, capsys):
    ckpt = train_tiny(tmp_path)
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--horizon", "8",
                     "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "horizon mismatch" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_3(tmp_path):
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path)])
    assert code == 3


def test_eval_corrupt_checkpoint_header_exits_3(tmp_path, capsys):
    ckpt = train_tiny(tmp_path / "run")
    raw = ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:12] + b"!" + raw[13:])  # first header byte: '{' -> '!'
    code = cli.main(["eval", "--checkpoint", str(bad), *TINY, "--out", str(tmp_path)])
    assert code == 3
    assert "corrupt checkpoint header" in capsys.readouterr().err


def test_eval_daily_frequency_reports_mase_owa(tmp_path):
    # daily seasonality (s=7) fits inside lookback 16 and horizon 16
    out = tmp_path / "train"
    code = cli.main(["train", *TINY[:4], "--horizon", "16", "--dim", "8",
                     "--layers", "2", "--heads", "2", "--ffn-dim", "16",
                     "--align-heads", "2", "--rank", "2", "--prompt-buckets",
                     "16", "--epochs", "1", "--frequency", "daily",
                     "--out", str(out)])
    assert code == 0
    ev = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--out", str(ev)])
    assert code == 0
    metrics = json.loads((ev / "metrics.json").read_text())
    assert "mase" in metrics["aggregate"]
    assert "owa" in metrics["aggregate"]


def test_forecast_round_trip(tmp_path):
    ckpt = train_tiny(tmp_path)
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--kind", "sine_mixture", "--channels", "3",
                     "--length", "40", "--output", str(hist)]) == 0
    fc = tmp_path / "fc.csv"
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(hist),
                     "--date-column", "date", "--output", str(fc)])
    assert code == 0
    lines = fc.read_text().strip().splitlines()
    assert lines[0] == "step,ch0,ch1,ch2"
    assert len(lines) == 5  # header + horizon rows
    row = lines[1].split(",")
    assert row[0] == "1" and all(np.isfinite(float(v)) for v in row[1:])


def test_forecast_short_history_exits_3(tmp_path, capsys):
    ckpt = train_tiny(tmp_path)
    hist = tmp_path / "short.csv"
    assert cli.main(["synth", "--length", "8", "--output", str(hist)]) == 0
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(hist),
                     "--date-column", "date", "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert "at least 16 rows" in capsys.readouterr().err


def test_forecast_version_1_checkpoint_exits_3(tmp_path, capsys):
    # version 1 files also held a zero bias per trunk linear
    ckpt = train_tiny(tmp_path / "run")
    raw = ckpt.read_bytes()
    old = tmp_path / "v1.ckpt"
    old.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--length", "40", "--output", str(hist)]) == 0
    capsys.readouterr()
    code = cli.main(["forecast", "--checkpoint", str(old), "--input", str(hist),
                     "--date-column", "date", "--output", str(tmp_path / "fc.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "version" in err and "Traceback" not in err


def test_forecast_corrupt_tensor_name_exits_3(tmp_path, capsys):
    ckpt = train_tiny(tmp_path / "run")
    raw = bytearray(ckpt.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, 8)
    raw[12 + hlen + 4 + 2] = 0xFF  # first byte of the first tensor name
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--length", "40", "--output", str(hist)]) == 0
    capsys.readouterr()
    code = cli.main(["forecast", "--checkpoint", str(bad), "--input", str(hist),
                     "--date-column", "date", "--output", str(tmp_path / "fc.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "tensor name" in err and "Traceback" not in err


def test_ablate_table_contract(tmp_path, capsys):
    out = tmp_path / "abl"
    code = cli.main(["ablate", *TINY, "--epochs", "1", "--out", str(out)])
    assert code == 0
    rows = (out / "ablate.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert rows[0].startswith("variant,")
    table = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in rows[1:]}
    assert set(table) == {"full", "v1_no_align", "v2_prefix_prompt",
                          "v3_static_lora", "v4_frozen"}
    assert table["v4_frozen"]["adapter_params"] == "0"
    assert float(table["v3_static_lora"]["routing_entropy_bits"]) == 0.0
    assert float(table["v4_frozen"]["routing_entropy_bits"]) == 0.0
    assert int(table["full"]["trainable_params"]) > int(
        table["v4_frozen"]["trainable_params"]
    )
    assert "repeat-last naive" in capsys.readouterr().out


def test_sweep_n_exports_balanced_frequencies(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep-n", *TINY, "--epochs", "1", "--n-values", "1,4",
                     "--out", str(out)])
    assert code == 0
    rows = (out / "sweep_n.csv").read_text().strip().splitlines()
    assert rows[0] == "n_active,test_mse,mean_entropy_bits"
    assert len(rows) == 3
    for n in (1, 4):
        payload = json.loads((out / f"routing_n{n}.json").read_text())
        assert payload["n_active"] == n
        for layer in payload["layers"]:
            total = sum(layer["frequency"].values())
            assert abs(total - 1.0) <= 1e-10


@pytest.mark.parametrize("verb", [["ablate"], ["sweep-n", "--n-values", "1,2,4"]],
                         ids=["ablate", "sweep-n"])
def test_multi_model_verbs_pretrain_one_trunk(tmp_path, monkeypatch, verb):
    # pretraining reads neither the variant nor n_active: every model shares one trunk
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return pretrain_then_freeze(*args, **kwargs)

    monkeypatch.setattr(cli, "pretrain_then_freeze", counting)
    code = cli.main([*verb, *TINY, "--epochs", "1", "--pretrain-mode", "pretrain_then_freeze",
                     "--pretrain-steps", "2", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("verb", [["ablate"], ["sweep-n", "--n-values", "1,2,4"]],
                         ids=["ablate", "sweep-n"])
def test_multi_model_verbs_build_one_trunk(tmp_path, monkeypatch, verb):
    # later models take the first one's trunk instead of drawing their own
    built = []

    class CountingBackbone(model.Backbone):
        def __init__(self, cfg):
            built.append(cfg.variant)
            super().__init__(cfg)

    monkeypatch.setattr(model, "Backbone", CountingBackbone)
    code = cli.main([*verb, *TINY, "--epochs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize("verb, models", [(["ablate"], 5), (["sweep-n", "--n-values", "1,2"], 2)],
                         ids=["ablate", "sweep-n"])
def test_multi_model_verbs_forward_the_test_split_once(tmp_path, monkeypatch, verb, models):
    # training is stubbed out, so every forward left scores the test split:
    # one pass per model gives its mse and its routing stats
    forwarded, built = [], []
    forward_array = model.Forecaster.forward_array

    def counting(self, x):
        forwarded.append(len(x))
        return forward_array(self, x)

    monkeypatch.setattr(model.Forecaster, "forward_array", counting)
    monkeypatch.setattr(cli, "train", lambda m, *args: built.append(m) or TrainResult())
    code = cli.main([*verb, *TINY, "--length", "400", "--out", str(tmp_path)])
    assert code == 0
    _, _, (_, _, test_ws) = cli.prepare_data(RunConfig(length=400, lookback=16, horizon=4))
    # several blocks of evaluate_mse's batch size, the last one short
    assert test_ws.count > EVAL_BATCH and test_ws.count % EVAL_BATCH
    assert sum(forwarded) == models * test_ws.count
    # the written mse is evaluate_mse's, bit for bit
    with open(next(tmp_path.glob("*.csv"))) as fh:
        written = [float(row["test_mse"]) for row in csv.DictReader(fh)]
    assert written == [evaluate_mse(m, test_ws) for m in built]


@pytest.mark.parametrize("verb, scored", [
    (["eval"], ["test"]),
    (["train", "--variant", "full"], ["train", "test"]),
    (["train", "--variant", "v4_frozen"], ["test"]),
], ids=["eval", "train-full", "train-v4_frozen"])
def test_single_model_verbs_forward_each_scored_split_once(tiny_run, tmp_path, monkeypatch,
                                                           verb, scored):
    # training is stubbed out, so every forward left scores a split: the
    # test split, and for a routed model the training split's routing
    forwarded = []
    forward_array = model.Forecaster.forward_array

    def counting(self, x):
        forwarded.append(len(x))
        return forward_array(self, x)

    history = [{"epoch": 0, "train_loss": 0.0, "val_loss": None, "lb_loss": 0.0,
                "entropy": [0.0, 0.0]}]
    monkeypatch.setattr(model.Forecaster, "forward_array", counting)
    monkeypatch.setattr(cli, "train", lambda *args: TrainResult(history=history, epochs_run=1))
    argv = [*verb, "--checkpoint", str(tiny_run[0])] if verb == ["eval"] else [*verb, *TINY]
    assert cli.main([*argv, "--length", "400", "--out", str(tmp_path)]) == 0
    _, _, windows = cli.prepare_data(RunConfig(length=400, lookback=16, horizon=4))
    counts = dict(zip(["train", "val", "test"], (ws.count for ws in windows)))
    assert counts["test"] > EVAL_BATCH and counts["train"] > EVAL_BATCH
    assert sum(forwarded) == sum(counts[split] for split in scored)


def test_sweep_n_rejects_bad_values(tmp_path, capsys):
    assert cli.main(["sweep-n", *TINY, "--n-values", "0,9"]) == 2
    assert cli.main(["sweep-n", *TINY, "--n-values", "abc"]) == 2
    assert cli.main(["sweep-n", *TINY, "--variant", "v4_frozen",
                     "--n-values", "1"]) == 2
    assert "routed variant" in capsys.readouterr().err


def test_synth_deterministic_and_sidecar(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert cli.main(["synth", "--kind", "ar2", "--channels", "2",
                         "--length", "64", "--seed", "3",
                         "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sidecar = json.loads((tmp_path / "a.json").read_text())
    assert sidecar["kind"] == "ar2"


@pytest.mark.parametrize("flag, value", [
    ("--kind", "brownian"), ("--length", "-5"), ("--frequency", "bogus"), ("--noise", "inf"),
], ids=["kind", "length", "frequency", "noise"])
def test_synth_bad_config_exits_2(tmp_path, capsys, flag, value):
    # synth checks its values as train does, before it writes anything
    out = tmp_path / "x.csv"
    code = cli.main(["synth", flag, value, "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def child_env():
    # the child imports the same tokencast as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tokencast.cli", "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    for verb in ("train", "eval", "forecast", "ablate", "sweep-n", "synth"):
        assert verb in proc.stdout


def test_preset_flag_applies(tmp_path, capsys):
    # appendix preset asks for dim 512; overriding keeps the run tiny while
    # proving the preset was read (its horizon of 96 shows through)
    code = cli.main(["train", "--preset", "appendix", *TINY,
                     "--set", "length=400", "--out", str(tmp_path)])
    assert code == 0
    header = json.loads(
        (tmp_path / "routing_stats.json").read_text()
    )
    assert header["routed"] is True
    cfg = read_header(tmp_path / "checkpoint.ckpt")["config"]
    assert cfg["dim"] == 8  # direct flag beat the preset
    assert cfg["horizon"] == 4
    assert cfg["lookback"] == 16


# ------------------------------------------------------------ parser pins

HELP = {
    None: """\
usage: tokencast [-h] {train,eval,forecast,ablate,sweep-n,synth} ...

Train and evaluate the channel-as-token forecaster.

positional arguments:
  {train,eval,forecast,ablate,sweep-n,synth}
    train               fit a model, write checkpoint + history
    eval                metric report for a checkpoint on a dataset
    forecast            predict beyond the end of a lookback CSV
    ablate              compare all five variants on shared data
    sweep-n             sweep the active-adapter count
    synth               generate a synthetic series CSV + sidecar

options:
  -h, --help            show this help message and exit
""",
    'train': """\
usage: tokencast train [-h] [--config FILE]
                       [--preset {appendix,desk,main_text}] [--set KEY=VALUE]
                       [--out OUT]

options:
  -h, --help            show this help message and exit
  --config FILE         INI config file
  --preset {appendix,desk,main_text}
                        named starting point
  --set KEY=VALUE       override any config key (repeatable)
  --out OUT             output directory
""",
    'eval': """\
usage: tokencast eval [-h] --checkpoint CHECKPOINT
                      [--mase-convention {window,m4}] [--config FILE]
                      [--preset {appendix,desk,main_text}] [--set KEY=VALUE]
                      [--out OUT]

options:
  -h, --help            show this help message and exit
  --checkpoint CHECKPOINT
  --mase-convention {window,m4}
  --config FILE         INI config file
  --preset {appendix,desk,main_text}
                        named starting point
  --set KEY=VALUE       override any config key (repeatable)
  --out OUT             output directory
""",
    'forecast': """\
usage: tokencast forecast [-h] --checkpoint CHECKPOINT --input INPUT
                          [--output OUTPUT] [--date-column DATE_COLUMN]

options:
  -h, --help            show this help message and exit
  --checkpoint CHECKPOINT
  --input INPUT         CSV with at least lookback rows
  --output OUTPUT
  --date-column DATE_COLUMN
""",
    'ablate': """\
usage: tokencast ablate [-h] [--config FILE]
                        [--preset {appendix,desk,main_text}] [--set KEY=VALUE]
                        [--out OUT]

options:
  -h, --help            show this help message and exit
  --config FILE         INI config file
  --preset {appendix,desk,main_text}
                        named starting point
  --set KEY=VALUE       override any config key (repeatable)
  --out OUT             output directory
""",
    'sweep-n': """\
usage: tokencast sweep-n [-h] [--config FILE]
                         [--preset {appendix,desk,main_text}]
                         [--set KEY=VALUE] [--n-values N_VALUES] [--out OUT]

options:
  -h, --help            show this help message and exit
  --config FILE         INI config file
  --preset {appendix,desk,main_text}
                        named starting point
  --set KEY=VALUE       override any config key (repeatable)
  --n-values N_VALUES
  --out OUT             output directory
""",
    'synth': """\
usage: tokencast synth [-h] [--kind KIND] [--channels CHANNELS]
                       [--length LENGTH] [--seed SEED] [--noise NOISE]
                       [--frequency FREQUENCY] [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --kind KIND
  --channels CHANNELS
  --length LENGTH
  --seed SEED
  --noise NOISE
  --frequency FREQUENCY
  --output OUTPUT
""",
}

USAGE = HELP[None].splitlines(keepends=True)[0]
REQUIRED = {"eval": ["--checkpoint", "c"], "forecast": ["--checkpoint", "c", "--input", "i"]}
CONFIG_VERBS = ("train", "eval", "ablate", "sweep-n")


def run_main(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse exits on --help and on usage errors
        return e.code


def usage(verb):
    # the usage block that opens the verb's help
    return HELP[verb].split("\n\n")[0] + "\n"


USAGE_CASES = [  # (argv, exit code, stdout, stderr)
    ([], 2, "", USAGE + "tokencast: error: the following arguments are required: verb\n"),
    (["--help"], 0, HELP[None], ""),
    (["bogus"], 2, "", USAGE + "tokencast: error: argument verb: invalid choice: 'bogus' "
                              "(choose from 'train', 'eval', 'forecast', 'ablate', 'sweep-n', "
                              "'synth')\n"),
    *[([verb, "--help"], 0, HELP[verb], "") for verb in HELP if verb],
    *[([verb, *REQUIRED.get(verb, []), "--bogus", "1"], 2, "",
       USAGE + "tokencast: error: unrecognized arguments: --bogus 1\n") for verb in HELP if verb],
    (["forecast", *REQUIRED["forecast"], "--lr", "1"], 2, "",
     USAGE + "tokencast: error: unrecognized arguments: --lr 1\n"),
    (["train", "--epo"], 2, "",
     usage("train") + "tokencast train: error: argument --epochs: expected one argument\n"),
    (["train", "--epo", "0"], 2, "", "config error: epochs must be >= 1, got 0\n"),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_CASES,
                         ids=[" ".join(case[0]) or "no-arguments" for case in USAGE_CASES])
def test_cli_usage_output(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert run_main(argv) == code
    assert capsys.readouterr() == (out, err)


def parser_with_every_verb():
    """The parser with all six verbs' arguments built, whatever argv names."""
    parser = cli.build_parser([])
    (verbs,) = [a for a in parser._actions if a.dest == "verb"]
    for name, _, add_arguments, func in cli.VERBS:
        add_arguments(verbs.choices[name])
        verbs.choices[name].set_defaults(func=func)
    return parser


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(argv=["-h", "train"])
@example(argv=["--", "train", "-h"])
@example(argv=["-1", "train"])
@example(argv=["train", "forecast", "-h"])
@given(argv=st.lists(st.sampled_from([
    "train", "eval", "forecast", "synth", "trai", "-h", "--", "-1", "-x", "--epo", "3",
    "--set", "lr=1", "--lr", "--checkpoint", "c", "--input", "--kind", "ar2", "--out=o",
]), max_size=6))
def test_parser_matches_one_with_every_verb_built(argv):
    # argparse gives the rest of argv to the first token not starting with
    # '-', so building only that verb's arguments changes no outcome
    outcomes = []
    for parser in (cli.build_parser(argv), parser_with_every_verb()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as e:
                result = e.code
        outcomes.append((result, out.getvalue(), err.getvalue()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("verb", CONFIG_VERBS)
def test_every_config_field_parses_as_a_flag(verb):
    names = [f.name for f in dataclasses.fields(RunConfig)]
    argv = [verb, *REQUIRED.get(verb, [])]
    for i, name in enumerate(names):
        argv += [f"--{name.replace('_', '-')}", f"v{i}"]
    args = cli.build_parser(argv).parse_args(argv)
    assert cli.collect_overrides(args) == {name: f"v{i}" for i, name in enumerate(names)}


@pytest.mark.parametrize("verb, n_flags", [
    ("train", 45), ("eval", 47), ("forecast", 4), ("ablate", 45), ("sweep-n", 46), ("synth", 7),
])
def test_parser_builds_only_its_verbs_arguments(monkeypatch, verb, n_flags):
    # counts, unlike timings on a shared host, are exact: the parser of a
    # forecast call adds its 4 flags and none of the hidden RunConfig flags
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording_add_argument(self, *names, **kwargs):
        added.append(kwargs.get("dest", names[0]))
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording_add_argument)
    cli.build_parser([verb, *REQUIRED.get(verb, [])])
    assert added.count("-h") == 1 + len(cli.VERBS)  # the top level and every verb keep help
    assert len(added) - added.count("-h") == n_flags
    config_flags = [dest for dest in added if dest.startswith("cfg_")]
    assert len(config_flags) == (len(dataclasses.fields(RunConfig)) if verb in CONFIG_VERBS else 0)


# ------------------------------------------------------------ output and input files


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny checkpoint and a 40-row history CSV that tests only read."""
    root = tmp_path_factory.mktemp("tiny_run")
    ckpt = train_tiny(root)
    hist = root / "hist.csv"
    assert cli.main(["synth", "--length", "40", "--output", str(hist)]) == 0
    return ckpt, hist


@pytest.mark.parametrize("case", [
    "train", "eval", "forecast", "ablate", "sweep-n", "synth",
    "train_checkpoint_is_a_directory", "forecast_output_is_a_directory",
])
def test_unwritable_output_exits_3(tiny_run, tmp_path, capsys, case):
    ckpt, hist = tiny_run
    blocker = tmp_path / "file"  # a regular file where a directory is needed
    blocker.write_text("")
    taken = tmp_path / "taken"  # a directory where a file is needed
    (taken / "checkpoint.ckpt").mkdir(parents=True)
    forecast = ["forecast", "--checkpoint", ckpt, "--input", hist, "--date-column", "date"]
    argv = {
        "train": ["train", *TINY, "--out", blocker],
        "eval": ["eval", "--checkpoint", ckpt, "--out", blocker],
        "forecast": [*forecast, "--output", blocker / "o.csv"],
        "ablate": ["ablate", *TINY, "--out", blocker],
        "sweep-n": ["sweep-n", *TINY, "--n-values", "1", "--out", blocker],
        "synth": ["synth", "--length", "40", "--output", blocker / "o.csv"],
        "train_checkpoint_is_a_directory": ["train", *TINY, "--out", taken],
        "forecast_output_is_a_directory": [*forecast, "--output", taken],
    }[case]
    code = cli.main([str(a) for a in argv])
    assert "data error: cannot write" in assert_data_error(code, capsys)


class FullDisk:
    """A checkpoint file that takes `room` bytes, then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, b):
        self.room -= memoryview(b).nbytes
        if self.room < 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(b)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_checkpoint_write_keeps_the_last_one(tmp_path, capsys, monkeypatch):
    ckpt = train_tiny(tmp_path)
    before, names = ckpt.read_bytes(), sorted(p.name for p in tmp_path.iterdir())
    # the disk fills partway through the payloads of the next save
    monkeypatch.setattr(checkpoint, "open", lambda f, mode: FullDisk(open(f, mode), 2000),
                        raising=False)
    code = cli.main(["train", *TINY, "--seed", "1", "--out", str(tmp_path)])
    assert "No space left on device" in assert_data_error(code, capsys)
    assert ckpt.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names  # no temp file left


@pytest.mark.parametrize("verb", ["eval", "synth"])
def test_closed_stdout_keeps_exit_contract(tiny_run, tmp_path, verb):
    # `tokencast eval ... | head -1`: the reader is gone before the verb
    # prints, and the verb prints only after writing its files
    ckpt, _ = tiny_run
    argv, written = {
        "eval": (["eval", "--checkpoint", ckpt, "--out", tmp_path],
                 ["metrics.json", "metrics.txt", "routing_stats.json"]),
        "synth": (["synth", "--length", "40", "--output", tmp_path / "s.csv"], ["s.csv"]),
    }[verb]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "tokencast.cli", *map(str, argv)],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=child_env())
    finally:
        os.close(write)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    for name in written:
        assert (tmp_path / name).stat().st_size > 0


def test_forecast_reads_csv_with_bom(tiny_run, tmp_path):
    # an Excel-style UTF-8 export opens with a byte order mark
    ckpt, hist = tiny_run
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + hist.read_bytes())
    plain, marked = load_csv(hist, date_column="date"), load_csv(bom, date_column="date")
    assert np.array_equal(plain.values, marked.values)
    assert plain.channel_names == marked.channel_names
    outputs = []
    for src in (hist, bom):
        out = tmp_path / f"fc_{src.stem}.csv"
        assert cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(src),
                         "--date-column", "date", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("verb", ["forecast", "eval"])
def test_non_finite_prediction_exits_4_and_writes_nothing(tiny_run, tmp_path, capsys, verb):
    # 1e308 is a finite input, but a lookback holding it forecasts inf
    ckpt, hist = tiny_run
    header, *rows = hist.read_text().splitlines()
    cells = rows[30].split(",")  # in the last lookback and in every test window's
    cells[1] = "1e308"
    rows[30] = ",".join(cells)
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    argv = {
        "forecast": ["forecast", "--checkpoint", ckpt, "--input", huge, "--date-column", "date",
                     "--output", out / "fc.csv"],
        "eval": ["eval", "--checkpoint", ckpt, "--data-kind", "csv", "--csv-path", huge,
                 "--date-column", "date", "--out", out],
    }[verb]
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 4, err
    assert "numeric failure: non-finite prediction for channels ['ch0']" in err
    diagnostics = json.loads(err[err.index("{"):])
    assert diagnostics["channels"] == ["ch0"] and diagnostics["x_max"] == 1e308
    assert not out.exists()


def test_forecast_over_long_cell_exits_3_and_writes_nothing(tiny_run, tmp_path, capsys):
    ckpt, hist = tiny_run
    header, *rows = hist.read_text().splitlines()
    cells = rows[20].split(",")
    cells[1] = "1" * 140000  # over the csv module's field size limit
    rows[20] = ",".join(cells)
    big = tmp_path / "big.csv"
    big.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out" / "fc.csv"
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(big),
                     "--date-column", "date", "--output", str(out)])
    assert "line 22: field larger than field limit" in assert_data_error(code, capsys)
    assert not out.parent.exists()


def test_eval_non_finite_metric_exits_4_and_writes_nothing(tiny_run, tmp_path, capsys):
    # 1e308 in the last row is only ever a truth: every prediction is
    # finite, but its squared error overflows
    ckpt, hist = tiny_run
    header, *rows = hist.read_text().splitlines()
    cells = rows[-1].split(",")
    cells[1] = "1e308"
    rows[-1] = ",".join(cells)
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--data-kind", "csv", "--csv-path",
                     str(huge), "--date-column", "date", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert "numeric failure: non-finite metrics ['ch0.mse'" in err and "Traceback" not in err
    diagnostics = json.loads(err[err.index("{"):])
    assert "ALL.mse" in diagnostics["metrics"] and diagnostics["y_max"] == 1e308
    assert not out.exists()


@pytest.mark.parametrize("verb", [["train"], ["ablate"], ["sweep-n", "--n-values", "1,2"]],
                         ids=["train", "ablate", "sweep-n"])
def test_non_finite_test_mse_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch, verb):
    # 1e308 three rows from the end is only ever a test truth: training and
    # validation never meet it, but every squared error against it overflows,
    # the repeat-last baseline's too, so the verb exits before any model trains
    fits = []
    train = cli.train
    monkeypatch.setattr(cli, "train", lambda *a, **kw: fits.append(1) or train(*a, **kw))
    series = tmp_path / "series.csv"
    assert cli.main(["synth", "--length", "300", "--output", str(series)]) == 0
    header, *rows = series.read_text().splitlines()
    cells = rows[-3].split(",")
    cells[1] = "1e308"
    rows[-3] = ",".join(cells)
    series.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    code = cli.main([*verb, *TINY, "--epochs", "1", "--data-kind", "csv", "--csv-path",
                     str(series), "--date-column", "date", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    metrics = ["repeat_last.test_mse"]
    assert f"numeric failure: non-finite metrics {metrics}" in err and "Traceback" not in err
    diagnostics = json.loads(err[err.index("{"):])
    assert diagnostics["metrics"] == metrics and diagnostics["y_max"] == 1e308
    assert not fits
    assert not any(out.iterdir())  # the directory is made up front, and stays empty


@pytest.mark.parametrize("verb", [["train"], ["ablate"], ["sweep-n", "--n-values", "1,2"]],
                         ids=["train", "ablate", "sweep-n"])
def test_non_finite_val_mse_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch, verb):
    # 1e308 in row 212 of 300 is only ever a validation truth or input:
    # training and the test split never meet it, so the first fit's first
    # validation pass is non-finite and the verb stops there
    fits = []
    train = cli.train
    monkeypatch.setattr(cli, "train", lambda *a, **kw: fits.append(1) or train(*a, **kw))
    series = tmp_path / "series.csv"
    assert cli.main(["synth", "--length", "300", "--output", str(series)]) == 0
    header, *rows = series.read_text().splitlines()
    cells = rows[212].split(",")
    cells[1] = "1e308"
    rows[212] = ",".join(cells)
    series.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    code = cli.main([*verb, *TINY, "--data-kind", "csv", "--csv-path", str(series),
                     "--date-column", "date", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert "numeric failure: non-finite validation mse at epoch 0" in err
    assert "Traceback" not in err
    diagnostics = json.loads(err[err.index("{"):])
    assert diagnostics["epoch"] == 0 and not math.isfinite(diagnostics["val_mse"])
    assert diagnostics["y_max"] == 1e308
    assert fits == [1]
    assert not any(out.iterdir())


def forecast_csv(ckpt, src, out, *flags):
    assert cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(src), *flags,
                     "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("column, stamp", [
    ("date", str),
    ("stamp", lambda i: f"2024-01-{i // 24 + 1:02d}T{i % 24:02d}:00"),
], ids=["numeric", "iso"])
def test_forecast_drops_the_checkpoints_date_column(tiny_run, tmp_path, column, stamp):
    # without --date-column the checkpoint's date_column is dropped, so a
    # numeric one is not forecast as one more channel
    ckpt, hist = tiny_run
    if column != "date":
        ckpt = train_tiny(tmp_path / "run", ["--set", f"date_column={column}"])
    header, *rows = hist.read_text().splitlines()
    dated = tmp_path / "dated.csv"
    dated.write_text("\n".join([header.replace("date", column, 1)] + [
        ",".join([stamp(i), *row.split(",")[1:]]) for i, row in enumerate(rows)]) + "\n")
    reference = forecast_csv(ckpt, hist, tmp_path / "ref.csv", "--date-column", "date")
    assert forecast_csv(ckpt, dated, tmp_path / "fc.csv") == reference
    assert reference.startswith(b"step,ch0,ch1,ch2\r\n")


def test_forecast_empty_date_column_reads_every_column(tiny_run, tmp_path, capsys):
    ckpt, hist = tiny_run
    values = tmp_path / "values.csv"  # the history without its date column
    values.write_text("".join(line.split(",", 1)[1] + "\n"
                              for line in hist.read_text().splitlines()))
    reference = forecast_csv(ckpt, hist, tmp_path / "ref.csv", "--date-column", "date")
    assert forecast_csv(ckpt, values, tmp_path / "fc.csv", "--date-column", "") == reference
    capsys.readouterr()
    code = cli.main(["forecast", "--checkpoint", str(ckpt), "--input", str(values),
                     "--output", str(tmp_path / "missing.csv")])
    assert "date column 'date' not in header" in assert_data_error(code, capsys)


@pytest.mark.parametrize("channels", [2, 5])
def test_forecast_takes_any_channel_count(tiny_run, tmp_path, channels):
    # each channel is one token, so a 3-channel checkpoint forecasts any
    # number of them; lookback and horizon are what must match
    ckpt, _ = tiny_run
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--channels", str(channels), "--length", "40",
                     "--output", str(hist)]) == 0
    header, *rows = forecast_csv(ckpt, hist, tmp_path / "fc.csv").decode().splitlines()
    assert header.split(",") == ["step", *load_csv(hist, date_column="date").channel_names]
    assert len(header.split(",")) == channels + 1 and len(rows) == 4


def test_eval_takes_any_channel_count(tiny_run, tmp_path):
    ckpt, _ = tiny_run
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--channels", "7", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert list(metrics["per_series"]) == [f"ch{i}" for i in range(7)]


def test_module_entry_point_forecasts_like_main(tiny_run, tmp_path):
    # a user's forecast is a fresh process, which builds the parser once
    ckpt, hist = tiny_run
    argv = ["forecast", "--checkpoint", str(ckpt), "--input", str(hist), "--date-column", "date"]
    assert cli.main([*argv, "--output", str(tmp_path / "main.csv")]) == 0
    proc = subprocess.run([sys.executable, "-m", "tokencast.cli", *argv,
                           "--output", str(tmp_path / "child.csv")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
