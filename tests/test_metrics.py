"""Metric oracles frozen by hand evaluation, plus report assembly."""

import json

import numpy as np
import pytest

from tokencast.metrics import (
    MetricError,
    MetricReport,
    build_report,
    mae,
    mape,
    mase,
    mse,
    naive_seasonal_forecast,
    seasonality_for,
    smape,
)

Y = np.array([1.0, 2.0])
YHAT = np.array([2.0, 2.0])


def test_hand_values_on_reference_pair():
    assert mse(Y, YHAT) == pytest.approx(0.5, abs=1e-9)
    assert mae(Y, YHAT) == pytest.approx(0.5, abs=1e-9)
    assert smape(Y, YHAT) == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert mape(Y, YHAT) == pytest.approx(50.0, abs=1e-9)


def test_perfect_forecast_is_zero_everywhere():
    y = np.array([3.0, -1.0, 2.0, 5.0])
    assert mse(y, y) == 0.0
    assert mae(y, y) == 0.0
    assert smape(y, y) == 0.0
    assert mape(y, y) == 0.0
    assert mase(y, y, s=1) == 0.0


def test_mase_hand_value():
    # denominator (1/2)(|3-1| + |2-3|) = 1.5, numerator (0+2+1)/3 = 1
    got = mase([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], s=1)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_mase_of_seasonal_naive_shifted_forecast():
    # a forecast repeating Y_{h-s} shares its error terms with the scaling
    # denominator; only the 1/H vs 1/(H-s) prefactors differ, so the ratio
    # lands exactly at (H-s)/H (the first s steps are made exact since they
    # have no in-horizon reference)
    rng = np.random.Generator(np.random.PCG64(0))
    y = rng.normal(size=12)
    s = 3
    y_hat = np.concatenate([y[:s], y[:-s]])
    assert mase(y, y_hat, s=s) == pytest.approx((12 - s) / 12, abs=1e-12)


def test_mase_m4_convention_hand_value():
    # in-sample diffs |2-1|, |4-2| -> denominator 1.5; numerator 1
    got = mase([5.0, 5.0], [4.0, 6.0], s=1, convention="m4", insample=[1.0, 2.0, 4.0])
    assert got == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_mase_errors():
    with pytest.raises(MetricError, match="horizon > seasonality"):
        mase([1.0, 2.0], [1.0, 2.0], s=2)
    with pytest.raises(MetricError, match="seasonally constant"):
        mase([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], s=1)
    with pytest.raises(MetricError, match="in-sample history"):
        mase([1.0, 2.0], [1.0, 2.0], s=1, convention="m4")
    with pytest.raises(MetricError, match="convention"):
        mase([1.0, 2.0], [1.0, 2.0], s=1, convention="naive")


def test_mape_rejects_zero_ground_truth():
    with pytest.raises(MetricError, match="zero"):
        mape([0.0, 1.0], [1.0, 1.0])


def test_smape_symmetric_mape_not():
    a, b = np.array([1.0, 5.0]), np.array([2.0, 4.0])
    assert smape(a, b) == pytest.approx(smape(b, a))
    assert mape([1.0], [2.0]) == pytest.approx(100.0)
    assert mape([2.0], [1.0]) == pytest.approx(50.0)


def test_smape_bounded_by_200():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(200):
        y = rng.normal(scale=10, size=8)
        y_hat = rng.normal(scale=10, size=8)
        val = smape(y, y_hat)
        assert 0.0 <= val <= 200.0 + 1e-12


def test_smape_zero_over_zero_counts_as_perfect():
    assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(MetricError, match="mismatch"):
        mse([1.0], [1.0, 2.0])


def test_seasonal_naive_forecast_indexing():
    assert list(naive_seasonal_forecast([9.0, 1.0, 2.0, 3.0], s=3, horizon=3)) == [
        1.0, 2.0, 3.0,
    ]
    # s=1 repeats the final observation
    assert list(naive_seasonal_forecast([4.0, 7.0], s=1, horizon=3)) == [7.0] * 3
    # wraps around past one cycle
    assert list(naive_seasonal_forecast([1.0, 2.0], s=2, horizon=5)) == [
        1.0, 2.0, 1.0, 2.0, 1.0,
    ]


def test_seasonal_naive_indexes_last_axis():
    # (windows, channels, lookback) blocks forecast each row on its own
    blocks = np.arange(60.0).reshape(2, 3, 10)
    pred = naive_seasonal_forecast(blocks, s=4, horizon=6)
    assert pred.shape == (2, 3, 6)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(
                pred[i, j], naive_seasonal_forecast(blocks[i, j], s=4, horizon=6)
            )


def test_seasonal_naive_exact_on_periodic_series():
    cycle = np.array([3.0, -1.0, 4.0, 1.0])
    series = np.tile(cycle, 6)
    pred = naive_seasonal_forecast(series[:16], s=4, horizon=8)
    assert smape(series[16:24], pred) == 0.0


def test_seasonal_naive_rejects_short_lookback():
    with pytest.raises(MetricError, match="shorter"):
        naive_seasonal_forecast([1.0, 2.0], s=3, horizon=2)


def test_seasonality_table():
    assert seasonality_for("hourly") == 24
    assert seasonality_for("daily") == 7
    assert seasonality_for("yearly") == 1
    assert seasonality_for("10min") == 144
    with pytest.raises(MetricError, match="unknown frequency"):
        seasonality_for("fortnightly")


# ------------------------------------------------------------ report builder


def block(vals):
    return np.asarray(vals, dtype=np.float64)


def test_report_aggregate_is_unweighted_mean():
    # two channels, one window each; hand-merged means
    y = block([[[1.0, 2.0, 4.0], [2.0, 4.0, 8.0]]])
    p = block([[[2.0, 2.0, 4.0], [2.0, 4.0, 6.0]]])
    rep = build_report(y, p, seasonality=1)
    for m in ("mse", "mae", "smape", "mape", "mase"):
        merged = np.mean([rep.per_series["ch0"][m], rep.per_series["ch1"][m]])
        assert rep.aggregate[m] == pytest.approx(merged)
    assert rep.per_series["ch0"]["mse"] == pytest.approx(1.0 / 3.0)
    assert rep.per_series["ch1"]["mse"] == pytest.approx(4.0 / 3.0)
    assert rep.horizon == 3 and rep.seasonality == 1


def test_report_multi_window_channel_mean():
    y = block([[[1.0, 2.0]], [[3.0, 5.0]]])  # two windows, one channel
    p = block([[[2.0, 2.0]], [[3.0, 5.0]]])
    rep = build_report(y, p, seasonality=1)
    # window metrics 0.5 and 0.0 average to 0.25
    assert rep.per_series["ch0"]["mse"] == pytest.approx(0.25)


def test_report_omits_undefined_metrics():
    y = block([[[0.0, 1.0], [5.0, 5.0]]])  # ch0 has a zero, ch1 is flat
    p = block([[[1.0, 1.0], [4.0, 6.0]]])
    rep = build_report(y, p, seasonality=1)
    assert "mape" not in rep.per_series["ch0"]
    assert "mase" not in rep.per_series["ch1"]  # seasonally constant
    assert "mape" not in rep.aggregate and "mase" not in rep.aggregate
    assert "mse" in rep.aggregate


def test_owa_one_when_forecaster_is_the_baseline():
    rng = np.random.Generator(np.random.PCG64(2))
    y = rng.normal(size=(4, 2, 6)) + 5.0
    naive = y + rng.normal(scale=0.5, size=y.shape)
    rep = build_report(y, naive, seasonality=2, naive_pred=naive)
    assert rep.aggregate["owa"] == pytest.approx(1.0, abs=1e-9)
    for row in rep.per_series.values():
        assert row["owa"] == pytest.approx(1.0, abs=1e-9)


def test_owa_zero_on_perfect_and_below_one_when_better():
    rng = np.random.Generator(np.random.PCG64(3))
    y = rng.normal(size=(3, 1, 6)) + 5.0
    naive = y + 1.0
    perfect = build_report(y, y.copy(), seasonality=2, naive_pred=naive)
    assert perfect.aggregate["owa"] == pytest.approx(0.0, abs=1e-12)
    better = build_report(y, y + 0.1, seasonality=2, naive_pred=naive)
    assert 0.0 < better.aggregate["owa"] < 1.0


def test_owa_absent_without_baseline_and_on_degenerate_baseline():
    y = block([[[1.0, 2.0, 3.0]]])
    rep = build_report(y, y + 1.0, seasonality=1)
    assert "owa" not in rep.aggregate
    # a zero-error baseline has smape and mase 0, so no ratio is defined
    rep = build_report(y, y + 1.0, seasonality=1, naive_pred=y.copy())
    assert "smape" in rep.aggregate and "mase" in rep.aggregate
    assert "owa" not in rep.aggregate and "owa" not in rep.per_series["ch0"]


def test_report_channel_names_and_custom_labels():
    y = block([[[1.0, 2.0], [3.0, 4.0]]])
    rep = build_report(y, y + 0.5, seasonality=1, channel_names=["load", "temp"])
    assert set(rep.per_series) == {"load", "temp"}


def test_report_json_and_table():
    y = block([[[1.0, 2.0], [3.0, 4.0]]])
    rep = build_report(y, y + 0.5, seasonality=1)
    parsed = json.loads(json.dumps(rep.to_json_dict()))
    assert parsed["horizon"] == 2
    assert parsed["aggregate"]["mse"] == pytest.approx(0.25)
    table = rep.to_text_table()
    lines = table.splitlines()
    assert lines[0].split() == ["series", "mse", "mae", "smape", "mape", "mase", "owa"]
    assert len(lines) == 4  # header, ch0, ch1, ALL
    assert lines[-1].startswith("ALL")
    assert "-" in lines[-1]  # owa column has no baseline


def test_report_shape_validation():
    with pytest.raises(MetricError, match="matching"):
        build_report(np.zeros((2, 1, 3)), np.zeros((2, 1, 4)), seasonality=1)
    with pytest.raises(MetricError, match="matching"):
        build_report(np.zeros((2, 3)), np.zeros((2, 3)), seasonality=1)


def test_report_m4_convention_uses_insample():
    y = block([[[5.0, 5.0]]])
    p = block([[[4.0, 6.0]]])
    hist = np.array([[1.0], [2.0], [4.0]])
    rep = build_report(y, p, seasonality=1, mase_convention="m4", insample=hist)
    assert rep.per_series["ch0"]["mase"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    with pytest.raises(MetricError, match="in-sample"):
        build_report(y, p, seasonality=1, mase_convention="m4")
