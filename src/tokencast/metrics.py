"""Forecast quality metrics and report assembly.

Scalar metrics operate on single horizon vectors. `build_report` applies
them across (windows, channels, horizon) prediction blocks, averaging per
channel and then across channels with equal weight. MASE defaults to
scaling by seasonal differences inside the evaluated horizon itself;
`convention="m4"` switches the denominator to the in-sample seasonal
naive error, which is the M4 competition definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

METRIC_NAMES = ("mse", "mae", "smape", "mape", "mase", "owa")

# periodicity per sampling frequency; "yearly" has no sub-period so s=1
SEASONALITY = {
    "hourly": 24,
    "daily": 7,
    "weekly": 52,
    "monthly": 12,
    "quarterly": 4,
    "yearly": 1,
    "15min": 96,
    "10min": 144,
}


class MetricError(ValueError):
    """A metric is undefined for the given inputs."""


def seasonality_for(frequency: str) -> int:
    if frequency not in SEASONALITY:
        raise MetricError(
            f"unknown frequency '{frequency}', choose from {sorted(SEASONALITY)}"
        )
    return SEASONALITY[frequency]


def _pair(y, y_hat):
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape != y_hat.shape:
        raise MetricError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise MetricError("empty input")
    return y, y_hat


def mse(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    return float(np.mean((y - y_hat) ** 2))


def mae(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def smape(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    num = np.abs(y - y_hat)
    den = np.abs(y) + np.abs(y_hat)
    # both terms zero means a perfect prediction of zero; count it as 0
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(200.0 * terms.mean())


def mape(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    if np.any(y == 0):
        raise MetricError("mape undefined: ground truth contains a zero")
    return float(100.0 * np.mean(np.abs(y - y_hat) / np.abs(y)))


def mase(y, y_hat, s: int, convention: str = "window", insample=None) -> float:
    """Mean absolute scaled error.

    convention="window" scales by the forecast window's own seasonal
    differences and needs H > s. convention="m4" scales by the seasonal naive
    error over a supplied in-sample history instead.
    """
    y, y_hat = _pair(y, y_hat)
    if s < 1:
        raise MetricError(f"seasonality must be >= 1, got {s}")
    if convention == "window":
        if y.size <= s:
            raise MetricError(
                f"mase needs horizon > seasonality, got H={y.size} s={s}"
            )
        denom = float(np.mean(np.abs(y[s:] - y[:-s])))
    elif convention == "m4":
        if insample is None:
            raise MetricError("m4 convention requires the in-sample history")
        hist = np.asarray(insample, dtype=np.float64).reshape(-1)
        if hist.size <= s:
            raise MetricError(
                f"in-sample history must exceed seasonality, got {hist.size} <= {s}"
            )
        denom = float(np.mean(np.abs(hist[s:] - hist[:-s])))
    else:
        raise MetricError(f"mase convention must be window or m4, got '{convention}'")
    if denom == 0.0:
        raise MetricError("mase undefined: seasonally constant target")
    return float(np.mean(np.abs(y - y_hat)) / denom)


def naive_seasonal_forecast(lookback, s: int, horizon: int) -> np.ndarray:
    """Repeat the last observed seasonal cycle across the horizon.

    Indexes the last axis, so (.., lookback) in gives (.., horizon) out.
    """
    lb = np.asarray(lookback, dtype=np.float64)
    n = lb.shape[-1]
    if s < 1 or n < s:
        raise MetricError(f"lookback length {n} shorter than seasonality {s}")
    h = np.arange(horizon)
    return lb[..., n - s + (h % s)]


@dataclass
class MetricReport:
    """Per-channel and aggregate metric values for one evaluation."""

    horizon: int
    seasonality: int
    per_series: dict[str, dict[str, float]] = field(default_factory=dict)
    aggregate: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "seasonality": self.seasonality,
            "per_series": self.per_series,
            "aggregate": self.aggregate,
        }

    def to_text_table(self) -> str:
        names = list(self.per_series) + ["ALL"]
        rows = list(self.per_series.values()) + [self.aggregate]
        width = max(6, *(len(n) for n in names))
        header = "series".ljust(width) + "".join(f"{m:>12}" for m in METRIC_NAMES)
        lines = [header]
        for name, row in zip(names, rows):
            cells = "".join(
                f"{row[m]:>12.4f}" if m in row else f"{'-':>12}" for m in METRIC_NAMES
            )
            lines.append(name.ljust(width) + cells)
        return "\n".join(lines)


def _channel_value(metric, y, y_hat, **kw):
    """Mean of a per-window metric over one channel; None when undefined."""
    try:
        vals = [metric(y[w], y_hat[w], **kw) for w in range(y.shape[0])]
    except MetricError:
        return None
    return float(np.mean(vals))


def build_report(
    y_true,
    y_pred,
    *,
    seasonality: int,
    channel_names=None,
    naive_pred=None,
    mase_convention: str = "window",
    insample=None,
) -> MetricReport:
    """Evaluate (windows, channels, horizon) predictions channel by channel.

    Undefined metrics are omitted rather than reported as NaN. When
    `naive_pred` is given, OWA is added from the smape and mase ratios at
    matching granularity. `insample` is the (length, channels) training
    history required by the m4 mase convention.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.ndim != 3 or y_true.shape != y_pred.shape:
        raise MetricError(
            f"expected matching (windows, channels, horizon) blocks, "
            f"got {y_true.shape} vs {y_pred.shape}"
        )
    w, n, h = y_true.shape
    if w < 1:
        raise MetricError("no evaluation windows")
    if channel_names is None:
        channel_names = [f"ch{i}" for i in range(n)]

    naive_report = None
    if naive_pred is not None:
        naive_report = build_report(
            y_true,
            naive_pred,
            seasonality=seasonality,
            channel_names=channel_names,
            mase_convention=mase_convention,
            insample=insample,
        )

    report = MetricReport(horizon=h, seasonality=seasonality)
    for i, name in enumerate(channel_names):
        yt, yp = y_true[:, i, :], y_pred[:, i, :]
        row: dict[str, float] = {}
        for metric_name, fn in (("mse", mse), ("mae", mae), ("smape", smape),
                                ("mape", mape)):
            val = _channel_value(fn, yt, yp)
            if val is not None:
                row[metric_name] = val
        kw = {"s": seasonality, "convention": mase_convention}
        if mase_convention == "m4":
            if insample is None:
                raise MetricError("m4 convention requires the in-sample history")
            kw["insample"] = np.asarray(insample, dtype=np.float64)[:, i]
        val = _channel_value(mase, yt, yp, **kw)
        if val is not None:
            row["mase"] = val
        report.per_series[name] = row

    present = lambda m: [r[m] for r in report.per_series.values() if m in r]
    for m in ("mse", "mae", "smape", "mape", "mase"):
        vals = present(m)
        if len(vals) == len(report.per_series):
            report.aggregate[m] = float(np.mean(vals))

    if naive_report is not None:
        for name, row in report.per_series.items():
            ratio = _owa_from(row, naive_report.per_series[name])
            if ratio is not None:
                row["owa"] = ratio
        agg = _owa_from(report.aggregate, naive_report.aggregate)
        if agg is not None:
            report.aggregate["owa"] = agg
    return report


def _owa_from(row: dict, naive_row: dict):
    if not {"smape", "mase"} <= row.keys() & naive_row.keys():
        return None
    if naive_row["smape"] == 0 or naive_row["mase"] == 0:
        return None
    return 0.5 * (row["smape"] / naive_row["smape"] + row["mase"] / naive_row["mase"])

