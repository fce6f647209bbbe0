"""Series ingestion, chronological splits, sliding windows, synthetic fixtures.

A loaded series is immutable: its value buffer is marked read-only and all
splits are views into it. Copies happen only when a batch is assembled.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng


class DataError(Exception):
    """Malformed input data or an unusable split/window request."""


@dataclass
class MultivariateSeries:
    """A (T, N) block of float64 observations at a fixed sampling frequency."""

    name: str
    values: np.ndarray
    frequency: str = "hourly"
    channel_names: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DataError(f"series '{self.name}': values must be 2D (T, N), got {vals.shape}")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise DataError(f"series '{self.name}': empty values {vals.shape}")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argwhere(~np.isfinite(vals))[0][0])
            raise DataError(f"series '{self.name}': non-finite value at row {bad}")
        vals.setflags(write=False)
        self.values = vals
        if not self.channel_names:
            self.channel_names = [f"ch{i}" for i in range(vals.shape[1])]
        if len(self.channel_names) != vals.shape[1]:
            raise DataError(
                f"series '{self.name}': {len(self.channel_names)} channel names for "
                f"{vals.shape[1]} channels"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise DataError(f"series '{self.name}': repeated channel names {self.channel_names}")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


class SeriesView:
    """Half-open row range [start, stop) of a series. Never copies."""

    def __init__(self, series: MultivariateSeries, start: int, stop: int):
        if not (0 <= start <= stop <= series.length):
            raise DataError(
                f"view [{start}, {stop}) out of range for length {series.length}"
            )
        self.series = series
        self.start = start
        self.stop = stop

    @property
    def length(self) -> int:
        return self.stop - self.start

    @property
    def channels(self) -> int:
        return self.series.channels

    @property
    def array(self) -> np.ndarray:
        return self.series.values[self.start : self.stop]

    def __repr__(self):
        return f"SeriesView({self.series.name}[{self.start}:{self.stop}])"


def _decoded_lines(fh, path):
    """The lines of a text file, with a decoding failure raised as DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path, date_column: str | None = None, name: str | None = None,
             frequency: str = "hourly") -> MultivariateSeries:
    """Read a headered CSV of numeric channels into a MultivariateSeries.

    If date_column is given, that column must exist; it is validated to be
    present and then dropped. Every remaining cell must parse as a finite
    float. Blank lines are skipped. The rows are read whole, their value
    cells converted by float() in one pass and checked for finiteness in
    one vectorised test; on any fault a per-cell scan names the first
    ragged row, non-numeric cell or non-finite cell in reading order, with
    its line number. A record the csv module refuses, such as a cell over
    its field size limit, is a fault on the line it starts on, in the same
    order.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # a BOM, as Excel writes, is dropped
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(_decoded_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        except csv.Error as exc:
            raise _first_fault(path, [], 0, None, 1, exc) from None  # the header is line 1
        header = [h.strip() for h in header]
        drop = None
        if date_column is not None:
            if date_column not in header:
                raise DataError(f"{path}: date column '{date_column}' not in header {header}")
            drop = header.index(date_column)
        channel_names = [h for i, h in enumerate(header) if i != drop]
        if not channel_names:
            raise DataError(f"{path}: no value columns after dropping '{date_column}'")
        width, start = len(header), reader.line_num + 1  # a quoted header cell may span lines
        rows = []
        try:
            rows.extend(reader)  # keeps the rows read before a failure
        except DataError as exc:  # a fault in an earlier row comes first
            raise _first_fault(path, rows, width, drop, start) or exc
        except csv.Error as exc:
            raise _first_fault(path, rows, width, drop, start, exc) from None
    if not set(map(len, rows)) <= {0, width}:  # 0 is a blank line
        raise _first_fault(path, rows, width, drop, start)
    cells = list(itertools.chain.from_iterable(rows))
    if drop is not None:
        del cells[drop::width]
    if not cells:
        raise DataError(f"{path}: no data rows")
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        raise _first_fault(path, rows, width, drop, start) from None
    if not np.isfinite(values).all():
        raise _first_fault(path, rows, width, drop, start)
    return MultivariateSeries(
        name=name or path.stem,
        values=values.reshape(-1, len(channel_names)),
        frequency=frequency,
        channel_names=channel_names,
    )


def _first_fault(path, rows, width: int, drop: int | None, line: int,
                 refused: csv.Error | None = None) -> DataError | None:
    """The error for the first ragged row, non-numeric or non-finite cell,
    else for the record after `rows` that the csv module `refused`, if any.

    `rows` are the csv records after the header, the first on line `line`;
    the line breaks of a quoted cell move every later record down, and a
    cell's own line breaks are escaped, so that the message stays one line.
    """
    for row in rows:
        breaks = sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)  # \r\n is one
        lineno, line = line, line + 1 + breaks
        if not row:
            continue
        if len(row) != width:
            return DataError(f"{path}: line {lineno}: expected {width} cells, got {len(row)}")
        for i, cell in enumerate(row):
            if i == drop:
                continue
            try:
                v = float(cell)
            except ValueError:
                shown = cell.strip().replace("\r", "\\r").replace("\n", "\\n")
                return DataError(f"{path}: line {lineno}: cell '{shown}' is not numeric")
            if not math.isfinite(v):
                return DataError(f"{path}: line {lineno}: non-finite value '{cell.strip()}'")
    return None if refused is None else DataError(f"{path}: line {line}: {refused}")


@dataclass
class SplitSpec:
    train_len: int
    val_len: int
    test_len: int


def split_spec_for(total: int, train_frac: float, val_frac: float) -> SplitSpec:
    """Integer split lengths from fractions; remainder goes to the test split."""
    train = int(total * train_frac)
    val = int(total * val_frac)
    return SplitSpec(train, val, total - train - val)


def chronological_split(series: MultivariateSeries, spec: SplitSpec,
                        lookback: int) -> tuple[SeriesView, SeriesView, SeriesView]:
    """Train/val/test views in time order.

    Val and test are extended backward by `lookback` rows so their first
    forecastable window starts exactly at the split boundary. A zero-length
    split yields an empty view with no extension.
    """
    total = spec.train_len + spec.val_len + spec.test_len
    if spec.train_len <= 0:
        raise DataError(f"split needs a nonempty train segment, got {spec.train_len}")
    if spec.val_len < 0 or spec.test_len < 0:
        raise DataError("split lengths must be nonnegative")
    if total > series.length:
        raise DataError(
            f"split lengths sum to {total} but series '{series.name}' has {series.length} rows"
        )
    train = SeriesView(series, 0, spec.train_len)
    val_hi = spec.train_len + spec.val_len
    if spec.val_len == 0:
        val = SeriesView(series, spec.train_len, spec.train_len)
    else:
        val = SeriesView(series, max(0, spec.train_len - lookback), val_hi)
    test_hi = val_hi + spec.test_len
    if spec.test_len == 0:
        test = SeriesView(series, val_hi, val_hi)
    else:
        test = SeriesView(series, max(0, val_hi - lookback), test_hi)
    return train, val, test


@dataclass
class WindowBatch:
    """Batched lookback/target pairs."""

    x: np.ndarray  # (B, N, lookback)
    y: np.ndarray  # (B, N, horizon)


class WindowSet:
    """Sliding lookback/horizon windows over a view, materialized on demand."""

    def __init__(self, view: SeriesView, lookback: int, horizon: int, stride: int = 1):
        if lookback < 1 or horizon < 1 or stride < 1:
            raise DataError(
                f"window dims must be positive, got lookback={lookback} "
                f"horizon={horizon} stride={stride}"
            )
        self.view = view
        self.lookback = lookback
        self.horizon = horizon
        self.stride = stride
        usable = view.length - lookback - horizon
        self.count = usable // stride + 1 if usable >= 0 else 0

    def batch(self, indices) -> WindowBatch:
        indices = np.asarray(indices, dtype=np.int64)
        arr = self.view.array
        starts = indices * self.stride
        offs_x = np.arange(self.lookback)
        offs_y = np.arange(self.horizon)
        # gather rows then put channels first: (B, T, N) -> (B, N, T)
        x = arr[starts[:, None] + offs_x].transpose(0, 2, 1).copy()
        y = arr[(starts + self.lookback)[:, None] + offs_y].transpose(0, 2, 1).copy()
        return WindowBatch(x=x, y=y)

    def iter_batches(self, batch_size: int, order=None):
        """Batches of up to batch_size windows, in index order or in `order`."""
        if order is None:
            order = np.arange(self.count)
        for lo in range(0, len(order), batch_size):
            yield self.batch(order[lo : lo + batch_size])


def few_shot_subset(train_view: SeriesView, fraction: float,
                    lookback: int | None = None, horizon: int | None = None) -> SeriesView:
    """Leading floor(fraction * length) rows of the training view.

    When lookback/horizon are supplied the subset must still fit one window.
    """
    if not (0.0 < fraction <= 1.0):
        raise DataError(f"few-shot fraction must be in (0, 1], got {fraction}")
    keep = int(fraction * train_view.length)
    sub = SeriesView(train_view.series, train_view.start, train_view.start + keep)
    if lookback is not None and horizon is not None and sub.length < lookback + horizon:
        raise DataError(
            f"insufficient few-shot data: {sub.length} rows cannot fit one "
            f"{lookback}+{horizon} window"
        )
    return sub


# ------------------------------------------------------------------ synthetic

SYNTH_KINDS = ("sine_mixture", "ar2", "trend_seasonal")
SYNTH_ALIASES = {"sine": "sine_mixture", "trend": "trend_seasonal"}


def synth_generate(kind: str, channels: int, length: int, seed: int,
                   noise: float = 0.0, frequency: str = "hourly") -> MultivariateSeries:
    """Deterministic synthetic series; generation parameters land in .meta."""
    kind = SYNTH_ALIASES.get(kind, kind)
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind '{kind}', choose from {SYNTH_KINDS}")
    if channels < 1 or length < 2:
        raise DataError(f"need channels >= 1 and length >= 2, got {channels}, {length}")
    gen = rng.generator(seed, f"synth:{kind}")
    t = np.arange(length, dtype=np.float64)
    meta = {"kind": kind, "channels": channels, "length": length, "seed": seed,
            "noise": noise}

    if kind == "sine_mixture":
        periods = [24.0, 57.0, 91.0]
        amps = [1.0, 0.6, 0.4]
        phases = gen.uniform(0.0, 2.0 * np.pi, size=(channels, len(periods)))
        vals = np.zeros((length, channels))
        for c in range(channels):
            for a, p, ph in zip(amps, periods, phases[c]):
                vals[:, c] += a * np.sin(2.0 * np.pi * t / p + ph)
        meta.update(periods=periods, amplitudes=amps)
    elif kind == "ar2":
        # coefficients give complex roots of modulus sqrt(0.9): stable
        c1, c2 = 1.5, -0.9
        vals = np.zeros((length, channels))
        shocks = gen.normal(0.0, 1.0, size=(length, channels))
        for i in range(2, length):
            vals[i] = c1 * vals[i - 1] + c2 * vals[i - 2] + shocks[i]
        meta.update(coefficients=[c1, c2])
    else:  # trend_seasonal
        period = 48.0
        slopes = gen.uniform(-0.002, 0.002, size=channels)
        phases = gen.uniform(0.0, 2.0 * np.pi, size=channels)
        vals = slopes[None, :] * t[:, None] + np.sin(
            2.0 * np.pi * t[:, None] / period + phases[None, :]
        )
        meta.update(period=period, slopes=slopes.tolist())

    if noise > 0.0:
        vals = vals + gen.normal(0.0, noise, size=vals.shape)

    return MultivariateSeries(
        name=f"{kind}_s{seed}", values=vals, frequency=frequency, meta=meta
    )


def write_series_csv(series: MultivariateSeries, path, sidecar: bool = True) -> None:
    """Write a series as CSV (with a synthetic date index) plus a JSON sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + series.channel_names)
        for i in range(series.length):
            writer.writerow([f"t{i}"] + [repr(float(v)) for v in series.values[i]])
    if sidecar:
        side = path.with_suffix(".json")
        with open(side, "w") as fh:
            json.dump({"name": series.name, "frequency": series.frequency,
                       **series.meta}, fh, indent=2)
