"""Ingestion, split, window and synthetic-fixture behavior."""

import numpy as np
import pytest

from tokencast.data import (
    DataError,
    MultivariateSeries,
    SplitSpec,
    WindowSet,
    chronological_split,
    few_shot_subset,
    load_csv,
    synth_generate,
    write_series_csv,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_small_csv(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
    s = load_csv(p)
    assert s.values.shape == (3, 2)
    np.testing.assert_array_equal(s.values, [[1, 2], [3, 4], [5, 6]])
    assert s.channel_names == ["a", "b"]


def test_load_csv_with_date_column(tmp_path):
    p = write(tmp_path, "date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n")
    s = load_csv(p, date_column="date")
    assert s.values.shape == (2, 2)
    assert s.channel_names == ["a", "b"]


def test_repeated_channel_names_rejected(tmp_path):
    # a repeated name would key two channels into one per-series metric
    p = write(tmp_path, "date,a,a,b\n2020-01-01,1,2,3\n2020-01-02,4,5,6\n")
    with pytest.raises(DataError, match="repeated channel names"):
        load_csv(p, date_column="date")
    with pytest.raises(DataError, match="repeated channel names"):
        MultivariateSeries("s", np.zeros((2, 2)), channel_names=["x", "x"])


def test_load_csv_missing_date_column(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="date column"):
        load_csv(p, date_column="date")


def test_load_csv_seven_channels(tmp_path):
    header = "date," + ",".join(f"c{i}" for i in range(7))
    rows = "\n".join(f"t{r}," + ",".join(str(r + i) for i in range(7)) for r in range(5))
    p = write(tmp_path, header + "\n" + rows + "\n")
    s = load_csv(p, date_column="date")
    assert s.values.shape == (5, 7)


def test_load_csv_nan_cell_names_line(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3,NaN\n5,6\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p)


def test_load_csv_non_numeric_names_line(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="line 3.*oops"):
        load_csv(p)


def test_load_csv_ragged_row_names_line(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p)


def test_series_rejects_mutation():
    s = MultivariateSeries(name="x", values=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        s.values[0, 0] = 1.0


def test_split_border_overlap():
    s = MultivariateSeries(name="x", values=np.arange(200.0).reshape(100, 2))
    train, val, test = chronological_split(s, SplitSpec(60, 20, 20), lookback=10)
    assert (train.start, train.stop) == (0, 60)
    assert (val.start, val.stop) == (50, 80)
    assert (test.start, test.stop) == (70, 100)


def test_split_all_train_allowed():
    s = MultivariateSeries(name="x", values=np.zeros((50, 1)))
    train, val, test = chronological_split(s, SplitSpec(50, 0, 0), lookback=8)
    assert train.length == 50 and val.length == 0 and test.length == 0


def test_split_too_long_rejected():
    s = MultivariateSeries(name="x", values=np.zeros((50, 1)))
    with pytest.raises(DataError, match="sum to"):
        chronological_split(s, SplitSpec(40, 10, 10), lookback=4)


def test_window_count_formula():
    s = MultivariateSeries(name="x", values=np.arange(12.0).reshape(12, 1))
    view, _, _ = chronological_split(s, SplitSpec(12, 0, 0), lookback=8)
    ws = WindowSet(view, lookback=8, horizon=2)
    assert ws.count == 3


def test_window_exact_fit_gives_one():
    s = MultivariateSeries(name="x", values=np.zeros((10, 1)))
    view, _, _ = chronological_split(s, SplitSpec(10, 0, 0), lookback=8)
    assert WindowSet(view, 8, 2).count == 1


def test_window_too_short_gives_zero():
    s = MultivariateSeries(name="x", values=np.zeros((9, 1)))
    view, _, _ = chronological_split(s, SplitSpec(9, 0, 0), lookback=8)
    assert WindowSet(view, 8, 2).count == 0


def test_window_adjacency_and_content():
    s = MultivariateSeries(name="x", values=np.arange(12.0).reshape(12, 1))
    view, _, _ = chronological_split(s, SplitSpec(12, 0, 0), lookback=8)
    ws = WindowSet(view, 8, 2)
    b = ws.batch([0, 1, 2])
    # x ends where y begins, window i shifted by i
    for i in range(3):
        np.testing.assert_array_equal(b.x[i, 0], np.arange(i, i + 8.0))
        np.testing.assert_array_equal(b.y[i, 0], np.arange(i + 8.0, i + 10.0))


def test_iter_batches_chunks_in_index_or_given_order():
    s = MultivariateSeries(name="x", values=np.arange(16.0).reshape(16, 1))
    view, _, _ = chronological_split(s, SplitSpec(16, 0, 0), lookback=4)
    ws = WindowSet(view, 4, 2)  # 11 windows; window i starts at row i
    firsts = [b.x[:, 0, 0].tolist() for b in ws.iter_batches(4)]
    assert firsts == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]
    order = np.array([10, 3, 7, 0, 5])
    firsts = [b.x[:, 0, 0].tolist() for b in ws.iter_batches(2, order)]
    assert firsts == [[10, 3], [7, 0], [5]]


def test_few_shot_exact_count():
    s = MultivariateSeries(name="x", values=np.zeros((8545, 1)))
    view, _, _ = chronological_split(s, SplitSpec(8545, 0, 0), lookback=96)
    sub = few_shot_subset(view, 0.05)
    assert sub.length == 427


def test_few_shot_identity_at_one():
    s = MultivariateSeries(name="x", values=np.zeros((100, 1)))
    view, _, _ = chronological_split(s, SplitSpec(100, 0, 0), lookback=8)
    sub = few_shot_subset(view, 1.0)
    assert (sub.start, sub.stop) == (view.start, view.stop)


def test_few_shot_insufficient_errors():
    s = MultivariateSeries(name="x", values=np.zeros((100, 1)))
    view, _, _ = chronological_split(s, SplitSpec(100, 0, 0), lookback=96)
    with pytest.raises(DataError, match="insufficient few-shot"):
        few_shot_subset(view, 0.05, lookback=96, horizon=2)


def test_few_shot_is_prefix():
    vals = np.arange(300.0).reshape(300, 1)
    s = MultivariateSeries(name="x", values=vals)
    view, _, _ = chronological_split(s, SplitSpec(300, 0, 0), lookback=8)
    sub = few_shot_subset(view, 0.1)
    np.testing.assert_array_equal(sub.array, vals[:30])


def test_synth_deterministic():
    a = synth_generate("sine_mixture", 3, 128, seed=9)
    b = synth_generate("sine_mixture", 3, 128, seed=9)
    assert np.array_equal(a.values, b.values)
    c = synth_generate("sine_mixture", 3, 128, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_ar2_bounded_over_long_run():
    s = synth_generate("ar2", 2, 10000, seed=3)
    assert np.all(np.isfinite(s.values))
    assert np.max(np.abs(s.values)) < 100.0


def test_trend_seasonal_shape():
    s = synth_generate("trend_seasonal", 2, 256, seed=4)
    assert s.values.shape == (256, 2)


def test_unknown_synth_kind():
    with pytest.raises(DataError, match="unknown synthetic kind"):
        synth_generate("sawtooth", 1, 64, seed=0)


def test_series_csv_roundtrip(tmp_path):
    s = synth_generate("sine_mixture", 2, 64, seed=5)
    p = tmp_path / "s.csv"
    write_series_csv(s, p)
    back = load_csv(p, date_column="date")
    np.testing.assert_array_equal(back.values, s.values)
    assert (tmp_path / "s.json").exists()
