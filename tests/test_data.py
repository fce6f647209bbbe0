"""Ingestion, split, window and synthetic-fixture behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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


BIG = "1" * 140000  # over the csv module's field size limit of 131072 characters


@pytest.mark.parametrize("text, fault", [
    (f"a,b\n1,2\n3,4\n5,{BIG}\n", "line 4: field larger than field limit"),
    (f"a,{BIG}\n1,2\n", "line 1: field larger than field limit"),
    (f"a,b\n1,oops\n5,{BIG}\n", "line 2: cell 'oops' is not numeric"),
    (f"a,b\n1,2,3\n5,{BIG}\n", "line 2: expected 2 cells, got 3"),
], ids=["cell", "header", "earlier_cell", "earlier_ragged"])
def test_load_csv_over_long_cell_is_a_data_error(tmp_path, text, fault):
    # the csv module refuses the record; a fault in an earlier row comes first
    with pytest.raises(DataError, match=fault):
        load_csv(write(tmp_path, text))


# ---------------------------------------------------------------- CSV ingest against the oracle


def loaded(load, path, date_column):
    """A loader's values and channel names, or the message of its DataError."""
    try:
        s = load(path, date_column=date_column)
    except DataError as exc:
        return str(exc)
    return s.values.shape, s.values.tobytes(), s.channel_names


GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e308", "-1.7976931348623157e308", "-0.0", " 2.5 ", '"3.25"', "+7",
                     ".5", "5.", "1E-3", "1_000", "\t4\t"]),
)
BAD_CELLS = st.sampled_from(["nan", " NaN ", "inf", "-Infinity", "1e309", "oops", '"1,5"',
                             "", " ", ' "3.25"', "--1"])
DATE_CELLS = st.sampled_from(["2024-01-01", '"Jan 1, 2024"', "", "t7", "3"])


@st.composite
def csv_files(draw):
    """CSV bytes with 0-3 faults (ragged rows, bad cells) among valid rows,
    and the date_column argument to load them with."""
    names = draw(st.lists(st.sampled_from(["a", "b", " c ", '"d e"', "f"]),
                          min_size=1, max_size=3, unique=True))
    dated = draw(st.booleans())
    if dated:
        names.insert(draw(st.integers(0, len(names))), "date")
    width = len(names)
    rows = [[draw(DATE_CELLS) if n == "date" else draw(GOOD_CELLS) for n in names]
            for _ in range(draw(st.integers(0, 6)))]
    faults = st.tuples(st.sampled_from(["short", "long", "cell"]), st.integers(0, 99),
                       st.integers(0, 99), BAD_CELLS)
    for kind, r, c, bad in draw(st.lists(faults, max_size=3)):
        if not rows:
            break
        row = rows[r % len(rows)]
        if kind == "short":
            del row[c % width:]  # an emptied row is a blank line
        elif kind == "long":
            row.append(bad)
        elif row:
            row[c % len(row)] = bad
    lines = [",".join(names)] + [",".join(row) for row in rows]
    for at in sorted(draw(st.sets(st.integers(1, len(lines)), max_size=2)), reverse=True):
        lines.insert(at, "")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    raw = text.encode("utf-8") + draw(st.sampled_from([b""] * 9 + [b"\xff"]))
    # mostly the right argument; else a missing date column, or a date read as a channel
    right = "date" if dated else None
    date_column = draw(st.sampled_from([right] * 8 + ["date", None]))
    return raw, date_column


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "series.csv"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=csv_files())
def test_load_csv_matches_the_per_cell_oracle(csv_path, case):
    raw, date_column = case
    csv_path.write_bytes(raw)
    assert loaded(load_csv, csv_path, date_column) == loaded(oracles.load_csv, csv_path,
                                                             date_column)


@pytest.mark.parametrize("bad_line", [3, 900, 1500])
def test_load_csv_faults_around_an_undecodable_line(tmp_path, bad_line):
    # the text is decoded in chunks (8 KiB in CPython), so the invalid byte
    # after line 1200 surfaces only after the rows of the first chunk were
    # read: a fault among those rows (line 3) is still the one reported, and
    # one in the invalid byte's chunk (line 900) or after it is never reached
    lines = ["a,b"] + [f"{i},{i}.5" for i in range(1, 2000)]
    lines[bad_line - 1] = "1,oops"
    p = tmp_path / "mixed.csv"
    p.write_bytes("\n".join(lines[:1200]).encode() + b"\n\xff\n" + "\n".join(lines[1200:]).encode())
    got = loaded(load_csv, p, None)
    assert got == loaded(oracles.load_csv, p, None)
    assert ("line 3:" if bad_line == 3 else "not UTF-8") in got


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
