"""The shared CSV table layer: round trips, text fields and error lines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndsense import odmr, segmentation
from ndsense._table import read_table, write_table

SETTINGS = settings(max_examples=60, deadline=None)

WORDS = st.text(alphabet="abcdefghij-_", max_size=8)


def column_lists(elements, min_cols=1, max_cols=4):
    """Equal-length columns of ``elements``, at least one row."""
    return st.integers(1, 20).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=min_cols, max_size=max_cols))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "t.csv"


@SETTINGS
@given(cols=column_lists(st.floats(allow_nan=False, allow_infinity=True, width=64)))
def test_float_columns_round_trip_within_format_precision(path, cols):
    names = [f"c{i}" for i in range(len(cols))]
    write_table(path, [(n, c, "%.6e") for n, c in zip(names, cols)],
                meta=[("dt_s", np.float64(0.01)), ("dims", "xy")])
    meta, back = read_table(path, names)
    assert meta == {"dt_s": "0.01", "dims": "xy"}
    for orig, got in zip(cols, back):
        # .6e keeps 7 significant digits: relative error at most 5e-7
        np.testing.assert_allclose(got, orig, rtol=6e-7, atol=0)


@SETTINGS
@given(rows=st.lists(st.tuples(st.integers(-10**6, 10**6), WORDS,
                               st.floats(-1e6, 1e6), WORDS), min_size=1, max_size=15))
def test_text_columns_round_trip_including_empty_fields(path, rows):
    names = ("i", "cls", "x", "alpha")
    cols = list(zip(*rows))
    write_table(path, [("i", cols[0], "%d"), ("cls", cols[1], "%s"),
                       ("x", cols[2], "%.6f"), ("alpha", cols[3], "%s")])
    _, (i, cls, x, alpha) = read_table(path, names, text=("cls", "alpha"))
    np.testing.assert_array_equal(i, cols[0])
    assert cls == list(cols[1])
    assert alpha == list(cols[3])
    np.testing.assert_allclose(x, cols[2], atol=5e-7)


def _lines(n_meta, n_rows):
    return ([f"#k{i}=v" for i in range(n_meta)] + ["a,b,c"]
            + [f"{r},{r + 0.5},{-r}" for r in range(n_rows)])


@SETTINGS
@given(n_meta=st.integers(0, 3), n_rows=st.integers(1, 8), data=st.data())
def test_malformed_rows_name_their_line(path, n_meta, n_rows, data):
    lines = _lines(n_meta, n_rows)
    k = data.draw(st.integers(n_meta + 1, n_meta + n_rows), label="bad line index")
    kind = data.draw(st.sampled_from(["short", "long", "text"]), label="defect")
    fields = lines[k].split(",")
    if kind == "short":
        fields.pop()
    elif kind == "long":
        fields.append("1")
    else:
        fields[data.draw(st.integers(0, 2))] = "oops"
    lines[k] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    message = "non-numeric" if kind == "text" else "columns"
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line {k + 1}: .*{message}"):
        read_table(path, ("a", "b", "c"))


@SETTINGS
@given(n_meta=st.integers(0, 3), header=st.sampled_from(["a,b", "a,c,b", "a,b,c,d", "A,B,C"]))
def test_bad_header_names_its_line(path, n_meta, header):
    lines = _lines(n_meta, 2)
    lines[n_meta] = header
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {n_meta + 1}: unexpected header"):
        read_table(path, ("a", "b", "c"))
    # ODMR scans written as blank-line-separated f_hz,counts blocks
    lines[n_meta:] = ["f_hz,counts", "2870000000.0,100", "", "2870000000.0,110"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line {n_meta + 1}: "
                                         "unexpected header"):
        odmr.scans_from_csv(path)


def test_table_without_rows_is_an_error(path):
    path.write_text("#schema=1\na,b,c\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_table(path, ("a", "b", "c"))


def test_labels_keep_unknown_alpha_empty(path):
    labels = [segmentation.SegmentLabel(0, 80, 0.31, "directed", 900.0, alpha=1.9),
              segmentation.SegmentLabel(80, 199, 0.1, "non-directed", 10.0)]
    segmentation.labels_to_csv(labels, path)
    assert path.read_text().splitlines()[2].endswith(",10.000000,")
    back = segmentation.labels_from_csv(path)
    assert back[0].alpha == pytest.approx(1.9) and back[1].alpha is None
    assert [lab.cls for lab in back] == ["directed", "non-directed"]
