"""The shared CSV table layer: round trips, text fields and error lines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_write_table
from ndsense import segmentation
from ndsense._table import _BLOCK_ROWS as BLOCK
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


def _lines(n_meta, n_rows):
    return ([f"#k{i}=v" for i in range(n_meta)] + ["a,b,c"]
            + [f"{r},{r + 0.5},{-r}" for r in range(n_rows)])


@SETTINGS
@given(n_meta=st.integers(0, 3), n_rows=st.integers(1, 8), data=st.data())
def test_malformed_rows_name_their_line(path, n_meta, n_rows, data):
    """A bad row is named by its line in the file, empty lines before it counted."""
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
    gaps = data.draw(st.lists(st.integers(0, 2), min_size=n_rows, max_size=n_rows),
                     label="empty lines before each row")
    rows = lines[n_meta + 1:]
    lines[n_meta + 1:] = [line for gap, row in zip(gaps, rows) for line in [""] * gap + [row]]
    k += sum(gaps[:k - n_meta])
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


@pytest.mark.filterwarnings("error")
def test_table_without_rows_is_an_error(path):
    # a header without rows, also followed by empty lines, and no header at all
    for content in ("#schema=1\na,b,c\n\n", "a,b,c\n", "a,b,c", "#schema=1\n\n", ""):
        path.write_text(content)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: no data rows"):
            read_table(path, ("a", "b", "c"))


def test_labels_keep_unknown_alpha_empty(path):
    labels = [segmentation.SegmentLabel(0, 80, 0.31, "directed", 900.0, alpha=1.9),
              segmentation.SegmentLabel(80, 199, 0.1, "non-directed", 10.0)]
    segmentation.labels_to_csv(labels, path)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(",directed,900.000000,1.900000")
    assert lines[2].endswith(",non-directed,10.000000,")


FORMATS = {"%d": st.integers(-10**12, 10**12),
           "%s": WORDS,
           "%.6f": st.floats(-1e9, 1e9) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
           "%.6e": st.floats(width=64)}


@settings(max_examples=40, deadline=None)
@given(n_rows=st.sampled_from([0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       formats=st.lists(st.sampled_from(sorted(FORMATS)), min_size=1, max_size=5),
       data=st.data())
def test_write_table_matches_per_row_reference(tmp_path_factory, n_rows, formats, data):
    """Blocked printf gives the bytes of one printf per row, at any row count
    around the block size; short drawn columns repeat to ``n_rows``."""
    columns = []
    for i, fmt in enumerate(formats):
        seeds = data.draw(st.lists(FORMATS[fmt], min_size=1, max_size=9), label=f"c{i}")
        values = [seeds[k % len(seeds)] for k in range(n_rows)]
        columns.append((f"c{i}", values if fmt == "%s" else np.array(values), fmt))
    meta = [("dt_s", np.float64(0.0096)), ("dims", "xy")]
    root = tmp_path_factory.mktemp("write")
    write_table(root / "new.csv", columns, meta=meta)
    reference_write_table(root / "ref.csv", columns, meta=meta)
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()


@SETTINGS
@given(cols=column_lists(st.floats(width=64), min_cols=3, max_cols=3))
def test_read_table_is_float_of_each_field_bit_for_bit(path, cols):
    """NumPy's C parse returns, field for field, the double ``float()`` gives."""
    cols[0][0] = np.inf
    names = ("f", "e", "r")
    write_table(path, [(n, np.array(c), fmt) for n, c, fmt in zip(names, cols, ("%.6f", "%.6e", "%r"))])
    _, back = read_table(path, names)
    fields = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for j, got in enumerate(back):
        want = np.array([float(f[j]) for f in fields])
        assert np.ascontiguousarray(got).view(np.uint64).tolist() == want.view(np.uint64).tolist()


# What the C parse accepts, pinned against Python's float(): the line after
# the header holds the case, and every rejection names the path and line.
@pytest.mark.parametrize("line, message", [
    ("1_0,2,3", "line 3: non-numeric field"),        # float() reads 10
    ("\uff11,2,3", "line 3: non-numeric field"),     # float() reads a full-width 1
    ("  ", "line 3: expected 3 columns, got 1"),      # skipped before
    ("#k=v", "line 3: expected 3 columns, got 1"),    # metadata after the header
    ("#k,v,w", "line 3: non-numeric field"),
], ids=["underscore", "full-width-digit", "whitespace-line", "metadata-after-header",
        "comment-with-commas"])
def test_rejected_inputs_name_path_and_line(path, line, message):
    path.write_text(f"#schema=1\na,b,c\n{line}\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        read_table(path, ("a", "b", "c"))


def test_empty_lines_and_leading_metadata_are_skipped(path):
    """Blank lines and metadata before the header, empty lines after it and
    blanks around numbers read as they did with one Python parse per row."""
    path.write_text("\n#a=1\n   \n#b=x=y\n#c\na,b,c\n\n 1 , 2.5,-3\n\n\n4,5,6")
    meta, (a, b, c) = read_table(path, ("a", "b", "c"))
    assert meta == {"a": "1", "b": "x=y"}
    assert a.tolist() == [1.0, 4.0] and b.tolist() == [2.5, 5.0] and c.tolist() == [-3.0, 6.0]
