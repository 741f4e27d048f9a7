"""The shared CSV table layer: round trips, text fields and error lines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_write_table
from ndsense import _table, segmentation
from ndsense._table import _BLOCK_ROWS as BLOCK
from ndsense._table import _fixed_rows, _places, read_table, write_table

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


def fixed_point(places):
    """Doubles that stress ``%.{places}f`` rounding: exact ties, the
    neighbours of half units, carries, signed zeros and small negatives, and
    both sides of the 2**52 / 10**places bound of the vectorized path."""
    unit, bound = 10.0 ** -places, 2.0 ** 52 / 10.0 ** places
    halves = st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) * unit)
    edges = [9.9999995, 9.9999996, 999999.9999995, 999999.9999996, 0.9999995, 9.999995,
             99999.999995, 0.5 * unit, 1.5 * unit, 0.0, 1e-300, 5e-324, 0.4 * unit, 0.6 * unit,
             np.nextafter(bound, 0), bound, np.nextafter(bound, np.inf)]
    return st.one_of(
        st.floats(-1e9, 1e9),
        # odd multiples of 2**-(places+1) scale to exact half-integers
        st.integers(-2**40, 2**40).map(lambda k: (2 * k + 1) / 2.0 ** (places + 1)),
        halves,
        st.tuples(halves, st.sampled_from([-np.inf, np.inf])).map(lambda h: np.nextafter(*h)),
        st.sampled_from(edges + [-v for v in edges]))


# format -> (drawn values, dtype); bools are written like diagnostics' `locked`
FORMATS = {"%d": (st.integers(-10**12, 10**12), None),
           "%d bool": (st.booleans(), bool),
           "%s": (WORDS, None),
           "%.5f": (fixed_point(5), None),
           "%.6f": (fixed_point(6), None),
           "%.6e": (st.floats(width=64), None)}
# non-finite and out-of-bound values put into one row of a fixed-point column
OUTSIDE = st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -2.0 ** 52])


@settings(max_examples=60, deadline=None)
@given(n_rows=st.sampled_from([0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       formats=st.lists(st.sampled_from(sorted(FORMATS)), min_size=1, max_size=5),
       data=st.data())
def test_write_table_matches_per_row_reference(tmp_path_factory, n_rows, formats, data):
    """Blocked and vectorized writes give the bytes of one printf per row, at
    any row count around the block size; short drawn columns repeat to
    ``n_rows``, and a fixed-point column may hold one value the vectorized
    path leaves to printf."""
    columns = []
    for i, key in enumerate(formats):
        fmt = key.split()[0]
        elements, dtype = FORMATS[key]
        seeds = data.draw(st.lists(elements, min_size=1, max_size=9), label=f"c{i}")
        values = [seeds[k % len(seeds)] for k in range(n_rows)]
        if fmt.endswith("f") and n_rows:
            row = data.draw(st.none() | st.integers(0, n_rows - 1), label=f"c{i} outside row")
            if row is not None:
                values[row] = data.draw(OUTSIDE, label=f"c{i} outside value")
        columns.append((f"c{i}", values if fmt == "%s" else np.array(values, dtype), fmt))
    meta = [("dt_s", np.float64(0.0096)), ("dims", "xy")]
    root = tmp_path_factory.mktemp("write")
    write_table(root / "new.csv", columns, meta=meta)
    reference_write_table(root / "ref.csv", columns, meta=meta)
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()


@pytest.mark.parametrize("places", [0, 1, 2, 3, 4, 5, 6, 9, 18])
def test_fixed_point_blocks_match_printf_at_any_places(tmp_path, places):
    """Many random and edge-case values per format, every block on the
    vectorized path, match Python's ``%`` byte for byte."""
    rng = np.random.default_rng(places)
    bound = 2.0 ** 52 / 10.0 ** places
    values = np.concatenate([
        rng.uniform(-bound, bound, 4 * BLOCK),
        rng.normal(0, 1, 4 * BLOCK) * 10.0 ** rng.integers(-places - 2, 9, 4 * BLOCK),
        (2 * rng.integers(-2**40, 2**40, 4 * BLOCK) + 1) / 2.0 ** (places + 1),
        np.nextafter((rng.integers(-10**9, 10**9, 4 * BLOCK) + 0.5) / 10.0 ** places,
                     rng.choice([-np.inf, np.inf], 4 * BLOCK)),
        [0.0, -0.0, -1e-300, -5e-324, -0.4 / 10.0 ** places, 9.9999995, 999999.9999995,
         np.nextafter(bound, 0), -np.nextafter(bound, 0)]])
    values = values[np.abs(values) < bound]
    fmt = f"%.{places}f"
    assert _fixed_rows([values[:BLOCK]], [places]) is not None
    write_table(tmp_path / "new.csv", [("v", values, fmt)])
    reference_write_table(tmp_path / "ref.csv", [("v", values, fmt)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_vectorized_path_takes_fixed_point_and_integer_columns(tmp_path, monkeypatch):
    """Only %.Nf of floats and %d of integers or bools are vectorized, every
    block of such a table is, and a block falls back to printf on a
    non-finite or out-of-bound value."""
    blocks = []

    def spy(*args):
        blocks.append(_fixed_rows(*args))
        return blocks[-1]

    monkeypatch.setattr(_table, "_fixed_rows", spy)
    write_table(tmp_path / "t.csv", [("t_s", np.arange(2 * BLOCK + 1) * 0.0096, "%.6f"),
                                     ("locked", np.ones(2 * BLOCK + 1, bool), "%d")])
    assert len(blocks) == 3 and None not in blocks
    floats, ints, flags = np.array([1.5, -2.25]), np.array([3, -4]), np.array([True, False])
    assert [_places(f, floats) for f in ("%.6f", "%.5f", "%.0f", "%d", "%.6e", "%s", "%8.3f")] \
        == [6, 5, 0, None, None, None, None]
    assert [_places("%d", c) for c in (ints, flags, floats)] == [0, 0, None]
    assert _places("%.6f", ints) is None
    assert _fixed_rows([floats, ints, flags], [6, 0, 0]) == "1.500000,3,1\n-2.250000,-4,0\n"
    for bad in (np.inf, -np.inf, np.nan, 2.0 ** 52 / 1e6, -2.0 ** 52 / 1e6):
        assert _fixed_rows([np.array([0.0, bad])], [6]) is None
    assert _fixed_rows([np.array([2 ** 52, 0])], [0]) is None
    assert _fixed_rows([np.array([np.nextafter(2.0 ** 52 / 1e6, 0)])], [6]) == "4503599627.370495\n"


def test_columns_of_different_lengths_are_an_error(tmp_path):
    """A short column is an error naming the path, and nothing is written."""
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: columns differ in length"):
        write_table(path, [("a", np.arange(5.0), "%.6f"), ("b", np.arange(3.0), "%.6f")])
    assert not path.exists()


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
