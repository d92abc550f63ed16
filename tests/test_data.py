import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mcartest.data

from mcartest import (
    ColumnRoles,
    DataFormatError,
    Dataset,
    DegenerateDataError,
    infer_roles,
    load_csv,
    response_matrix,
    write_csv,
)

from conftest import make_dataset, rowwise_write_csv, traced_peak


def test_round_trip_exact(tmp_path, rng):
    ds, _ = make_dataset(rng, 37, 2, 2)
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back, roles = load_csv(path)
    assert back.column_names == ds.column_names
    np.testing.assert_array_equal(back.mask, ds.mask)
    np.testing.assert_array_equal(back.values[ds.mask], ds.values[ds.mask])
    assert roles == infer_roles(ds)


def test_round_trip_custom_token(tmp_path, rng):
    ds, _ = make_dataset(rng, 10, 1, 1)
    path = tmp_path / "tok.csv"
    write_csv(ds, path, na_token="?")
    back, _ = load_csv(path, na_tokens={"?"})
    np.testing.assert_array_equal(back.mask, ds.mask)


def test_write_csv_bytes(tmp_path):
    # shortest round-trip reprs, signed zero, a subnormal, and a token that
    # needs quoting
    values = [[-0.0, 5e-324], [1e300, 0.1], [0.1, 2.0]]
    mask = [[True, True], [True, True], [True, False]]
    path = tmp_path / "bytes.csv"
    write_csv(Dataset(values, mask, ("x", "y")), path, na_token="n,a")
    assert path.read_bytes() == b'x,y\r\n-0.0,5e-324\r\n1e+300,0.1\r\n0.1,"n,a"\r\n'


def test_token_mismatch_fails_parse(tmp_path, rng):
    # writing '?' but reading with default tokens: '?' is not numeric
    ds, _ = make_dataset(rng, 10, 1, 1)
    path = tmp_path / "bad.csv"
    write_csv(ds, path, na_token="?")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros((0, 2), bool), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((3, 3), bool), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((3, 2), bool), ("a",))


def test_arrays_read_only(rng):
    ds, _ = make_dataset(rng, 5, 1, 1)
    with pytest.raises(ValueError):
        ds.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.mask[0, 0] = False


def test_dataset_copies_only_what_someone_can_write(tmp_path, rng):
    values = rng.standard_normal((6, 2))
    mask = np.ones((6, 2), bool)
    ds = Dataset(values, mask, ("a", "b"))
    kept = ds.values.copy(), ds.mask.copy()
    values[:] = 7.0
    mask[:] = False
    assert ds.values.tobytes() == kept[0].tobytes() and ds.mask.tobytes() == kept[1].tobytes()
    # a read-only view of a writable array is copied as well
    view = values[:3]
    view.setflags(write=False)
    assert not np.shares_memory(Dataset(view, mask[:3], ("a", "b")).values, values)
    # arrays no one can write to are kept, so a new mask shares the values
    assert ds.with_mask(np.zeros((6, 2), bool)).values is ds.values
    # load_csv hands its arrays over: read-only, and each the only copy
    path = tmp_path / "own.csv"
    write_csv(ds, path)
    back, _ = load_csv(path)
    for array in (back.values, back.mask):
        assert not array.flags.writeable and array.base is None
        with pytest.raises(ValueError):
            array[0, 0] = 0


def test_header_cell_over_the_field_limit(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text('a,"' + "b" * csv.field_size_limit() + '"""\n1,2\n')
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: line 1, column 2: {LONG_MESSAGE}"


def test_quoted_line_breaks_leave_no_spare_rows(tmp_path):
    # the arrays are sized by the file's lines; records that span lines
    # leave rows unfilled, which are given back
    path = tmp_path / "spans.csv"
    path.write_bytes(b'a,b\r\n"1\n",2\r\n"3\r\n\r\n",NA\r\n5,6')
    ds, _ = load_csv(path)
    assert mcartest.data._max_records(path) == 6
    assert ds.values.tolist() == [[1.0, 2.0], [3.0, 0.0], [5.0, 6.0]]
    assert ds.mask.tolist() == [[True, True], [True, False], [True, True]]
    assert ds.values.base is None and ds.mask.base is None


def test_infer_roles(rng):
    ds, roles = make_dataset(rng, 30, 2, 3)
    assert infer_roles(ds) == roles
    assert roles.p == 2 and roles.q == 3


def test_response_matrix_values(rng):
    ds, roles = make_dataset(rng, 20, 1, 2)
    r = response_matrix(ds, roles)
    assert r.shape == (20, 2)
    assert set(np.unique(r)) <= {0, 1}
    np.testing.assert_array_equal(r == 1, ds.mask[:, [1, 2]])


def test_response_matrix_needs_incomplete():
    ds = Dataset(np.ones((4, 2)), np.ones((4, 2), bool), ("a", "b"))
    with pytest.raises(DegenerateDataError):
        response_matrix(ds, ColumnRoles((0, 1), ()))


def test_roles_validation(rng):
    ds, _ = make_dataset(rng, 15, 1, 1)
    with pytest.raises(ValueError):
        ColumnRoles((0,), (0, 1)).validate(ds)  # overlap
    with pytest.raises(ValueError):
        ColumnRoles((0,), ()).validate(ds)  # does not cover
    with pytest.raises(ValueError):
        # column 1 has missing cells, cannot be complete
        ColumnRoles((0, 1), ()).validate(ds)
    with pytest.raises(DegenerateDataError):
        ColumnRoles((), (0, 1)).validate(ds)  # no complete column


def test_load_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_csv(ragged)

    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("a,b\n1.0,hello\n")
    with pytest.raises(DataFormatError, match="'b'"):
        load_csv(nonnum)

    inf = tmp_path / "inf.csv"
    inf.write_text("a,b\n1.0,inf\n")
    with pytest.raises(DataFormatError, match="non-finite"):
        load_csv(inf)

    empty_col = tmp_path / "empty_col.csv"
    empty_col.write_text("a,b\n1.0,NA\n2.0,NA\n")
    with pytest.raises(DataFormatError, match="entirely missing"):
        load_csv(empty_col)

    headeronly = tmp_path / "headeronly.csv"
    headeronly.write_text("a,b\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(headeronly)

    blank = tmp_path / "blank.csv"
    blank.write_text("")
    with pytest.raises(DataFormatError, match="empty file"):
        load_csv(blank)


def test_load_error_order_bad_cell_before_ragged_line(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n4.0,5.0\n6.0\n")
    with pytest.raises(DataFormatError, match="line 3, column 'b'"):
        load_csv(path)


def test_load_error_order_ragged_line_before_bad_cell(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n4.0,5.0\n6.0,oops\n")
    with pytest.raises(DataFormatError, match="line 3 has 1 fields, expected 2"):
        load_csv(path)


def test_load_error_reports_leftmost_bad_cell(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("a,b,c\n1.0,2.0,3.0\n4.0,inf,oops\n")
    with pytest.raises(DataFormatError, match="line 3, column 'b': non-finite"):
        load_csv(path)
    path.write_text("a,b,c\n1.0,2.0,3.0\n4.0,oops,inf\n")
    with pytest.raises(DataFormatError, match="line 3, column 'b': cannot parse"):
        load_csv(path)


def test_load_error_names_the_file_line(tmp_path):
    # a quoted newline makes a record span two lines, so the bad record
    # starts on line 4, not at record 3
    path = tmp_path / "quoted.csv"
    path.write_text('a,b\n"1\n",2\n3,oops\n')
    with pytest.raises(DataFormatError, match="line 4, column 'b': cannot parse 'oops'"):
        load_csv(path)
    path.write_text('a,b\n"1\n",2\n3\n')
    with pytest.raises(DataFormatError, match="line 4 has 1 fields, expected 2"):
        load_csv(path)


def test_load_non_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n\xff,3\n")
    with pytest.raises(DataFormatError, match="not UTF-8"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
def test_load_non_finite(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
    message = f"line 3, column 'b': non-finite value '{cell}'"
    with pytest.raises(DataFormatError, match=message):
        load_csv(path)


def test_load_parses_like_float(tmp_path):
    cells = [" 1.5", "+.5", "1e5", "1_000", "-0"]
    path = tmp_path / "floats.csv"
    path.write_text("a,b\n" + "".join(f"{c},NA\n{c},7\n" for c in cells))
    ds, _ = load_csv(path)
    expected = [float(c) for c in cells for _ in range(2)]
    assert ds.values[:, 0].tobytes() == np.array(expected).tobytes()


def test_round_trip_quoted_header(tmp_path, rng):
    ds, _ = make_dataset(rng, 12, 1, 2)
    names = ("x, one", 'say "hi"', "  padded")
    ds = Dataset(ds.values, ds.mask, names)
    path = tmp_path / "quoted.csv"
    write_csv(ds, path)
    assert path.read_bytes().startswith(b'"x, one","say ""hi""",  padded\r\n')
    back, _ = load_csv(path)
    # header names are stripped of surrounding whitespace on load
    assert back.column_names == ("x, one", 'say "hi"', "padded")
    np.testing.assert_array_equal(back.mask, ds.mask)
    np.testing.assert_array_equal(back.values[ds.mask], ds.values[ds.mask])


LONG_MESSAGE = f"cell longer than {csv.field_size_limit()} characters"


def long_cell(text, line, names):
    """The name of the first cell over csv.field_size_limit() in the record
    that starts on ``line`` (its number past the header's), found by reading
    the record with a higher limit."""
    limit = csv.field_size_limit()
    rest = "".join(io.StringIO(text, newline="").readlines()[line - 1 :])
    csv.field_size_limit(2 * len(rest))
    try:
        row = next(csv.reader(io.StringIO(rest, newline="")))
    finally:
        csv.field_size_limit(limit)
    j = next(j for j, cell in enumerate(row) if len(cell) > limit)
    return repr(names[j]) if j < len(names) else str(j + 1)


def reference_parse(text, tokens=frozenset({"NA", "NaN", ""})):
    """Cell-by-cell parse in file order: (values, mask) or the first error.

    An error names the file line on which its record starts.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    names = [h.strip() for h in next(reader)]
    values, mask, rows = [], [], []
    lineno = reader.line_num + 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            return f"line {lineno}, column {long_cell(text, lineno, names)}: {LONG_MESSAGE}"
        rows.append(row)
        if len(row) != len(names):
            return f"line {lineno} has {len(row)} fields, expected {len(names)}"
        for name, cell in zip(names, row):
            mask.append(cell not in tokens)
            values.append(0.0)
            if cell in tokens:
                continue
            try:
                values[-1] = float(cell)
            except ValueError:
                return f"line {lineno}, column {name!r}: cannot parse {cell!r} as a number"
            if not math.isfinite(values[-1]):
                return f"line {lineno}, column {name!r}: non-finite value {cell!r}"
        lineno = reader.line_num + 1
    shape = (len(rows), len(names))
    return np.reshape(values, shape), np.reshape(mask, shape)


NUMBERS = ["1", "-2.5", "0", "-0", " 1.5", "+.5", "1e5", "1_000", "5e-324"]
ODD = ["NA", "", "NaN", "nan", "inf", "-inf", "1e400", "x", "1,5", "1 000", "0x10", "1\n5"]
# cells one character over csv.reader's field limit, one of them spanning
# lines and holding a quote
LONG = ["0" * csv.field_size_limit() + "1", '1\n""' + "0" * csv.field_size_limit()]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    d=st.integers(1, 3),
    rows=st.lists(
        st.tuples(
            st.sampled_from(NUMBERS),
            st.lists(st.sampled_from(NUMBERS + ODD + LONG), min_size=4, max_size=4),
            # how many fields the line has beyond the header's: mostly none
            st.sampled_from([0, 0, 0, 0, -1, 1]),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_load_matches_cell_by_cell_parse(tmp_path, d, rows):
    # the first column is always numeric, so a clean file has a complete
    # column; the others draw odd cells, and some lines are ragged
    lines = ["a" + "".join(f",c{j}" for j in range(d))]
    lines += [
        ",".join([first, *(f'"{c}"' for c in rest[: d + extra])])
        for first, rest, extra in rows
    ]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "prop.csv"
    path.write_text(text, encoding="utf-8")
    expected = reference_parse(text)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {expected}"
        return
    values, mask = expected
    if not mask.any(axis=0).all():
        with pytest.raises(DataFormatError, match="entirely missing"):
            load_csv(path)
        return
    ds, _ = load_csv(path)
    assert ds.mask.tobytes() == mask.tobytes()
    assert ds.values.tobytes() == values.tobytes()


def test_load_all_columns_incomplete(tmp_path):
    path = tmp_path / "allmiss.csv"
    path.write_text("a,b\n1.0,NA\nNA,2.0\n3.0,4.0\n")
    with pytest.raises(DegenerateDataError):
        load_csv(path)


def test_na_tokens_case_sensitive(tmp_path):
    path = tmp_path / "case.csv"
    path.write_text("a,b\n1.0,na\n2.0,3.0\n")
    # lowercase 'na' is not a default token, so it must fail to parse
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_incomplete_override(tmp_path):
    path = tmp_path / "override.csv"
    path.write_text("a,b,c\n1.0,2.0,3.0\n4.0,NA,6.0\n7.0,8.0,9.0\n")
    ds, roles = load_csv(path, incomplete=["b", "c"])
    assert roles.incomplete == (1, 2)
    assert roles.complete == (0,)
    # column c is fully observed but still treated as missingness-prone
    np.testing.assert_array_equal(response_matrix(ds, roles)[:, 1], [1, 1, 1])

    ds2, roles2 = load_csv(path, incomplete=[1])
    assert roles2.incomplete == (1,)

    with pytest.raises(ValueError, match="no column named"):
        load_csv(path, incomplete=["zz"])


# repr writes positional notation at 1e-4 <= |v| < 1e16 and exponent
# notation outside it; the writer must follow that switch on both sides
NOTATION_EDGES = [
    1e-4,
    float(np.nextafter(1e-4, 0)),
    1e-5,
    1e16,
    float(np.nextafter(1e16, 0)),
    9999999999999998.0,
    65537 / 65536,
    2.5e-310,
]
SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0,
    *NOTATION_EDGES, *(-v for v in NOTATION_EDGES),
]


@st.composite
def block_datasets(draw):
    """(block rows, dataset) with n below, at or just past a block multiple."""
    block = draw(st.sampled_from([1, 3, 4]))
    n = max(1, block * draw(st.integers(1, 3)) + draw(st.sampled_from([-1, 0, 1])))
    d = draw(st.integers(1, 3))
    cell = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, d), elements=cell))
    mask = draw(arrays(bool, (n, d)))
    mask[list(draw(st.sets(st.integers(0, n - 1))))] = False  # whole rows masked
    # a masked cell's placeholder may be any float, NaN and infinities included
    placeholder = st.sampled_from([math.nan, math.inf, -math.inf]) | cell
    values = np.where(mask, values, draw(arrays(float, (n, d), elements=placeholder)))
    return block, Dataset(values, mask, tuple(f"c{j}" for j in range(d)))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=block_datasets(), na_token=st.sampled_from(["NA", "", "n,a", '"']))
def test_write_csv_matches_rowwise_writer(tmp_path, monkeypatch, case, na_token):
    block, ds = case
    monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", block)
    write_csv(ds, tmp_path / "blocks.csv", na_token=na_token)
    rowwise_write_csv(ds, tmp_path / "rows.csv", na_token=na_token)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_matches_repr_on_dense_floats(tmp_path):
    # random bit patterns: half at every exponent, which repr writes in
    # exponent notation, half at the exponents orjson writes; and K * 2**e
    # with K odd, where the shortest digits more often end in a tie
    rng = np.random.default_rng(11)
    signs = rng.choice([-1.0, 1.0], 500_000)
    anywhere = rng.integers(0, 2**64, 500_000, dtype=np.uint64, endpoint=False).view(float)
    positional = signs * np.ldexp(1.0 + rng.random(500_000), rng.integers(-14, 54, 500_000))
    odd = 2.0 * rng.integers(0, 2**19, 200_000) + 1.0
    ties = signs[:200_000] * np.ldexp(odd, rng.integers(-40, 40, 200_000))
    values = np.concatenate([anywhere[np.isfinite(anywhere)], positional, ties])
    values = values[: len(values) // 4 * 4].reshape(-1, 4)
    mask = rng.random(values.shape) >= 0.05
    ds = Dataset(values, mask, ("a", "b", "c", "d"))
    write_csv(ds, tmp_path / "blocks.csv")
    rowwise_write_csv(ds, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 4, 5])
def test_round_trip_across_blocks(tmp_path, monkeypatch, rng, block):
    monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", block)
    ds, _ = make_dataset(rng, 21, 2, 2)
    values = np.array(ds.values)
    values[0, 0], values[1, 1], values[2, 0] = -0.0, 5e-324, 1e300
    ds = Dataset(values, ds.mask, ds.column_names)
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back, _ = load_csv(path)
    assert back.mask.tobytes() == ds.mask.tobytes()
    assert back.values[ds.mask].tobytes() == ds.values[ds.mask].tobytes()


@pytest.mark.parametrize("block", [2, 8192])  # row 2 opens the second block of 2
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_csv_rejects_non_finite_observed_values(tmp_path, monkeypatch, value, block):
    # load_csv rejects nan and inf cells, so writing one would break the
    # round trip; a masked cell's placeholder is never written
    monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", block)
    values = np.ones((4, 2))
    values[2, 1] = value
    mask = np.ones((4, 2), bool)
    mask[1, 1] = False
    path = tmp_path / "nonfinite.csv"
    with pytest.raises(ValueError, match=f"row 2, column 'y': .* value {value!r}"):
        write_csv(Dataset(values, mask, ("x", "y")), path)
    assert not path.exists()


def load_outcome(path, tokens):
    """What load_csv gives: observed values, mask, names and roles, or the
    class and message of what it raises."""
    try:
        ds, roles = load_csv(path, na_tokens=tokens)
    except Exception as exc:  # every exception is compared, whatever its class
        return type(exc), str(exc)
    return ds.values[ds.mask].tobytes(), ds.mask.tobytes(), ds.mask.shape, ds.column_names, roles


PLAIN_TOKENS = ["NA", "NaN", "", "?", "-", "1", "a", "nan"]
# cells that numpy's parser and float() read differently, or that a token
# replacement could corrupt, plus non-finite values
PARSER_TRAPS = [
    "-NA", " NA", "NA ", "nan", "NAN", "-nan", "inf", "Infinity", "1e400", "1_0", "#3",
    '"2"', "١", "1\x0c2", "\x0c", "1\xa0", " 1.5", "+.5", "-0", "0x10", "1,5", "n,a", "1\x002",
    "0" * csv.field_size_limit() + "1",  # csv.reader rejects a cell this long
]
TOKEN_SETS = [None, {"NA"}, {"?"}, {"-", "NA"}, {"1"}, {"nan"}, {"NA", "a"}, {"", "n,a"}]


@st.composite
def csv_texts(draw):
    """(text, na_tokens) of a small CSV file.  Half are in write_csv's plain
    shape: CRLF line ends, unquoted numbers and the non-empty tokens; the
    other half add any token, the traps, blank and ragged lines, and LF and
    CR line ends."""
    d = draw(st.integers(1, 4))
    names = [draw(st.sampled_from([f"c{j}", f'"c,{j}"', f'"say ""{j}"""'])) for j in range(d)]
    tokens = draw(st.sampled_from(TOKEN_SETS))
    plain = draw(st.booleans())
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = number | st.sampled_from(sorted(filter(None, tokens or {"NA", "NaN"})))
    end = st.just("\r\n")
    kinds = ["row"]
    if not plain:
        cell = cell | st.sampled_from(PLAIN_TOKENS) | st.sampled_from(PARSER_TRAPS)
        end = st.sampled_from(["\r\n"] * 8 + ["\n", "\r"])
        kinds = ["row"] * 8 + ["ragged", "blank"]
    lines = [",".join(names) + "\r\n"]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(end))
            continue
        width = d + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        lines.append(",".join(draw(cell) for _ in range(width)) + draw(end))
    text = "".join(lines)
    if not plain and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return text, tokens


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=csv_texts(), block=st.sampled_from([1, 2, 3, 8192]))
# an infinity, a cell longer than csv.reader's field limit, and a line that
# str.splitlines would split in two beside one it would blank
@example(case=("a,b\r\n1.0,inf\r\n", None), block=8192)
@example(case=("a\r\n" + "0" * csv.field_size_limit() + "1\r\n", None), block=8192)
@example(case=("a\r\n1\x0c2\r\n\x0c\r\n", {"NA"}), block=8192)
def test_load_matches_the_csv_reader_path(tmp_path, monkeypatch, case, block):
    text, tokens = case
    path = tmp_path / "diff.csv"
    path.write_bytes(text.encode("utf-8"))
    # the arrays are sized before a record is read: no record may be missed
    lines = io.StringIO(text, newline="").readlines()
    assert mcartest.data._max_records(path) == max(len(lines) - 1, 0)
    monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", block)
    got = load_outcome(path, tokens)
    # the plain parser declines, so the csv.reader path reads every record
    with monkeypatch.context() as m:
        m.setattr(mcartest.data, "_parse_plain", lambda lines, d, tokens: None)
        assert got == load_outcome(path, tokens)


@pytest.mark.parametrize("last", ["7,8.5\n", "7,\r\n", "7,oops\r\n", '7,"8"\r\n'])
def test_csv_reader_takes_over_from_the_first_block_that_is_not_plain(
    tmp_path, monkeypatch, last
):
    # nine plain records in three blocks, then a last record the numpy
    # parser declines: only that block is parsed by the csv.reader path,
    # and the result or the message is that path's
    text = "a,b\r\n" + "".join(f"{i},{i + 0.5}\r\n" for i in range(9)) + last
    path = tmp_path / "late.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", 3)
    parsed = []
    parse_block = mcartest.data._parse_block

    def spy(path, names, rows, tokens, first):
        parsed.append((first, len(rows)))
        return parse_block(path, names, rows, tokens, first)

    monkeypatch.setattr(mcartest.data, "_parse_block", spy)
    expected = reference_parse(text)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {expected}"
    else:
        ds, _ = load_csv(path)
        assert ds.mask.tobytes() == expected[1].tobytes()
        assert ds.values.tobytes() == expected[0].tobytes()
    assert parsed == [(9, 1)]


@pytest.mark.parametrize("block", [3, 8192])
@pytest.mark.parametrize("na_token", ["NA", "NaN", "?"])
def test_write_csv_output_takes_the_plain_path(tmp_path, monkeypatch, rng, block, na_token):
    # the csv.reader path must not run on what write_csv writes, or the
    # numpy parser's gain is silently lost
    monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", block)
    ds, roles = make_dataset(rng, 20, 2, 3)
    values = np.array(ds.values)
    values[0, :3] = -0.0, 5e-324, 1e300
    ds = Dataset(values, ds.mask, ("x, one", 'say "hi"', "y1", "y2", "y3"))
    path = tmp_path / "plain.csv"
    write_csv(ds, path, na_token=na_token)

    def fail(*args):
        raise AssertionError("csv.reader path taken")

    monkeypatch.setattr(mcartest.data, "_parse_block", fail)
    back, back_roles = load_csv(path, na_tokens={na_token})
    assert back.mask.tobytes() == ds.mask.tobytes()
    assert back.values[ds.mask].tobytes() == ds.values[ds.mask].tobytes()
    assert back.column_names == ds.column_names and back_roles == roles


# (what is wrong, lines): the offending data line(s) replace good ones
LOAD_FAULTS = {
    "bad-cell": ["7,oops"],
    "non-finite": ["7,inf"],
    "ragged": ["7"],
    "bad-cell-then-ragged": ["7,oops", "8"],
    "ragged-then-bad-cell": ["7", "8,oops"],
}


@pytest.mark.parametrize("fault", LOAD_FAULTS)
@pytest.mark.parametrize("at", [3, 4, 5, 7, 8, 9])  # data lines 4 and 8 end a block
def test_load_errors_at_block_edges(tmp_path, monkeypatch, fault, at):
    lines = [f"{i},{i + 0.5}" for i in range(12)]
    bad = LOAD_FAULTS[fault]
    lines[at - 1 : at - 1 + len(bad)] = bad
    text = "a,b\n" + "\n".join(lines) + "\n"
    path = tmp_path / "edge.csv"
    path.write_text(text)
    expected = f"{path}: {reference_parse(text)}"
    for block in (4, 10**6):
        monkeypatch.setattr(mcartest.data, "_BLOCK_ROWS", block)
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == expected


def test_csv_memory_is_bounded_by_blocks(tmp_path):
    rng = np.random.default_rng(5)

    def write(n):
        mask = np.ones((n, 2), bool)
        mask[:, 1] = rng.random(n) >= 0.12
        ds = Dataset(rng.exponential(size=(n, 2)), mask, ("x", "y"))
        path = tmp_path / f"{n}.csv"
        return traced_peak(write_csv, ds, path)[0], path

    # the writer holds one block's cells whatever the row count
    assert write(160_000)[0] <= 1.2 * write(40_000)[0]
    # the reader fills the arrays it returns in place: it holds them once,
    # plus one block's strings and parsed arrays.  The one-block load's peak
    # is that working set; its own arrays (37 KB of the 160k rows' 2.9 MB)
    # are the only slack.
    one_block, _ = traced_peak(load_csv, write(mcartest.data._BLOCK_ROWS)[1])
    peak, (ds, _) = traced_peak(load_csv, tmp_path / "160000.csv")
    assert peak <= ds.values.nbytes + ds.mask.nbytes + one_block
