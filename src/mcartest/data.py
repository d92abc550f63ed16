"""Dataset representation: numeric matrix, explicit missingness mask, column roles.

Missing cells are tracked by a boolean mask instead of a sentinel value, so
the statistics never have to worry about NaN leaking into a sum.  The value
stored under a masked cell is an unspecified placeholder and is never read.
"""

import csv
import io
from dataclasses import dataclass
from itertools import chain, filterfalse, islice
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DegenerateDataError

DEFAULT_NA_TOKENS = frozenset({"NA", "NaN", ""})

# rows per block of the CSV reader and writer: a block's cell strings are
# the only per-cell Python objects alive at a time.  Blocks of 8192 rows
# read as fast, but left `mcartest test` on a 100k x 5 file a peak RSS
# ~2.4 MB higher
_BLOCK_ROWS = 2048


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``: ``a`` itself when it is a
    C-contiguous array that no one can write to, because it and every array
    it views are read-only; otherwise a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous:
        base = a
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return a
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """An n x d numeric matrix with an explicit observation mask.

    Attributes
    ----------
    values : (n, d) float array
        Cell values; entries where ``mask`` is False are placeholders.
    mask : (n, d) bool array
        True where the cell is observed.
    column_names : tuple of str

    Both arrays are read-only.  An array given that someone could still
    write to is copied; a read-only one is kept as it is.
    """

    values: np.ndarray
    mask: np.ndarray
    column_names: tuple

    def __post_init__(self):
        values = _frozen(self.values, float)
        mask = _frozen(self.mask, bool)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a non-empty 2-D matrix")
        if mask.shape != values.shape:
            raise ValueError("mask and values must have identical shape")
        names = tuple(str(c) for c in self.column_names)
        if len(names) != values.shape[1]:
            raise ValueError("column_names length must match column count")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def with_mask(self, mask: np.ndarray) -> "Dataset":
        """Copy of this dataset with a replacement mask."""
        return Dataset(self.values, mask, self.column_names)


@dataclass(frozen=True)
class ColumnRoles:
    """Partition of columns into fully observed and missingness-prone ones."""

    complete: tuple
    incomplete: tuple

    def __post_init__(self):
        object.__setattr__(self, "complete", tuple(int(i) for i in self.complete))
        object.__setattr__(self, "incomplete", tuple(int(i) for i in self.incomplete))

    @property
    def p(self) -> int:
        return len(self.complete)

    @property
    def q(self) -> int:
        return len(self.incomplete)

    def validate(self, ds: Dataset) -> None:
        """Check the roles against a dataset; raise if inconsistent."""
        seen = set(self.complete) | set(self.incomplete)
        if len(self.complete) + len(self.incomplete) != len(seen):
            raise ValueError("complete and incomplete column sets overlap")
        if seen != set(range(ds.d)):
            raise ValueError("roles must cover every column exactly once")
        if self.p < 1:
            raise DegenerateDataError(
                "the tests require at least one fully observed column"
            )
        for j in self.complete:
            if not ds.mask[:, j].all():
                raise ValueError(
                    f"column {ds.column_names[j]!r} is marked complete "
                    "but has missing cells"
                )


def infer_roles(ds: Dataset) -> ColumnRoles:
    """Complete columns are those with no missing cells; the rest are incomplete."""
    complete = [j for j in range(ds.d) if ds.mask[:, j].all()]
    incomplete = [j for j in range(ds.d) if j not in complete]
    return ColumnRoles(tuple(complete), tuple(incomplete))


def response_matrix(ds: Dataset, roles: ColumnRoles) -> np.ndarray:
    """0/1 indicator matrix for the incomplete columns, in roles order.

    Entry (i, v) is 1 iff row i of the v-th incomplete column is observed.
    """
    roles.validate(ds)
    if roles.q == 0:
        raise DegenerateDataError("no incomplete columns")
    return ds.mask[:, list(roles.incomplete)].astype(np.int8)


def _resolve_incomplete(names, incomplete) -> list:
    out = []
    for item in incomplete:
        if isinstance(item, (int, np.integer)):
            j = int(item)
            if not 0 <= j < len(names):
                raise ValueError(f"incomplete column index {j} out of range")
        else:
            try:
                j = names.index(item)
            except ValueError:
                raise ValueError(f"no column named {item!r}") from None
        out.append(j)
    return out


def _line(path, record: int) -> int:
    """The file line on which data record ``record`` (0 is the first after
    the header) starts; a quoted cell can span lines, so this rescans."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, record + 1):
            pass
        return reader.line_num + 1


def _raise_first_bad_cell(path, names, rows, tokens, first):
    """Raise DataFormatError for the first unparsable or non-finite cell."""
    for record, row in enumerate(rows, start=first):
        for name, cell in zip(names, row):
            if cell in tokens:
                continue
            try:
                x = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {_line(path, record)}, column {name!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not np.isfinite(x):
                raise DataFormatError(
                    f"{path}: line {_line(path, record)}, column {name!r}: "
                    f"non-finite value {cell!r}"
                )


def _parse_block(path, names, rows, tokens, first):
    """(values, mask) of one block of records, each (records, d).

    ``first`` is the index of the block's first record among the data
    records.  Cells are parsed up to the block's first ragged line; a bad
    cell among them comes first in the file, so it is reported instead of
    that line.
    """
    d = len(names)
    n_good = next((i for i, row in enumerate(rows) if len(row) != d), len(rows))
    parsed = rows[:n_good]
    cells = list(chain.from_iterable(parsed))
    mask = ~np.fromiter(map(tokens.__contains__, cells), bool, len(cells))
    observed = filterfalse(tokens.__contains__, cells)
    try:
        numbers = np.fromiter(map(float, observed), float, mask.sum())
    except ValueError:
        numbers = None
    if numbers is None or not np.isfinite(numbers).all():
        _raise_first_bad_cell(path, names, parsed, tokens, first)
    if n_good < len(rows):
        raise DataFormatError(
            f"{path}: line {_line(path, first + n_good)} has {len(rows[n_good])} "
            f"fields, expected {d}"
        )
    values = np.zeros(len(cells))
    values[mask] = numbers
    return values.reshape(n_good, d), mask.reshape(n_good, d)


def _parse_plain(lines, d, tokens):
    """``_parse_block``'s (values, mask) of lines in write_csv's plain
    shape, parsed by numpy's C parser; None where that parse might differ.

    A plain block has no quote and no ``#``, and every line ends in CRLF,
    so its cells are the text between commas and line ends.  The cells
    that are exactly a token are found by one byte scan.  Each non-empty
    token is replaced by ``nan`` in the text, longest first, and the block
    is accepted only if it parses to ``d`` numbers per line, NaN exactly at
    the token cells and no infinity.  numpy's parser accepts a subset of
    what ``float`` accepts (no ``_``, no non-ASCII digits) and rounds the
    same way, and a cell in which a token was replaced parses as NaN or not
    at all, so an accepted block holds the numbers ``_parse_block`` gives.
    """
    text = "".join(lines)
    if '"' in text or "#" in text or text.count("\r\n") != len(lines):
        return None
    # csv.reader gives a blank line no fields; numpy's parser skips it
    if text.startswith("\r\n") or "\n\r\n" in text:
        return None
    raw = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\r")))
    if len(ends) != len(lines) * d:
        return None
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + np.where(raw[ends[:-1]] == ord(","), 1, 2)
    lengths = ends - starts
    # csv.reader rejects a cell longer than its field limit
    if lengths.max() > csv.field_size_limit():
        return None
    missing = np.zeros(len(ends), bool)
    for token in tokens:
        code = token.encode()
        at = np.flatnonzero(lengths == len(code))
        for k, byte in enumerate(code):
            at = at[raw[starts[at] + k] == byte]
        missing[at] = True
    for token in sorted(filter(None, tokens), key=len, reverse=True):
        text = text.replace(token, "nan")
    rows = text.split("\r\n")
    rows.pop()
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), d):
        return None
    missing = missing.reshape(values.shape)
    if not np.array_equal(np.isnan(values), missing) or np.isinf(values).any():
        return None
    values[missing] = 0.0
    return values, ~missing


def _max_records(path) -> int:
    """An upper bound on the data records of a CSV file: its lines but the
    header's.  csv.reader ends a record only at a line end (LF, CR or CRLF)
    or at the end of the file, so no record is on fewer than one line."""
    lines, last = 0, b""
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            raw = np.frombuffer(chunk, np.uint8)
            lf, cr = raw == ord("\n"), raw == ord("\r")
            # a CRLF split between two chunks counts twice
            count = np.count_nonzero(lf) + np.count_nonzero(cr)
            lines += count - np.count_nonzero(cr[:-1] & lf[1:])
            last = chunk[-1:]
    return max(int(lines) - (last in b"\r\n"), 0)


def _long_cell(path, line):
    """Index of the first cell longer than csv.field_size_limit() in the
    record that starts on file line ``line``, split as csv.reader's default
    dialect splits it; None if it has none."""
    limit = csv.field_size_limit()
    column, length, state = 0, 0, "start"
    with path.open(newline="", encoding="utf-8") as fh:
        for c in chain.from_iterable(islice(fh, line - 1, None)):
            if state == "quoted":
                if c == '"':
                    state = "quote"  # ends the quoted text unless a quote follows
                    continue
            elif state == "quote" and c == '"':
                state = "quoted"
            elif c == ",":
                column, length, state = column + 1, 0, "start"
                continue
            elif c in "\r\n":
                return None
            elif state == "start" and c == '"':
                state = "quoted"
                continue
            else:
                state = "field"
            length += 1
            if length > limit:
                return column
    return None


def _long_cell_error(path, names, line) -> DataFormatError:
    """The error for a record that csv.reader rejects: the only error of its
    default dialect is a cell longer than its field limit."""
    column = _long_cell(path, line)
    if column is None:
        name = "?"
    else:
        name = repr(names[column]) if column < len(names) else str(column + 1)
    return DataFormatError(
        f"{path}: line {line}, column {name}: cell longer than "
        f"{csv.field_size_limit()} characters"
    )


def _read_blocks(path, fh, names, tokens):
    """Each block's (values, mask) of up to ``_BLOCK_ROWS`` data records of
    ``fh``, a CSV file read past its header.

    Blocks of lines in write_csv's plain shape, which hold one record per
    line, are parsed by ``_parse_plain``.  From the first block that is not,
    the rest of the file is read by csv.reader and parsed by
    ``_parse_block``, which reports every error in the records, so only the
    block that declines is tried by both parsers and every message is that
    of the csv.reader parser.
    """
    # no name holds a block's lines or arrays while the next block is read
    n = 0
    while lines := list(islice(fh, _BLOCK_ROWS)):
        block = _parse_plain(lines, len(names), tokens)
        if block is None:
            break
        n += len(lines)
        del lines
        yield block
        del block
    reader = csv.reader(chain(lines, fh))
    del lines  # the reader lets go of each line once it is parsed
    while True:
        rows = []
        try:
            rows.extend(islice(reader, _BLOCK_ROWS))
        except csv.Error:
            # an error in a record before this one comes first in the file,
            # so that one is raised instead
            if rows:
                _parse_block(path, names, rows, tokens, first=n)
            raise _long_cell_error(path, names, _line(path, n + len(rows))) from None
        if not rows:
            return
        yield _parse_block(path, names, rows, tokens, first=n)
        n += len(rows)


def _read(path, tokens):
    """(names, values, mask) of a CSV file: its header, and the (n, d)
    values and mask of its data records, filled block by block, so no more
    than one block is held beside them."""
    rows = _max_records(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataFormatError(f"{path}: empty file, expected a header row") from None
            except csv.Error:
                raise _long_cell_error(path, [], 1) from None
            names = [h.strip() for h in header]
            values = np.empty((rows, len(names)))
            mask = np.empty((rows, len(names)), bool)
            n = 0
            for block in _read_blocks(path, fh, names, tokens):
                k = len(block[0])
                values[n : n + k], mask[n : n + k] = block
                n += k
                del block
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not n:
        raise DataFormatError(f"{path}: no data rows")
    if n < rows:
        # quoted cells spanned lines: give back the rows never filled
        values.resize((n, len(names)), refcheck=False)
        mask.resize((n, len(names)), refcheck=False)
    return names, values, mask


def load_csv(path, na_tokens=None, incomplete=None):
    """Read a rectangular CSV with a header row into a Dataset plus roles.

    The records are read and parsed ``_BLOCK_ROWS`` at a time, so no more
    than one block of them is held as strings.  Blocks in the plain shape
    that ``write_csv`` emits are parsed by numpy's C parser.  From the first
    block that is not plain, or that might parse differently or hold an
    error, the rest of the file is read by csv.reader, so the values, the
    mask and every error message are those of that exact parser.

    Parameters
    ----------
    path : str or Path
    na_tokens : set of str, optional
        Cell strings treated as missing (exact, case-sensitive match).
        Defaults to {"NA", "NaN", ""}.
    incomplete : sequence of column names or indices, optional
        Explicit role override: these columns are treated as incomplete,
        all others as complete.  By default, columns containing at least
        one missing cell are incomplete.

    Returns
    -------
    (Dataset, ColumnRoles)

    Raises
    ------
    DataFormatError
        A file that is not UTF-8, ragged rows, a non-missing cell that does
        not parse as a finite number, or an entirely missing column.  Of
        the bad cells and ragged lines, the first in the file is reported,
        with the file line on which its record starts.
    DegenerateDataError
        No complete columns remain.
    """
    tokens = DEFAULT_NA_TOKENS if na_tokens is None else frozenset(na_tokens)
    path = Path(path)
    names, values, mask = _read(path, tokens)
    values.setflags(write=False)
    mask.setflags(write=False)
    ds = Dataset(values, mask, tuple(names))

    for j in range(ds.d):
        if not ds.mask[:, j].any():
            raise DataFormatError(
                f"{path}: column {names[j]!r} is entirely missing"
            )

    if incomplete is None:
        roles = infer_roles(ds)
    else:
        inc = sorted(set(_resolve_incomplete(names, incomplete)))
        comp = [j for j in range(ds.d) if j not in inc]
        roles = ColumnRoles(tuple(comp), tuple(inc))
    if roles.p < 1:
        raise DegenerateDataError(
            f"{path}: every column has missing values; "
            "the tests require at least one complete column"
        )
    roles.validate(ds)
    return ds, roles


def _na_cell(na_token: str, d: int) -> str:
    """``na_token`` as csv.writer writes it in a row of ``d`` cells.

    It is quoted where it needs quoting, and an empty token also where it is
    a row's only cell.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow([na_token] if d == 1 else [na_token, ""])
    return buf.getvalue()[: -2 if d == 1 else -3]


def write_csv(ds: Dataset, path, na_token: str = "NA") -> None:
    """Write a dataset; masked cells become ``na_token``.

    Every observed value is written as its ``repr``, so a load_csv round
    trip reproduces the observed values and the mask exactly.  The rows are
    written ``_BLOCK_ROWS`` at a time: one ``orjson.dumps`` of each block's
    values, split into cells; the masked cells replaced by the token, and
    the cells orjson writes in another notation than ``repr`` by their
    ``repr``; and one write of its lines, byte for byte what csv.writer
    writes.

    orjson prints each float as its shortest round-trip digits, nearest the
    value among them, as ``repr`` does, and in the same notation wherever
    ``repr`` writes positional form: at 1e-4 <= |v| < 1e16, and at zero.
    Outside that range ``repr`` writes an exponent with a sign and two
    digits or more (``1e-05``, ``1e+16``) where orjson writes ``1e-5``,
    ``1e16`` or ``0.00001``, so those cells are written by ``repr``.

    Raises
    ------
    ValueError
        An observed value is NaN or infinite, which load_csv would reject;
        nothing is written.
    """
    import orjson

    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, ds.n, _BLOCK_ROWS)]
    for block in blocks:
        bad = ds.mask[block] & ~np.isfinite(ds.values[block])
        if bad.any():
            i, j = np.argwhere(bad)[0] + (block.start, 0)
            raise ValueError(
                f"row {i}, column {ds.column_names[j]!r}: cannot write the observed "
                f"non-finite value {float(ds.values[i, j])!r}"
            )
    path = Path(path)
    na = _na_cell(na_token, ds.d)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(ds.column_names)
        for block in blocks:
            values = ds.values[block].ravel()
            observed = ds.mask[block].ravel()
            # a 1-D array of floats dumps as its cells joined by ","
            text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
            cells = text[1:-1].split(",")
            size = np.abs(values)
            outside = (size >= 1e16) | ((size < 1e-4) & (size != 0))
            redo = np.flatnonzero(~observed | outside)
            # the repr of a list of floats is the floats' reprs joined by ", "
            reprs = repr(values[redo].tolist())[1:-1].split(", ")
            for k, cell, seen in zip(redo.tolist(), reprs, observed[redo].tolist()):
                cells[k] = cell if seen else na
            rows = zip(*[iter(cells)] * ds.d)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
