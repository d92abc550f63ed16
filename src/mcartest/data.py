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

from .errors import DataFormatError

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
        """Raise ValueError unless the roles partition the dataset's columns and
        each complete column is; which tests fit p and q is ``stats.resolve_tests``'s."""
        seen = set(self.complete) | set(self.incomplete)
        if len(self.complete) + len(self.incomplete) != len(seen):
            raise ValueError("complete and incomplete column sets overlap")
        if seen != set(range(ds.d)):
            raise ValueError("roles must cover every column exactly once")
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


def _parse_block(rows, d, tokens):
    """(values, mask) of one block of csv.reader records, each (records, d);
    None if a record has other than ``d`` fields or a cell that is neither
    a token nor a finite number."""
    if set(map(len, rows)) != {d}:
        return None
    cells = list(chain.from_iterable(rows))
    mask = ~np.fromiter(map(tokens.__contains__, cells), bool, len(cells))
    observed = filterfalse(tokens.__contains__, cells)
    try:
        numbers = np.fromiter(map(float, observed), float, mask.sum())
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    values = np.zeros(len(cells))
    values[mask] = numbers
    return values.reshape(len(rows), d), mask.reshape(len(rows), d)


def _parse_plain(lines, d, tokens):
    """``_parse_block``'s (values, mask) of lines in write_csv's plain
    shape, parsed as one JSON array by orjson; None where that parse might
    differ.

    ``lines`` are split as a file opened with ``newline=""`` splits them, so
    a CR or LF occurs only at a line's end.  A plain block has no quote and
    no space, every line ends in CRLF or LF, and every cell is non-empty,
    so its cells are the text between commas and line ends.  Joined by
    commas, the lines are one JSON array of the cells, since CR and LF are
    JSON whitespace.  One byte scan gives each cell's start and length, and
    each cell that is exactly a token is overwritten by ``0`` padded with
    spaces.  What is left must be only digits, ``.``, ``-``, ``+``, ``e``,
    ``E``, commas, line ends and that padding, so every cell is a JSON
    number or fails to parse.  A JSON number is a spelling that ``float`` accepts too, and
    orjson rounds it correctly, as ``float`` does; the one spelling it
    reads otherwise is ``-0``, an integer that loses its sign, so that
    block is declined.  A block is also declined unless it holds ``d``
    cells per line, each no longer than ``csv.field_size_limit()``, and
    only finite numbers, so an accepted block holds the numbers
    ``_parse_block`` gives.
    """
    import orjson

    text = ",".join(lines).encode()
    if b'"' in text or b" " in text:
        return None
    buf = bytearray(b"[")
    buf += text
    buf += b"]"
    del text
    raw = np.frombuffer(buf, np.uint8)
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("]")))
    if len(ends) != len(lines) * d:
        return None
    # an LF is followed by a comma or the closing bracket, so it ends one
    # cell: d cells per line, every line ending in LF or CRLF, is an LF
    # before every d-th cell's end
    newline = raw[ends - 1] == ord("\n")
    if not newline[d - 1 :: d].all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 1
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts - newline
    lengths -= raw[ends - 1 - newline] == ord("\r")
    # JSON has no empty cell, and csv.reader rejects a cell longer than its
    # field limit
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit():
        return None
    missing = np.zeros(len(ends), bool)
    for token in filter(None, tokens):
        code = token.encode()
        at = np.flatnonzero(lengths == len(code))
        for k, byte in enumerate(code):
            at = at[raw[starts[at] + k] == byte]
        missing[at] = True
        # what a later token matches among these cells is missing already
        at = starts[at]
        raw[at] = ord("0")
        for k in range(1, len(code)):
            raw[at + k] = ord(" ")
    if buf.translate(None, b"0123456789.-+eE,\r\n ") != b"[]":
        return None
    at = starts[lengths == 2]
    if ((raw[at] == ord("-")) & (raw[at + 1] == ord("0"))).any():
        return None
    try:
        cells = orjson.loads(buf)
    except orjson.JSONDecodeError:
        return None
    del buf, raw
    if len(cells) != len(ends):
        return None
    values = np.fromiter(cells, float, len(cells))
    if not np.isfinite(values).all():
        return None
    # a token cell parsed as the placeholder 0, as _parse_block sets it
    return values.reshape(-1, d), ~missing.reshape(-1, d)


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


def _first_error(path, names, tokens) -> DataFormatError:
    """The error for the first bad record of a CSV file that a parser
    rejected, with the file line on which that record starts.

    The file is read again, record by record, by csv.reader with its field
    limit raised, so a record with a cell over the limit is read whole.  In
    a record, a cell over the limit comes first, then a field count other
    than ``len(names)``, then the leftmost cell that is not a token and not
    a finite number.  ``names`` is empty where the header was rejected.
    """
    limit = csv.field_size_limit()
    csv.field_size_limit(2**31 - 1)  # fits a C long on every platform
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            line = 1
            for record, row in enumerate(reader):
                where = f"{path}: line {line}"
                line = reader.line_num + 1
                j = next((j for j, cell in enumerate(row) if len(cell) > limit), None)
                if j is not None:
                    name = repr(names[j]) if j < len(names) else j + 1
                    return DataFormatError(
                        f"{where}, column {name}: cell longer than {limit} characters"
                    )
                if not record:
                    continue  # the header
                if len(row) != len(names):
                    return DataFormatError(
                        f"{where} has {len(row)} fields, expected {len(names)}"
                    )
                for name, cell in zip(names, row):
                    if cell in tokens:
                        continue
                    try:
                        x = float(cell)
                    except ValueError:
                        return DataFormatError(
                            f"{where}, column {name!r}: cannot parse {cell!r} as a number"
                        )
                    if not np.isfinite(x):
                        return DataFormatError(
                            f"{where}, column {name!r}: non-finite value {cell!r}"
                        )
    finally:
        csv.field_size_limit(limit)
    return DataFormatError(f"{path}: the file changed while it was read")


def _read_blocks(path, fh, names, tokens):
    """Each block's (values, mask) of up to ``_BLOCK_ROWS`` data records of
    ``fh``, a CSV file read past its header.

    Blocks of lines in write_csv's plain shape, with CRLF or LF line ends,
    hold one record per line and are parsed by ``_parse_plain``.  From the
    first block that is not, the rest of the file is read by csv.reader and
    parsed by ``_parse_block``, so only the block that declines is tried by
    both parsers.  A block that csv.reader or ``_parse_block`` rejects
    raises ``_first_error``.
    """
    # no name holds a block's lines or arrays while the next block is read
    while lines := list(islice(fh, _BLOCK_ROWS)):
        block = _parse_plain(lines, len(names), tokens)
        if block is None:
            break
        del lines
        yield block
        del block
    reader = csv.reader(chain(lines, fh))
    del lines  # the reader lets go of each line once it is parsed
    try:
        while rows := list(islice(reader, _BLOCK_ROWS)):
            block = _parse_block(rows, len(names), tokens)
            del rows
            if block is None:
                raise _first_error(path, names, tokens)
            yield block
            del block
    except csv.Error:
        raise _first_error(path, names, tokens) from None


def _read(path, tokens):
    """(names, values, mask) of a CSV file: its header, and the (n, d)
    values and mask of its data records, filled block by block, so no more
    than one block is held beside them."""
    rows = _max_records(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataFormatError(f"{path}: empty file, expected a header row") from None
            except csv.Error:
                raise _first_error(path, [], tokens) from None
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


def load_csv(path, na_tokens=None):
    """Read a rectangular CSV with a header row into a Dataset plus roles.

    The records are read and parsed ``_BLOCK_ROWS`` at a time, so no more
    than one block of them is held as strings.  Blocks in the plain shape
    that ``write_csv`` emits, with CRLF or LF line ends, are parsed as one
    JSON array each by orjson.  That parse is exact: JSON numbers are a
    subset of what ``float`` accepts, orjson rounds them correctly, and a
    block with any spelling it might read otherwise is declined.  From the
    first block that is not plain, or that might parse differently or hold
    an error, the rest of the file is read by csv.reader, so the values and
    the mask are those of that exact parser.  Every error message comes
    from one more read of the file, record by record, by ``_first_error``.

    Parameters
    ----------
    path : str or Path
    na_tokens : set of str, optional
        Cell strings treated as missing (exact, case-sensitive match).
        Defaults to {"NA", "NaN", ""}.

    Returns
    -------
    (Dataset, ColumnRoles)
        The roles are ``infer_roles``': the columns with a missing cell are
        the incomplete ones, the rest the complete ones.

    Raises
    ------
    DataFormatError
        A file that is not UTF-8, ragged rows, a non-missing cell that does
        not parse as a finite number, a cell longer than
        ``csv.field_size_limit()``, or an entirely missing column.  Of the
        bad cells and ragged lines, the first in the file is reported, with
        the file line on which its record starts.
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
    return ds, infer_roles(ds)


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
    the observed cells orjson writes in another notation than ``repr`` by
    their ``repr``; and one write of its lines, byte for byte what csv.writer
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
            size = np.abs(values)
            outside = (size >= 1e16) | ((size < 1e-4) & (size != 0))
            redo = np.flatnonzero(observed & outside)
            # a 1-D array of floats dumps as its cells joined by ","; the
            # repr of a list of floats is their reprs joined by ", "
            text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
            cells = text[1:-1].split(",")
            reprs = repr(values[redo].tolist())[1:-1].split(", ")
            for k, cell in zip(redo.tolist(), reprs):
                cells[k] = cell
            for k in np.flatnonzero(~observed).tolist():
                cells[k] = na
            rows = zip(*[iter(cells)] * ds.d)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
