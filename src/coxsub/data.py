"""Survival dataset container and CSV ingestion.

A dataset is an immutable bundle of covariates, observed times and event
indicators, stored once: in record order until the first risk-set sweep,
then in the time-ascending sweep order the sweeps read.  Ties are ordered
deterministically: earlier time first, events before censorings at equal
times, then original record order.

One rule, :func:`_value_violations`, judges the values of arrays and CSV
files alike, once per dataset.  CSV files are parsed in one vectorised
pass when well formed; anything else goes through a cell-by-cell scan
that finds and names the first bad cell.  Writers format whole columns at
once and emit the same bytes as a ``csv.writer`` row loop.
"""

from __future__ import annotations

import csv
import os
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .errors import CsvError


@dataclass(frozen=True)
class Violation:
    """One dataset invariant breach, with a machine-readable code."""

    code: str
    message: str
    row: int | None = None
    column: int | None = None


class SurvivalDataset:
    """Right-censored survival data: covariates, observed times, indicators.

    Construction enforces structural consistency (matching lengths, 2-D
    covariates) and stores the arrays by :func:`_adopt`: covariates as
    column-major float64, time as float64, status as ``int8`` only if
    every value is 0 or 1.
    Value-level invariants (finite entries, status in {0,1}, at least one
    event) are checked by :func:`validate`, which tolerates broken datasets
    so callers can report all problems at once.  Estimators call
    :meth:`check_values` instead, which raises on the first broken value,
    scanning a dataset at most once.

    The records are stored once.  The first call that needs their sweep
    order (``sort_index``, :meth:`sorted_view`, the first risk-set sweep
    or validation) sorts them: time ascending, events before censorings at
    ties, then record order.  It gathers each stored column into that
    order and drops the record-order column, so a swept dataset holds its
    records once, in sweep order, with the permutation ``sort_index``.  A
    dataset that is never swept, as under a uniform two-step, never pays
    for the sort; records already in sweep order are kept as they are.

    ``covariates``, ``time`` and ``status`` are the records in record
    order, read-only.  Once the records are stored in sweep order, each
    read gathers them back through :meth:`sort_rank` and is not cached,
    since a cache would be the second copy again: read each once and keep
    the result.  Two more derived values are built on first use and cached
    read-only: the inverse permutation (:meth:`sort_rank`), built by the
    residual-norm pass, a subset of a swept dataset or a record-order
    read; and the unit-weight full-data sweep rows
    (``_SortedRows.of_dataset``), built by the first full-data fit, hazard
    or criterion evaluation, never by a two-step estimate.
    """

    def __init__(self, covariates, time, status):
        # the build is a method of its own, named as in the dataclass
        # containers, only so that the benchmark's traced mode, which wraps
        # ``__post_init__``, can time it
        self.__post_init__(covariates, time, status)

    def __post_init__(self, covariates, time, status):
        X = np.asarray(covariates)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError("covariates must be a 2-D array")
        # column-major, like the sweep-order copy the sweeps read, so the
        # row gather between them (:func:`_gather_rows`) streams one
        # contiguous column at a time
        X = _adopt(X, np.float64, order="F")
        t = _adopt(time, np.float64)
        s = np.asarray(status)  # int8 when lossless: a status of 257 must not wrap to 1
        s = _adopt(s, np.int8 if np.all((s == 0) | (s == 1)) else None)
        if t.ndim != 1 or s.ndim != 1:
            raise ValueError("time and status must be 1-D arrays")
        if not (len(t) == len(s) == X.shape[0]):
            raise ValueError(
                f"length mismatch: {X.shape[0]} covariate rows, "
                f"{len(t)} times, {len(s)} status values"
            )
        if len(t) == 0:
            raise ValueError("dataset must contain at least one record")
        self._store(t, s, X, permuted=False)

    def _store(self, time: np.ndarray, status: np.ndarray, covariates: np.ndarray, permuted: bool) -> None:
        """Keep the records, and whether they are permuted out of record order; set again only by the sort."""
        object.__setattr__(self, "_time", time)
        object.__setattr__(self, "_status", status)
        object.__setattr__(self, "_covariates", covariates)
        object.__setattr__(self, "_permuted", permuted)

    @property
    def _records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (time, status, covariates): in record order until the sort, in sweep order after it."""
        return self._time, self._status, self._covariates

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return self._time.shape[0]

    @property
    def p(self) -> int:
        return self._covariates.shape[1]

    @property
    def covariates(self) -> np.ndarray:
        """The n-by-p covariates in record order, column-major and read-only; a gather per read once sorted."""
        return self._in_record_order(self._covariates)

    @property
    def time(self) -> np.ndarray:
        """The observed times in record order, read-only; a gather per read once sorted."""
        return self._in_record_order(self._time)

    @property
    def status(self) -> np.ndarray:
        """The event indicators in record order, read-only; a gather per read once sorted."""
        return self._in_record_order(self._status)

    def _in_record_order(self, stored: np.ndarray) -> np.ndarray:
        """A stored array, gathered back into record order if the sort permuted it."""
        if not self._permuted:
            return stored
        rank = self.sort_rank()
        return _frozen(_gather_rows(stored, rank) if stored.ndim == 2 else stored[rank])[0]

    def _stored_rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of the stored arrays that hold records ``idx``."""
        return self.sort_rank()[idx] if self._permuted else idx

    def _record_rows(self, rows: np.ndarray) -> np.ndarray:
        """The records held in rows ``rows`` of the stored arrays."""
        return self.sort_index[rows] if self._permuted else rows

    @cached_property
    def sort_index(self) -> np.ndarray:
        """Time ascending, events before censorings at ties, then input order; read-only, ``int32`` below 2**31 records.

        The first read stores the records in this order: each column is
        gathered into it and the record-order column dropped.  Records
        already in this order are kept as they are.
        """
        order = _time_order(self._time, self._status)
        if np.any(order[1:] < order[:-1]):  # a permutation is the identity exactly when it ascends
            gathered = self._time[order], self._status[order], _gather_rows(self._covariates, order)
            self._store(*_frozen(*gathered), permuted=True)
        # narrowed once the store has dropped the record-order columns (no local
        # holds them): made beside them, the copy raised the peak of a CLI
        # ``subsample`` at 10^6 records by 3.8 MB
        return _frozen(order.astype(np.int32) if self.n < 2**31 else order)[0]

    def sorted_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (time, status, covariates), sorted into sweep order on first use; read-only.

        The sorted triple is the working representation of every risk-set
        sweep; the covariates are column-major (see :func:`_gather_rows`).
        """
        self.sort_index
        return self._records

    def sort_rank(self) -> np.ndarray:
        """Each record's position in sweep order, cached; ``int32`` below 2**31 records.

        The inverse of ``sort_index``: ``sort_rank()[sort_index] == arange(n)``,
        so ``v[sort_rank()]`` puts values ``v`` of the sorted records back in
        record order with a gather rather than a scatter, and
        ``sort_rank()[idx]`` are the sorted rows of records ``idx``.
        """
        def build():
            dtype = np.int32 if self.n < 2**31 else np.intp
            rank = np.empty(self.n, dtype=dtype)
            rank[self.sort_index] = np.arange(self.n, dtype=dtype)
            return _frozen(rank)[0]

        return self._cached("_sort_rank", build)

    def _cached(self, name: str, build):
        """``build()``, computed on first use and kept as attribute ``name`` of the frozen dataset."""
        if name not in vars(self):
            object.__setattr__(self, name, build())
        return vars(self)[name]

    def check_values(self) -> None:
        """Raise ``ValueError`` naming the first value-level violation, if any.

        Covers non-finite or negative times, status outside {0, 1} and
        non-finite covariates, in :func:`validate`'s order.  Reads the
        verdict of :meth:`_first_violation`, so it scans at most once.
        """
        first = self._first_violation()
        if first is not None:
            raise ValueError(f"invalid dataset: {first.message}")

    def _first_violation(self) -> Violation | None:
        """The first value-level violation in :func:`validate`'s order, or None; computed once."""
        return self._cached("_verdict", lambda: next(_value_violations(self), None))

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self._status == 1))

    @property
    def censoring_rate(self) -> float:
        return 1.0 - self.n_events / self.n


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _adopt(a, dtype=None, order: str = "C") -> np.ndarray:
    """``a`` as a read-only contiguous array of ``dtype`` (its own when None) in ``order``.

    Every frozen container stores its input arrays by this one rule: one that
    is read-only, owns its data and has that dtype and layout is kept as it
    is; any other becomes a frozen copy, so the caller's arrays stay writable.
    """
    arr = np.asarray(a)
    dtype = arr.dtype if dtype is None else np.dtype(dtype)
    laid_out = arr.flags.f_contiguous if order == "F" else arr.flags.c_contiguous
    if arr.flags.writeable or not arr.flags.owndata or arr.dtype != dtype or not laid_out:
        arr = _frozen(np.array(arr, dtype=dtype, order=order))[0]
    return arr


def _time_order(time: np.ndarray, status: np.ndarray) -> np.ndarray:
    """Time ascending, events before censorings at ties, then input order (a stable sort)."""
    return np.lexsort((1 - (status == 1).astype(np.int8), time))


def _gather_rows(X: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rows ``X[order]`` as an F-order array, gathered one column at a time.

    Column by column suits the F-order covariates of a dataset.  The F-order
    result gives every pass over a block of sorted rows each covariate as
    one contiguous run of records (``X[a:b].T`` is a view, not a copy).
    """
    out = np.empty((order.size, X.shape[1]), order="F")
    for j in range(X.shape[1]):
        # callers pass indices already known to be in range; "clip" writes
        # straight into ``out`` instead of through a checked buffer
        np.take(X[:, j], order, out=out[:, j], mode="clip")
    return out


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for survival CSV files.

    For headerless files, column names are the 0-based positions as strings
    ("0", "1", ...).
    """

    time_column: str = "time"
    status_column: str = "status"
    covariate_columns: tuple[str, ...] | None = None
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")
        if self.covariate_columns is not None:
            if len(self.covariate_columns) == 0:
                raise ValueError("covariate column list must be non-empty")
            names = [self.time_column, self.status_column, *self.covariate_columns]
            if len(set(names)) != len(names):
                raise ValueError("schema column names must be distinct")
            object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))


def _value_violations(ds: SurvivalDataset) -> Iterator[Violation]:
    """Per-record value violations in report order, one vectorised pass per kind.

    Each rule is a mask over the stored arrays, in whichever order they
    are stored, one n-length temporary at a time; the bad rows are mapped
    to their records and reported in record order, so every violation
    names its record row and judging never sorts the records.  A
    generator, so a caller that wants only the first stops early.
    """
    time, status, X = ds._records
    for i, _ in _bad_records(ds, ~np.isfinite(time)):
        yield Violation("nonfinite_time", f"time at row {i} is not finite", row=i)
    for i, _ in _bad_records(ds, np.isfinite(time) & (time < 0)):
        yield Violation("negative_time", f"time at row {i} is negative", row=i)
    for i, k in _bad_records(ds, ~((status == 0) | (status == 1))):
        yield Violation("bad_status", f"status at row {i} is {status[k].item()!r}, expected 0 or 1", row=i)
    # (record row, column) pairs, row by row as a record-order scan meets them
    rows = [ds._record_rows(np.flatnonzero(~np.isfinite(x))) for x in X.T]
    cols = np.repeat(np.arange(ds.p), [r.size for r in rows])
    rows = np.concatenate([*rows, np.empty(0, dtype=np.intp)])
    for t in np.lexsort((cols, rows)):
        i, j = int(rows[t]), int(cols[t])
        yield Violation("nonfinite_covariate", f"covariate ({i},{j}) is not finite", row=i, column=j)


def _bad_records(ds: SurvivalDataset, mask: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(record row, stored row)`` of each stored row where ``mask`` holds, in record order."""
    k = np.flatnonzero(mask)
    rows = ds._record_rows(k)
    by_row = np.argsort(rows)
    return zip(rows[by_row].tolist(), k[by_row].tolist())


def validate(ds: SurvivalDataset) -> list[Violation]:
    """Check all value-level invariants; empty list means the dataset is sound."""
    out = list(_value_violations(ds))
    if ds.n_events == 0:
        out.append(Violation("no_events", "dataset has no events; partial likelihood is degenerate"))
    # defensive: these hold by construction
    order, time_s = ds.sort_index, ds.sorted_view()[0]
    if order.size != ds.n or order.min() < 0 or not np.all(np.bincount(order, minlength=ds.n) == 1):
        out.append(Violation("bad_sort_index", "sort_index is not a permutation"))
    elif np.any(time_s[1:] < time_s[:-1]):  # no inf - inf to warn on
        out.append(Violation("bad_sort_index", "sort_index does not order time ascending"))
    return out


def _resolve_columns(header: list[str], schema: CsvSchema) -> tuple[int, int, list[int], list[str]]:
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise CsvError(f"duplicate column names in header: {dupes}")
    lookup = {name: k for k, name in enumerate(header)}
    for name in (schema.time_column, schema.status_column):
        if name not in lookup:
            raise CsvError(f"column {name!r} not found in header {header!r}")
    if schema.covariate_columns is None:
        cov_names = [c for c in header if c not in (schema.time_column, schema.status_column)]
        if not cov_names:
            raise CsvError("no covariate columns left after time/status")
    else:
        cov_names = list(schema.covariate_columns)
        for name in cov_names:
            if name not in lookup:
                raise CsvError(f"covariate column {name!r} not found in header {header!r}")
    return lookup[schema.time_column], lookup[schema.status_column], [lookup[c] for c in cov_names], cov_names


def load_csv(path: str | os.PathLike, schema: CsvSchema | None = None) -> SurvivalDataset:
    """Read a survival dataset from an RFC-4180-style CSV file.

    Row order of the file is preserved in storage order.  Every malformed
    cell is reported with its 1-based data-row number.  A well-formed file
    is parsed in one vectorised pass; any other file is scanned cell by
    cell, which accepts everything ``float()`` does and names the first
    bad cell.
    """
    schema = schema or CsvSchema()
    parsed = _parse_vectorised(path, schema)
    if parsed is None:
        parsed = _parse_cells(path, schema)
    return _checked_dataset(*parsed)


# (time, status, covariates, covariate names) as parsed, before the value checks
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]


def _read_header(reader, schema: CsvSchema, path) -> tuple[list[str], list[str] | None]:
    """The header names and, for a headerless file, the first data row."""
    try:
        first = next(reader)
    except StopIteration:
        raise CsvError(f"{path}: file is empty") from None
    if schema.has_header:
        return [h.strip() for h in first], None
    return [str(k) for k in range(len(first))], first


def _count_lines(path: str | os.PathLike) -> int | None:
    """Lines in a file as ``csv.reader`` splits them, or None if one ends in a lone CR."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            if block.endswith(b"\r"):
                block += fh.read(1)  # keep a CRLF pair inside one block
            if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
                return None
            lines += block.count(b"\n")
            last = block[-1:]
    return lines + (last != b"\n")


# endings np.loadtxt opens as compressed archives rather than as text
_ARCHIVE_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


def _parse_vectorised(path: str | os.PathLike, schema: CsvSchema) -> _Columns | None:
    """One ``np.loadtxt`` pass over a well-formed file, or None to ask for the scan.

    Gives up, without raising, on anything the cell scan might treat
    differently: an unparsable body (loadtxt rejects quotes, underscores,
    non-ASCII digits, empty cells and ragged rows), rows loadtxt skips
    (blank lines), lone-CR line endings, a header the scan rejects, or a
    name loadtxt would open as a compressed archive.

    The header is read with ``csv.reader``; loadtxt then opens the file
    itself and skips the physical lines the header took (``line_num``, so a
    quoted line break in a name counts), which reads in large blocks where a
    handle already opened would be read line by line.
    """
    if os.path.splitext(path)[1] in _ARCHIVE_SUFFIXES:
        return None
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            header, _ = _read_header(reader, schema, path)
            skip = reader.line_num if schema.has_header else 0
        t_col, s_col, x_cols, cov_names = _resolve_columns(header, schema)
        total = _count_lines(path)
        if total is None or total - skip < 1:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on an all-blank body
            a = np.loadtxt(
                path, dtype=np.float64, delimiter=schema.delimiter, comments=None, ndmin=2, skiprows=skip
            )
    except (ValueError, CsvError, csv.Error):
        return None
    if a.shape != (total - skip, len(header)):
        return None
    return a[:, t_col], a[:, s_col], _columns_of(a, x_cols), cov_names


def _columns_of(a: np.ndarray, cols: list[int]) -> np.ndarray:
    """Columns ``cols`` of ``a``: a view when they are evenly spaced in ascending order, else a copy."""
    step = cols[1] - cols[0] if len(cols) > 1 else 1
    if step > 0 and cols == list(range(cols[0], cols[-1] + 1, step)):
        return a[:, cols[0] : cols[-1] + 1 : step]
    return a[:, cols]


def _parse_cells(path: str | os.PathLike, schema: CsvSchema) -> _Columns:
    """Cell-by-cell parse that reports the first structural or non-numeric fault."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header, first = _read_header(reader, schema, path)
        rows = list(reader) if first is None else [first, *reader]
    t_col, s_col, x_cols, cov_names = _resolve_columns(header, schema)
    if not rows:
        raise CsvError(f"{path}: no data rows")

    width = len(header)
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CsvError(f"row {r}: expected {width} fields, got {len(row)}", row=r)

    # time, status and the covariates, one contiguous column each, parsed in that order
    block = np.empty((len(rows), 2 + len(x_cols)), order="F")
    names = [schema.time_column, schema.status_column, *(header[c] for c in x_cols)]
    for k, (col, name) in enumerate(zip([t_col, s_col, *x_cols], names)):
        vals = block[:, k]
        for r, row in enumerate(rows, start=1):
            try:
                vals[r - 1] = float(row[col])
            except ValueError:
                raise CsvError(
                    f"row {r}, column {name!r}: non-numeric value {row[col]!r}",
                    row=r,
                    column=col,
                ) from None
    return block[:, 0], block[:, 1], block[:, 2:], cov_names


def _checked_dataset(time: np.ndarray, status: np.ndarray, X: np.ndarray, cov_names: list[str]) -> SurvivalDataset:
    """The dataset, or a :class:`CsvError` naming its first bad value by 1-based row."""
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    bad = ds._first_violation()
    if bad is None:
        return ds
    r = bad.row + 1
    if bad.code == "nonfinite_covariate":
        raise CsvError(f"row {r}: covariate {cov_names[bad.column]!r} is not finite", row=r, column=bad.column)
    if bad.code == "bad_status":
        rule, value = "status must be 0 or 1", ds.status[bad.row]
    else:
        rule, value = "time must be a finite nonnegative number", ds.time[bad.row]
    raise CsvError(f"row {r}: {rule}, got {value.item()!r}", row=r)


# every character repr() of a float or str() of an int can produce
_NUMBER_CHARS = frozenset("0123456789.+-einfa")
_WRITE_CHUNK = 8192  # rows formatted per write; bounds the strings alive at once


def _format_cells(values: np.ndarray, kind: type) -> Iterator[str]:
    """``repr(float(v))`` or ``str(int(v))`` for every value, as a csv.writer row loop writes them."""
    if kind is int:
        return map(str, map(int, np.asarray(values).tolist()))
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


def _write_columns(
    path: str | os.PathLike,
    header: Sequence[str] | None,
    columns: Sequence[tuple[np.ndarray, type]],
    delimiter: str = ",",
    order: np.ndarray | None = None,
) -> None:
    """Write ``(values, float | int)`` columns as CSV, byte-identical to a ``csv.writer`` loop.

    Floats are written with ``repr`` (shortest round-trip text), ints as
    Python ints.  When the delimiter cannot occur in a formatted number no
    cell needs quoting, so rows are joined directly; otherwise
    ``csv.writer`` writes them and quotes what it must.  Given ``order``,
    line k holds row ``order[k]`` of every column, gathered a chunk at a
    time.
    """
    n = len(columns[0][0])
    if any(len(values) != n for values, _ in columns):
        raise ValueError("columns must have equal lengths")
    plain = delimiter not in _NUMBER_CHARS and delimiter != '"'
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for start in range(0, n, _WRITE_CHUNK):
            chunk = slice(start, start + _WRITE_CHUNK) if order is None else order[start : start + _WRITE_CHUNK]
            rows = zip(*(_format_cells(values[chunk], kind) for values, kind in columns))
            if plain:
                fh.write("\n".join(map(delimiter.join, rows)))
                fh.write("\n")
            else:
                writer.writerows(rows)


def write_csv(ds: SurvivalDataset, path: str | os.PathLike, schema: CsvSchema | None = None) -> None:
    """Write a dataset as CSV; floats use shortest round-trip formatting."""
    schema = schema or CsvSchema()
    if schema.covariate_columns is None:
        cov_names = [f"x{j + 1}" for j in range(ds.p)]
    else:
        cov_names = list(schema.covariate_columns)
        if len(cov_names) != ds.p:
            raise ValueError(f"schema names {len(cov_names)} columns, dataset has {ds.p}")
    header = [schema.time_column, schema.status_column, *cov_names] if schema.has_header else None
    # record order, gathered from the stored rows a chunk at a time
    time, status, X = ds._records
    columns = [(time, float), (status, int), *((X[:, j], float) for j in range(ds.p))]
    _write_columns(path, header, columns, schema.delimiter, ds.sort_rank() if ds._permuted else None)
