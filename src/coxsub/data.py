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
import threading
import warnings
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass

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
    order (:meth:`sorted_view`, the first risk-set sweep or validation)
    sorts them: time ascending, events before censorings at ties, then
    record order.  A column the dataset owns, one it copied on
    construction or one a coxsub producer handed over, is permuted in its
    own storage through one n-length scratch column; a column it kept as
    given, such as a caller's read-only array, is gathered into a new one,
    so no caller's array is ever written.  A swept dataset holds its
    records once, in sweep order, and one permutation beside them: the
    rank, each record's row in sweep order (``int32`` below 2**31
    records).  Records already in sweep order are kept as they are, with
    no permutation at all.  A dataset that is never swept, as under a
    uniform two-step, never pays for the sort.  The sort runs once, under
    a lock, whichever thread asks first; until it has run, every read of
    the stored records takes that lock.

    ``covariates``, ``time`` and ``status`` are the records in record
    order, read-only.  Before the sort a read returns the stored column
    itself, and the sort then gathers that column rather than permuting
    it, so a read taken before the sort keeps its values.  Other modules
    read records by index through :meth:`records_at` and put stored-order
    values back in record order through :meth:`to_record_order`, so only
    this class knows the storage order.  Once the records are permuted
    into sweep order, each record-order read is a gather through the
    rank, not cached, since a cache would be the second copy again: read
    each once and keep the result.  The unit-weight full-data sweep rows
    (``_SortedRows.of_dataset``) are built on first use and cached
    read-only, by the first full-data fit, hazard or criterion
    evaluation, never by a two-step estimate.
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
        t, s = np.asarray(time), np.asarray(status)
        given = (t, s, X)
        # column-major, like the sweep-order copy the sweeps read, so the
        # row gather between them (:func:`_gather`) streams one contiguous
        # column at a time
        X = _adopt(X, np.float64, order="F")
        t = _adopt(t, np.float64)
        # int8 when lossless: a status of 257 must not wrap to 1
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
        self._store(t, s, X)
        # each record's row in the stored arrays, held only once the sort has
        # permuted them; ``_swept`` is set once the sort has run
        object.__setattr__(self, "_rank", None)
        object.__setattr__(self, "_swept", False)
        # the columns, by position in ``_records``, that the sort may permute
        # in place: the copies made here, never an array a caller still holds
        owned = {k for k, (a, b) in enumerate(zip(self._records, given)) if a is not b and a.dtype in _PERMUTABLE}
        object.__setattr__(self, "_owned", owned)
        object.__setattr__(self, "_lock", threading.RLock())

    @classmethod
    def _taking_over(cls, covariates, time, status) -> SurvivalDataset:
        """The dataset of arrays that a coxsub producer hands over and holds no reference to.

        It owns every column, kept or copied, so the sort may permute each in place.
        """
        ds = cls(covariates, time, status)
        ds._owned.update(k for k, a in enumerate(ds._records) if a.dtype in _PERMUTABLE)
        return ds

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_lock"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _lock=threading.RLock())

    def _store(self, time: np.ndarray, status: np.ndarray, covariates: np.ndarray) -> None:
        """Keep the records; set again only by the sort."""
        object.__setattr__(self, "_time", time)
        object.__setattr__(self, "_status", status)
        object.__setattr__(self, "_covariates", covariates)

    @property
    def _records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (time, status, covariates): in record order until the sort, in sweep order after it."""
        return self._time, self._status, self._covariates

    @contextmanager
    def _held(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The stored records, read where no sort can permute them: under the sort's lock until it has run."""
        if self._swept:
            yield self._records
        else:
            with self._lock:
                yield self._records

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
        return self._in_record_order(2)

    @property
    def time(self) -> np.ndarray:
        """The observed times in record order, read-only; a gather per read once sorted."""
        return self._in_record_order(0)

    @property
    def status(self) -> np.ndarray:
        """The event indicators in record order, read-only; a gather per read once sorted."""
        return self._in_record_order(1)

    def _in_record_order(self, k: int) -> np.ndarray:
        """Stored column ``k`` of :attr:`_records` in record order, read-only."""
        with self._held() as records:
            column = self.to_record_order(records[k])
            if column is records[k]:
                self._owned.discard(k)  # handed out: a later sort gathers it rather than permuting it
        return _frozen(column)[0]

    def records_at(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(time, status, covariates) of records ``idx``, repeats included, in its order; covariates row-major.

        ``ValueError`` unless ``idx`` is a non-empty 1-D integer array in ``[0, n)``.  Never sorts the records.
        """
        idx = np.asarray(idx)
        if idx.ndim != 1 or idx.size == 0 or not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("subset must be a non-empty 1-D integer index array")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ValueError("subset indices out of range")
        with self._held() as (time, status, X):
            rows = self._stored_rows(idx)
            return time[rows], status[rows], X[rows]

    def to_record_order(self, values: np.ndarray) -> np.ndarray:
        """n-length or n-by-p ``values`` held in stored order, in record order (column-major when 2-D).

        ``values`` itself unless the sort permuted the records; else a gather through the rank.
        """
        return values if self._rank is None else _gather(values, self._rank)

    def _stored_rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of the stored arrays that hold records ``idx``."""
        return idx if self._rank is None else self._rank[idx]

    def sorted_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (time, status, covariates), sorted into sweep order on first use; read-only.

        The sorted triple is the working representation of every risk-set
        sweep; the covariates are column-major (see :func:`_gather`).  The
        sort runs once, under the dataset's lock.
        """
        if not self._swept:
            with self._lock:
                if not self._swept:  # else another thread sorted while this one waited
                    self._sort()
        return self._records

    def _sort(self) -> None:
        """Store the records in sweep order and, if that permuted them, their rank."""
        order = _time_order(self._time, self._status)
        if self.n < 2**31:
            # narrowed before the columns are permuted, so lexsort's int64
            # order is not held beside the scratch column
            order = order.astype(np.int32)
        if np.any(order[1:] < order[:-1]):  # a permutation is the identity exactly when it ascends
            scratch = np.empty(self.n) if self._owned else None
            self._store(
                *(
                    _permute_in_place(a, order, scratch) if k in self._owned else _frozen(_gather(a, order))[0]
                    for k, a in enumerate(self._records)
                )
            )
            del scratch  # before the rank is built, so the two are never held together
            rank = np.empty_like(order)
            rank[order] = np.arange(self.n, dtype=order.dtype)
            object.__setattr__(self, "_rank", _frozen(rank)[0])
        object.__setattr__(self, "_swept", True)

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
        def judge():
            with self._held():
                return next(_value_violations(self), None)

        return self._cached("_verdict", judge)

    @property
    def n_events(self) -> int:
        with self._held() as (_, status, _):
            return int(np.count_nonzero(status == 1))

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


# the dtypes the sort may permute in place through a float64 scratch column:
# those of a valid dataset's columns
_PERMUTABLE = (np.dtype(np.float64), np.dtype(np.int8))

# rows per np.take call of a gather: the intp copy np.take makes of an
# int32 index block stays in cache, where one of all n would not
_GATHER_ROWS = 8192


def _columns(a: np.ndarray) -> np.ndarray:
    """The columns of an n-length or column-major n-by-p array, each a contiguous view."""
    return a.reshape(a.shape[0], -1).T


def _take_into(src: np.ndarray, index: np.ndarray, dst: np.ndarray) -> None:
    """``dst[:] = src[index]`` for in-range ``index``, a block of rows at a time."""
    for a in range(0, index.size, _GATHER_ROWS):
        # "clip" writes straight into ``dst`` instead of through a checked buffer
        np.take(src, index[a : a + _GATHER_ROWS], out=dst[a : a + _GATHER_ROWS], mode="clip")


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]`` for in-range ``index``: a new array of their dtype, column-major when 2-D.

    One column at a time; column-major gives a pass over a block of rows
    each column as one contiguous run (``X[a:b].T`` is a view).
    """
    out = np.empty(index.shape + values.shape[1:], dtype=values.dtype, order="F")
    for src, dst in zip(_columns(values), _columns(out)):
        _take_into(src, index, dst)
    return out


def _permute_in_place(a: np.ndarray, order: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``a``, which the caller owns, rearranged to ``a[order]`` in its own storage and read-only again.

    Each column is gathered into ``scratch``, n float64 values, and copied back.
    """
    a.setflags(write=True)
    try:
        for column in _columns(a):
            buf = scratch.view(column.dtype)[: column.size]
            _take_into(column, order, buf)
            column[...] = buf
    finally:
        a.setflags(write=False)
    return a


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
    rows = [np.flatnonzero(ds.to_record_order(~np.isfinite(x))) for x in X.T]
    cols = np.repeat(np.arange(ds.p), [r.size for r in rows])
    rows = np.concatenate([*rows, np.empty(0, dtype=np.intp)])
    for t in np.lexsort((cols, rows)):
        i, j = int(rows[t]), int(cols[t])
        yield Violation("nonfinite_covariate", f"covariate ({i},{j}) is not finite", row=i, column=j)


def _bad_records(ds: SurvivalDataset, mask: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(record row, stored row)`` of each stored row where ``mask`` holds, in record order."""
    rows = np.flatnonzero(ds.to_record_order(mask))
    return zip(rows.tolist(), ds._stored_rows(rows).tolist())


def validate(ds: SurvivalDataset) -> list[Violation]:
    """Check all value-level invariants; empty list means the dataset is sound."""
    with ds._held():
        out = list(_value_violations(ds))
    if ds.n_events == 0:
        out.append(Violation("no_events", "dataset has no events; partial likelihood is degenerate"))
    # defensive, and only once the dataset has sorted itself: these hold by
    # construction, and reading the sorted view would sort an unswept dataset
    if ds._swept:
        rank, time_s = ds._rank, ds.sorted_view()[0]
        if rank is not None and (
            rank.size != ds.n or rank.min() < 0 or not np.all(np.bincount(rank, minlength=ds.n) == 1)
        ):
            out.append(Violation("bad_sort_index", "the sort rank is not a permutation"))
        elif np.any(time_s[1:] < time_s[:-1]):  # no inf - inf to warn on
            out.append(Violation("bad_sort_index", "the sorted records are not in time-ascending order"))
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
    with ds._held() as (time, status, X):
        columns = [(time, float), (status, int), *((X[:, j], float) for j in range(ds.p))]
        _write_columns(path, header, columns, schema.delimiter, ds._rank)
