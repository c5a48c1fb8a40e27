"""Station-data pipeline: ingestion, seasonal extremes, concurrence maps, cells.

The chain is CSV station records -> per-season block extremes -> pairwise
concurrence matrices (Kendall by default) -> gridded maps (inverse-distance
weighting on the logit scale) -> expected concurrence-cell areas, optionally
stratified by an external year-label table.  :func:`ingest_csv` returns
station records as one NumPy record array; the extremes of one season and
polarity are one station x year table (:class:`SeasonalExtremes`), whose
rows the matrices pair and whose year columns the strata select.  A clean
station file is tokenized in C by ``np.loadtxt``, a bounded chunk of rows
at a time, and records are written the same way; any other station file,
and every other table of the chain, is read one row at a time by
``csv.reader`` in one row reader, with the same result.  Both station
readers yield chunks of integer-coded columns (station code, lat, lon,
day, tmin, tmax), and the CLI carries station records in that form:
``ingest`` fills preallocated columns (:class:`_Stations`) and ``blocks``
folds each chunk into seasonal extremes as it reads (:class:`_Fold`),
neither forming the record array.  Each reader's docstring gives the rules
of its rows, and every number of every table takes Python's grammar less
its digit-group underscores (:func:`_number`).  A season is a block of
three months counted from December 1969, so December counts toward the
next year's winter.  Every file the package writes is opened by
:func:`_open_csv`, as UTF-8, and its format lives here; a reader skips a
byte-order mark.  A malformed file, a byte that is not UTF-8 included,
raises :class:`ParseError` naming its first bad line, always from the row
reader.  Minima are analyzed as negated values, so the downstream
machinery only ever deals with maxima; everything is deterministic.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import logging
import math
import operator
import re
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .concurrence import integrated_cp
from .errors import DomainError, ParseError
from .estimators import _LEAST_BLOCK, estimator
from .simulate import simulate_cell_labels
from .specfun import RngLike, _numbers, _real, _reals, _regular_step, _whole

EARTH_RADIUS_KM = 6371.0088
SEASONS = ("DJF", "MAM", "JJA", "SON")
POLARITIES = ("max", "negated_min")

_COLUMNS = ("station_id", "lat", "lon", "date", "tmin", "tmax")
_EPOCH = dt.date(1970, 1, 1).toordinal()


_CHUNK = 8192          # station record rows per chunk, read or written
_KEY_BITS = 22         # a day ordinal (up to 9999-12-31) is below 2**22
_FIRST_BLOCK = -7876   # the season block of 0001-01-01 (December of year 0's winter)
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)
_BAD_BYTE = re.compile("[\udc80-\udcff]")   # a byte as ``surrogateescape`` decodes it
_TOKEN_WIDTH = 25      # bytes of a station id or reading the tokenizer reads: one
                       # more than the longest repr of a float (24 characters)
_LOGIT_EPS = 1e-6      # _logit clips probabilities to [eps, 1 - eps]
_INT64_MAX = 2**63 - 1  # a matrix holds its n_pairs as int64
_UTF8_BOM = b"\xef\xbb\xbf"
_PLAIN = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\r\n"
_UNPLAIN = {ord('"'): "quote", ord(" "): "blank in field", ord("\t"): "blank in field", 0: "NUL"}

_log = logging.getLogger(__name__)


def _open_csv(path, mode: str = "r"):
    """Text file ``path`` in UTF-8, the one opener of every file the package writes.  A
    byte that does not decode reads as a lone surrogate (PEP 383), for the row checks.
    A reader skips a byte-order mark at the start of the file (Excel's "CSV UTF-8"
    writes one); a writer writes none."""
    return open(Path(path), mode, newline="", encoding="utf-8-sig" if mode == "r" else "utf-8",
                errors="surrogateescape")


def _bad_byte(text: str) -> str | None:
    """The error of text from :func:`_open_csv` that holds a byte that is
    not UTF-8, or None."""
    if text.isascii() or not (bad := _BAD_BYTE.search(text)):
        return None
    return f"not utf-8 text (byte 0x{ord(bad.group()) - 0xDC00:02x})"


def _csv_lines(reader):
    """(line, row) for each row of CSV ``reader``, the line being where the
    row ends.  A row holding a byte that is not UTF-8 or a field over the
    ``csv`` size limit raises :class:`ParseError` at its line."""
    try:
        for row in reader:
            if error := _bad_byte("".join(row)):
                raise ParseError(error, line=reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from exc


def _csv_header(lines, columns: tuple[str, ...]) -> list[int]:
    """The field index of each of ``columns`` in the header row, the first
    of :func:`_csv_lines` ``lines``.  A missing column raises
    :class:`ParseError` at line 1."""
    where = {name: i for i, name in enumerate(next(lines, (1, []))[1])}
    missing = [c for c in columns if c not in where]
    if missing:
        raise ParseError(f"missing columns {missing}", line=1)
    return [where[c] for c in columns]


def _read_rows(path, columns: tuple[str, ...], convert, key=None, name=None):
    """Yield ``convert(*fields)`` for each nonblank row of a headered CSV
    file, in file order, the fields being the text of ``columns`` in that
    order.  A missing column, a short row, a row ``convert`` rejects with
    ValueError, text :func:`_csv_lines` rejects or, given ``key``, a row
    whose ``key(value)`` an earlier row had raises :class:`ParseError`
    naming the line.  The message of a repeat, built only when one is
    found, is ``duplicate {name(key)} (first seen on line M)``."""
    seen: dict = {}
    with _open_csv(path) as fh:
        lines = _csv_lines(csv.reader(fh))
        index = _csv_header(lines, columns)
        pick, width = operator.itemgetter(*index), max(index) + 1
        for line, row in lines:
            if not row:
                continue
            if len(row) < width:
                raise ParseError(f"{len(row)} fields, {width} expected", line=line)
            try:
                value = convert(*pick(row))
            except ValueError as exc:
                raise ParseError(str(exc), line=line) from exc
            if key is not None:
                # lines only grow, so a key first seen on another line is a repeat
                if (first := seen.setdefault(k := key(value), line)) != line:
                    raise ParseError(f"duplicate {name(k)} (first seen on line {first})",
                                     line=line)
            yield value


def _write_rows(path, header, rows) -> None:
    with _open_csv(path, "w") as fh:
        csv.writer(fh).writerows(itertools.chain([header], rows))


def _write_json(payload: dict, path) -> None:
    with _open_csv(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _g10(bits: np.ndarray) -> list[str]:
    """10 significant digits per float64 bit pattern, the empty string for NaN."""
    return ["" if math.isnan(v) else f"{v:.10g}" for v in bits.view(np.float64).tolist()]


def _csv_fields(texts) -> list[str]:
    """Each text as ``csv.writer`` writes it as one field of a longer row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))
        out.append(buf.getvalue()[:-3])   # less the "," and "\r\n" of the empty field
    return out


# ---------------------------------------------------------------------------
# ingestion

@dataclass(frozen=True)
class IngestResult:
    """``records`` is a read-only record array in file order with fields
    station_id, lat, lon, date (datetime64[D]), tmin and tmax; NaN marks a
    missing reading."""

    records: np.recarray
    missing_report: dict
    warnings: tuple[str, ...]

    def station_coords(self) -> dict[str, tuple[float, float]]:
        """Each station's coordinates on its first record."""
        ids, first = np.unique(self.records.station_id, return_index=True)
        return dict(zip(ids.tolist(), zip(self.records.lat[first].tolist(),
                                          self.records.lon[first].tolist())))


def _station_id(text: str) -> str:
    """A station id of any table: the text less surrounding blanks, neither
    empty nor holding a NUL."""
    sid = text.strip()
    if not sid:
        raise ValueError("empty station id")
    if "\0" in sid:
        raise ValueError(f"station id {sid!r} holds a NUL")
    return sid


def _day(text: str) -> int:
    """Days since 1970-01-01 of a YYYY-MM-DD date."""
    text = text.strip()
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return dt.date.fromisoformat(text).toordinal() - _EPOCH


def _number(text: str, kind=float):
    """``kind(text)``, a float or an int, in Python's grammar less its
    digit-group underscores: no writer makes "1_0", and a typo should not
    read as a value ten times larger."""
    if "_" in text:
        raise ValueError(f"number {text.strip()!r} holds an underscore")
    return kind(text)


def _reading(text: str) -> float:
    """A tmin or tmax: NaN when missing ("" or -9999), else a finite number."""
    if text.strip() in ("", "-9999"):
        return math.nan
    value = _number(text)
    if not math.isfinite(value):
        raise ValueError(f"reading {text.strip()!r} is not finite")
    return value


def _coordinates(lat: float, lon: float) -> tuple[float, float]:
    """(lat, lon) of a point on the globe: finite, lat in [-90, 90] and lon
    in [-180, 180]."""
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")
    return lat, lon


class _Untokenizable(Exception):
    """Why :func:`_tokenized` leaves a file to the row reader."""


def _screen(lines: list[bytes]) -> bytes:
    """``lines`` joined.  Raise :class:`_Untokenizable` unless ``csv.reader``
    and NumPy's tokenizer split them into the same rows and fields: every
    byte printable ASCII other than a quote or a blank, or a line end; a
    carriage return only before a line feed; no line over the ``csv`` field
    size limit."""
    data = b"".join(lines)
    if bad := data.translate(None, _PLAIN):
        raise _Untokenizable("byte that is not ASCII" if bad[0] > 0x7F
                             else _UNPLAIN.get(bad[0], "control character"))
    if data.count(b"\r") != data.count(b"\r\n"):
        raise _Untokenizable("carriage return inside a line")
    if max(map(len, lines), default=0) >= csv.field_size_limit():
        raise _Untokenizable("line over the csv field size limit")
    return data


def _tokenized_day(text: np.ndarray) -> np.ndarray:
    """Days since 1970-01-01 of dates as rows of 11 bytes (NUL padded), each
    exactly YYYY-MM-DD and a day of the proleptic Gregorian calendar from
    year 1 on, as :func:`_day` reads them; any other raises
    :class:`_Untokenizable`.  NumPy's calendar reads the ten date bytes, as
    its months make the seasons of :func:`seasonal_blocks`."""
    digit = (text >= ord("0")) & (text <= ord("9"))
    if not (digit[:, [0, 1, 2, 3, 5, 6, 8, 9]].all() and (text[:, [4, 7]] == ord("-")).all()
            and (text[:, 10] == 0).all()):
        raise _Untokenizable("date that is not YYYY-MM-DD")
    try:   # NumPy refuses a month or a day out of range, but takes year 0
        day = np.ascontiguousarray(text[:, :10]).view("S10")[:, 0].astype("datetime64[D]")
        if (day < np.datetime64("0001-01-01")).any():
            raise ValueError("year 0")
    except ValueError:
        raise _Untokenizable("date that is not a calendar day") from None
    return day.astype(np.int64)


def _tokenized_reading(texts: np.ndarray) -> np.ndarray:
    """Readings as :func:`_reading` reads them from ``S`` texts; a text that
    is not a finite number raises :class:`_Untokenizable`."""
    # NumPy reads "1_0" as 10.0, as float() does
    if (np.ascontiguousarray(texts).view(np.uint8) == ord("_")).any():
        raise _Untokenizable("reading that holds an underscore")
    missing = (texts == b"") | (texts == b"-9999")
    try:
        values = np.where(missing, b"0", texts).astype(float)
    except ValueError as exc:
        raise _Untokenizable(str(exc)) from None
    if not np.isfinite(values).all():
        raise _Untokenizable("reading that is not finite")
    values[missing] = np.nan
    return values


_TOKEN_ROW = np.dtype([("station_id", f"S{_TOKEN_WIDTH}"), ("lat", float), ("lon", float),
                       ("date", "S11"), ("tmin", f"S{_TOKEN_WIDTH}"), ("tmax", f"S{_TOKEN_WIDTH}")])
_AT = {name: _TOKEN_ROW.fields[name][1] for name in _TOKEN_ROW.names}   # byte offsets in a row


def _tokenized_chunk(lines: list[bytes], index: list[int], codes: dict[str, int]) -> tuple:
    """The columns code, lat, lon, day, tmin and tmax of ``lines`` of a
    station file, fields ``index`` of each, as :func:`_tokenized` reads them."""
    try:
        rows = np.loadtxt(lines, dtype=_TOKEN_ROW, delimiter=",", comments=None, usecols=index,
                          ndmin=1)
    except ValueError as exc:
        raise _Untokenizable(f"loadtxt: {exc}") from None
    raw = rows.view(np.uint8).reshape(len(rows), _TOKEN_ROW.itemsize)
    if raw[:, [_AT[name] + _TOKEN_WIDTH - 1 for name in ("station_id", "tmin", "tmax")]].any():
        raise _Untokenizable("field as wide as its column")
    sid = rows["station_id"]
    if (sid == b"").any():
        raise _Untokenizable("empty station id")
    lat, lon = rows["lat"].copy(), rows["lon"].copy()   # not views that keep rows
    if not ((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)).all():
        raise _Untokenizable("coordinate out of range")
    # ids come in runs: look up the first id of each run only
    heads = np.flatnonzero(np.concatenate([[True], sid[1:] != sid[:-1]]))
    distinct, first, inverse = np.unique(sid[heads], return_index=True, return_inverse=True)
    names = [s.decode("ascii") for s in distinct.tolist()]
    for i in np.argsort(first).tolist():
        codes.setdefault(names[i], len(codes))
    head = np.array([codes[s] for s in names], np.int64)[inverse.reshape(-1)]
    return (np.repeat(head, np.diff(np.append(heads, len(rows)))), lat, lon,
            _tokenized_day(raw[:, _AT["date"]:_AT["date"] + 11]),
            _tokenized_reading(rows["tmin"]), _tokenized_reading(rows["tmax"]))


def _tokenized(path, codes: dict[str, int], line_count: int):
    """The rows of a clean station file of ``line_count`` lines or fewer
    (:func:`_line_count`) through NumPy's C tokenizer, in chunks as
    :func:`_row_chunks` yields them.

    ``np.loadtxt`` reads ``_CHUNK`` lines at a time, and the checks of the
    row reader run as masks over its columns.  On anything the row reader
    would reject, and on any text the two might read apart (a quote, a
    blank, a byte that is not ASCII, a field as wide as its column), this
    raises :class:`_Untokenizable`, partway or, for a repeated station and
    date, after the last chunk: it never reports a line.  Ids, dates and
    readings are read as bytes, because ``loadtxt`` cuts a field to its
    width silently and a reading's text, not its value, tells "-9999" (a
    missing one) from "-9999.0"."""
    key = np.empty(line_count, np.int64)   # each row's station-date key: the whole-file state
    n = 0
    with open(Path(path), "rb") as fh:
        header = fh.readline().removeprefix(_UTF8_BOM)
        _screen([header])
        try:
            index = _csv_header(iter([(1, header.decode("ascii").rstrip("\r\n").split(","))]),
                                _COLUMNS)
        except ParseError as exc:
            raise _Untokenizable(str(exc)) from None
        while lines := list(itertools.islice(fh, _CHUNK)):
            if _screen(lines).isspace():          # blank lines only: loadtxt would warn
                continue
            chunk = _tokenized_chunk(lines, index, codes)
            del lines   # before the next chunk's are read
            code, day = chunk[0], chunk[3]
            if n + len(code) > line_count:
                raise _Untokenizable("more rows than lines counted")
            np.bitwise_or(code << _KEY_BITS, day + _EPOCH, out=key[n:n + len(code)])
            n += len(code)
            yield chunk
    if not n:
        raise _Untokenizable("no rows")
    key = key[:n]
    key.sort()
    if (key[1:] == key[:-1]).any():
        raise _Untokenizable("repeated station and date")


def _row_chunks(path, codes: dict[str, int]):
    """The rows of station file ``path`` as :func:`ingest_csv` checks them,
    one at a time by :func:`_read_rows`, in chunks of ``_CHUNK`` rows: the
    columns code, lat, lon, day, tmin and tmax, where ``codes`` maps each
    station id to its code, in order of first appearance."""
    def row(sid, lat, lon, date, tmin, tmax):   # checks in column order, then the ranges
        code, lat, lon = codes.setdefault(_station_id(sid), len(codes)), _number(lat), _number(lon)
        day, tmin, tmax = _day(date), _reading(tmin), _reading(tmax)
        return (code, *_coordinates(lat, lon), day, tmin, tmax)

    def repeat(key: int) -> str:
        return (f"date {dt.date.fromordinal(key & (1 << _KEY_BITS) - 1)} "
                f"for station {list(codes)[key >> _KEY_BITS]}")

    rows = _read_rows(path, _COLUMNS, row, name=repeat,
                      key=lambda r: r[0] << _KEY_BITS | r[3] + _EPOCH)
    while chunk := list(itertools.islice(rows, _CHUNK)):
        # a code or a day is a whole number far below 2**53: a float holds it exactly
        code, lat, lon, day, tmin, tmax = np.array(chunk, dtype=float).T
        yield code.astype(np.int64), lat, lon, day.astype(np.int64), tmin, tmax


def _line_count(path) -> int:
    """One more than the line feeds of a file: at least its rows, unless
    its lines end in bare carriage returns."""
    count = 1
    with open(Path(path), "rb") as fh:
        while block := fh.read(1 << 20):
            count += block.count(b"\n")
    return count


def _read_stations(path, start):
    """``(ids, rows)``: the station ids by code, in order of first
    appearance, and ``rows = start(lines)`` fed each chunk of the checked
    rows of station file ``path`` in file order by ``rows.add(code, lat,
    lon, day, tmin, tmax)``, day counting from 1970-01-01; ``lines`` is
    the file's :func:`_line_count`.

    A clean file is tokenized in C by ``np.loadtxt`` (:func:`_tokenized`).
    Any other file, or one that fails a check there, partway or at the end,
    is read again from the start into a new ``rows`` by :func:`_row_chunks`,
    one row at a time, which alone reports errors.  Why a file took the row
    reader is logged at DEBUG level."""
    lines = 0
    try:
        lines = _line_count(path)
        codes, rows = {}, start(lines)
        for chunk in _tokenized(path, codes, lines):
            rows.add(*chunk)
        return list(codes), rows
    except (_Untokenizable, OSError) as exc:   # the row reader raises OSError again
        _log.debug("tokenizer: %s, reading rows", exc)
    rows = None   # the tokenizer's rows go before the row reader's come
    codes, rows = {}, start(lines)
    for chunk in _row_chunks(path, codes):
        rows.add(*chunk)
    return list(codes), rows


class _Columns:
    """Station rows filled into preallocated columns code, lat, lon, day,
    tmin and tmax, 48 bytes a row: room for ``lines`` rows is made at once,
    and more only for a file whose lines end in bare carriage returns."""

    def __init__(self, lines: int):
        self.n = 0
        self.cols = [np.empty(lines, t) for t in (np.int64, float, float, np.int64, float, float)]

    def add(self, *chunk) -> None:
        start, stop = self.n, self.n + len(chunk[0])
        if stop > len(self.cols[0]):
            self.cols = [np.concatenate([c[:start], np.empty(stop, c.dtype)]) for c in self.cols]
        for col, part in zip(self.cols, chunk):
            col[start:stop] = part
        self.n = stop

    def columns(self) -> list[np.ndarray]:
        return [c[:self.n] for c in self.cols]


@dataclass(frozen=True)
class _Stations:
    """Station records as coded columns in file order, the form the CLI
    carries them in: ``code`` indexes ``ids``, ``day`` counts from
    1970-01-01 and NaN marks a missing reading."""

    ids: list[str]
    code: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    day: np.ndarray
    tmin: np.ndarray
    tmax: np.ndarray

    @classmethod
    def read(cls, path) -> _Stations:
        """The records of station file ``path``, read and checked as
        :func:`ingest_csv` reads them."""
        ids, rows = _read_stations(path, _Columns)
        return cls(ids, *rows.columns())

    def report(self) -> tuple[dict, tuple[str, ...]]:
        """The missing report and warnings of :class:`IngestResult`."""
        n, tmin, tmax = (np.bincount(self.code[m], minlength=len(self.ids)).tolist()
                         for m in (slice(None), np.isnan(self.tmin), np.isnan(self.tmax)))
        report = {sid: {"n_days": n[i], "missing_tmin": tmin[i] / n[i],
                        "missing_tmax": tmax[i] / n[i]} for i, sid in enumerate(self.ids)}
        warnings = tuple(
            f"station {sid}: more than 50% missing {name}"
            for sid, rep in report.items()
            for name in ("tmin", "tmax")
            if rep[f"missing_{name}"] > 0.5
        )
        return report, warnings

    def coords(self) -> dict[str, tuple[float, float]]:
        """Each station's coordinates on its first record: codes count up
        in order of first appearance, so that record is where the running
        largest code first reaches the station's."""
        first = np.searchsorted(np.maximum.accumulate(self.code), np.arange(len(self.ids)))
        return dict(zip(self.ids, zip(self.lat[first].tolist(), self.lon[first].tolist())))

    def write_records(self, path) -> None:
        """The records as :func:`write_records_csv` writes them."""
        fields = np.array(_csv_fields(self.ids), dtype=object)
        _write_records(path, lambda rows: fields[self.code[rows]], self.lat, self.lon,
                       self.day, self.tmin, self.tmax)

    def result(self) -> IngestResult:
        records = np.rec.fromarrays([np.array(self.ids, dtype=str)[self.code], self.lat,
                                     self.lon, self.day.astype("datetime64[D]"), self.tmin,
                                     self.tmax], names=_COLUMNS)
        records.flags.writeable = False
        return IngestResult(records, *self.report())


def ingest_csv(path) -> IngestResult:
    """Read and validate station records from a headered CSV file.

    The columns are station_id, lat, lon, date, tmin and tmax, in any
    order.  A date is exactly YYYY-MM-DD (after surrounding blanks), a day
    of the proleptic Gregorian calendar from year 1 on; a tmin or tmax of ""
    or "-9999" is missing, and any other must be a finite number, so "nan"
    or "inf" is malformed; a latitude is in [-90, 90] and a longitude in
    [-180, 180].  The first malformed row in file order, a
    repeated (station, date), a byte that is not UTF-8 in any field, a NUL
    in a station id and a field over the ``csv`` size limit included, raises
    :class:`ParseError` naming its line; stations with more than half of
    either variable missing produce warnings, not errors.

    A clean file (printable ASCII without quotes or blanks, and no fault)
    is tokenized in C by ``np.loadtxt``; any other is read one row at a
    time (:func:`_read_stations`).
    """
    return _Stations.read(path).result()


def _formatted(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` (a function of an array) of each distinct value, spread back
    over ``values`` as an object array of text."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(fmt(distinct), dtype=object)[inverse]


def _write_records(path, station, lat, lon, day, tmin, tmax) -> None:
    """Station records in the ingest input format, missing readings empty,
    byte for byte as ``csv.writer`` writes them; ``station(rows)`` is the
    field text of the station ids of a slice of rows.  Rows go out
    ``_CHUNK`` at a time, to bound the memory their text takes, and within
    a chunk each column formats each of its distinct values once: floats to
    10 significant digits, told apart by their bits (so -0.0 stays "-0")."""
    def iso(days):
        return np.datetime_as_string(days.view("datetime64[D]")).tolist()

    with _open_csv(path, "w") as fh:
        csv.writer(fh).writerow(_COLUMNS)
        for i in range(0, len(day), _CHUNK):
            rows = slice(i, i + _CHUNK)
            cols = (station(rows), *(_formatted(c[rows].view(np.int64), _g10) for c in (lat, lon)),
                    _formatted(day[rows], iso),
                    *(_formatted(c[rows].view(np.int64), _g10) for c in (tmin, tmax)))
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def write_records_csv(records: np.recarray, path) -> None:
    """Station records in the ingest input format (:func:`_write_records`)."""
    _write_records(path, lambda rows: _formatted(records.station_id[rows], _csv_fields),
                   records.lat, records.lon, records.date.view(np.int64), records.tmin,
                   records.tmax)


def read_stations_csv(path) -> dict[str, tuple[float, float]]:
    """station_id -> (lat, lon), the first row of each station.  An empty
    station id, or a coordinate that is not finite or out of range
    (latitude in [-90, 90], longitude in [-180, 180]), raises
    :class:`ParseError` at its line, as :func:`ingest_csv` does."""
    rows = list(_read_rows(path, ("station_id", "lat", "lon"), lambda sid, lat, lon: (
        _station_id(sid), _coordinates(_number(lat), _number(lon)))))
    out = dict(reversed(rows))
    if not out:
        raise DomainError(f"no stations found in {path}")
    return out


def write_stations_csv(coords: dict[str, tuple[float, float]], path) -> None:
    _write_rows(path, ["station_id", "lat", "lon"],
                ([sid, f"{lat:.10g}", f"{lon:.10g}"] for sid, (lat, lon) in sorted(coords.items())))


# ---------------------------------------------------------------------------
# seasonal block extremes

_EXTREMES_COLUMNS = ("station_id", "season", "year", "value", "coverage", "polarity")


@dataclass(frozen=True)
class SeasonalExtremes:
    """The extremes of one season and polarity as a station x year table:
    ``value[i, j]`` is station ``station_ids[i]``'s extreme in ``years[j]``
    and ``coverage[i, j]`` its block's share of days with a reading, both
    NaN where there is none.  Ids and years are sorted and distinct; the
    season and polarity are None only for an extremes CSV without rows."""

    season: str | None
    polarity: str | None
    station_ids: tuple[str, ...]
    years: tuple[int, ...]
    value: np.ndarray
    coverage: np.ndarray


def _extremes_table(season, polarity, station_id, year, value, coverage) -> SeasonalExtremes:
    """The table of the extremes of the columns, no station-year twice."""
    ids, row = np.unique(station_id, return_inverse=True)
    years, col = np.unique(year, return_inverse=True)
    table = np.full((2, len(ids), len(years)), np.nan)
    table[:, row, col] = value, coverage
    return SeasonalExtremes(season, polarity, tuple(ids.tolist()), tuple(years.tolist()), *table)


class _Fold:
    """The day count and extreme of each (station, season block) cell that
    has a reading, of one season and polarity, fed the rows of a station
    file a chunk at a time (``add`` takes the columns of
    :func:`_read_stations`).  A cell's key is ``code << _KEY_BITS | block -
    _FIRST_BLOCK``, for the days of years 1 to 9999 that :func:`ingest_csv`
    reads; the keys are kept sorted and distinct."""

    def __init__(self, season: str, polarity: str):
        if season not in SEASONS:
            raise DomainError(f"season must be one of {SEASONS}")
        if polarity not in POLARITIES:
            raise DomainError(f"polarity must be one of {POLARITIES}")
        self.season, self.polarity = season, polarity
        self.cell, self.count, self.extreme = np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)

    def add(self, code, lat, lon, day, tmin, tmax) -> None:
        block = (day.view("datetime64[D]").astype("datetime64[M]").astype(np.int64) + 1) // 3
        keep = block % 4 == SEASONS.index(self.season)
        # -min(tmin) is max(-tmin) exactly
        value = -tmin[keep] if self.polarity == "negated_min" else tmax[keep]
        present = ~np.isnan(value)
        cell, at = np.unique((code[keep] << _KEY_BITS | block[keep] - _FIRST_BLOCK)[present],
                             return_inverse=True)
        count = np.bincount(at, minlength=len(cell))
        extreme = np.full(len(cell), -np.inf)
        np.maximum.at(extreme, at, value[present])
        # the chunk's cells into the earlier chunks' cells; np.maximum.at, as
        # within a chunk, so a tie of -0.0 and 0.0 resolves as in one pass
        where = np.searchsorted(self.cell, cell)
        old = where < len(self.cell)
        old[old] = self.cell[where[old]] == cell[old]
        self.count[where[old]] += count[old]
        np.maximum.at(self.extreme, where[old], extreme[old])
        new = ~old
        self.cell, self.count, self.extreme = (
            np.insert(kept, where[new], added[new])
            for kept, added in ((self.cell, cell), (self.count, count), (self.extreme, extreme)))

    def table(self, ids: list[str], min_coverage: float) -> SeasonalExtremes:
        """The table of the cells of stations ``ids`` by code, less those of
        coverage below ``min_coverage``."""
        block = (self.cell & (1 << _KEY_BITS) - 1) + _FIRST_BLOCK
        first = (3 * block - 1).astype("datetime64[M]")
        days = (first + 3).astype("datetime64[D]") - first.astype("datetime64[D]")
        coverage = self.count / days.astype(np.int64)
        ok = coverage >= min_coverage
        return _extremes_table(self.season, self.polarity,
                               np.array(ids, dtype=str)[self.cell[ok] >> _KEY_BITS],
                               block[ok] // 4 + 1970, self.extreme[ok], coverage[ok])


def seasonal_blocks(result: IngestResult, season: str, polarity: str = "max",
                    min_coverage: float = 0.9) -> SeasonalExtremes:
    """The table of each station-year's seasonal extreme, less low coverage.

    A season is a block of three months counted from December 1969: block b
    holds months 3b - 1 to 3b + 1 from January 1970, is season b % 4 of
    SEASONS and of year b // 4 + 1970, so December is the next year's
    winter.  Coverage is the share of the block's days with a reading; a
    season with a reading is kept at coverage ``min_coverage`` (in [0, 1]) or more.
    A station or year without a kept season has no row or column.

    polarity "max" takes the seasonal maximum of tmax; "negated_min" stores
    minus the seasonal minimum of tmin, so larger values always mean more
    extreme and all downstream analysis is max-convention.
    """
    fold = _Fold(season, polarity)
    min_coverage = _real(min_coverage, "min_coverage", 0, 1, "[]")
    rec = result.records
    ids, code = np.unique(rec.station_id, return_inverse=True)
    fold.add(code, rec.lat, rec.lon, rec.date.view(np.int64), rec.tmin, rec.tmax)
    return fold.table(ids.tolist(), min_coverage)


def _seasonal_blocks_csv(path, season: str, polarity: str = "max",
                         min_coverage: float = 0.9) -> SeasonalExtremes:
    """``seasonal_blocks(ingest_csv(path), ...)``, with the same checks and
    errors, folded a chunk at a time as the file is read: what it holds of
    the whole file is one station-date key a row, for the repeat check."""
    ids, fold = _read_stations(path, lambda lines: _Fold(season, polarity))
    return fold.table(ids, _real(min_coverage, "min_coverage", 0, 1, "[]"))


def read_extremes_csv(path) -> SeasonalExtremes:
    """The table of :func:`write_extremes_csv` output.  A row is checked in
    column order, then against the first row's season and polarity, and a
    repeated station-year is refused: each raises :class:`ParseError` at its line."""
    first: dict = {}   # the first row's season and polarity

    def row(sid, season, year, value, coverage, polarity) -> tuple:
        sid = _station_id(sid)
        if season not in SEASONS:
            raise ValueError(f"season {season!r} is not one of {SEASONS}")
        year, value, coverage = _number(year, int), _number(value), _number(coverage)
        if not math.isfinite(value):
            raise ValueError(f"value {value} is not finite")
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"coverage {coverage} outside [0, 1]")
        if polarity not in POLARITIES:
            raise ValueError(f"polarity {polarity!r} is not one of {POLARITIES}")
        kind = first.setdefault("kind", (season, polarity))
        if (season, polarity) != kind:
            raise ValueError(f"{season} {polarity} extreme of station {sid} in {year} "
                             f"among {kind[0]} {kind[1]} extremes")
        return sid, year, value, coverage

    rows = list(_read_rows(path, _EXTREMES_COLUMNS, row, key=lambda r: r[:2],
                           name=lambda k: f"station {k[0]} in {k[1]}"))
    return _extremes_table(*first.get("kind", (None, None)), *(list(zip(*rows)) or [()] * 4))


def write_extremes_csv(extremes: SeasonalExtremes, path) -> None:
    """One row per extreme of the table, in (station, year) order."""
    i, j = np.nonzero(~np.isnan(extremes.value))
    _write_rows(path, _EXTREMES_COLUMNS, (
        [extremes.station_ids[a], extremes.season, extremes.years[b], f"{v:.17g}", f"{c:.6f}",
         extremes.polarity]
        for a, b, v, c in zip(i.tolist(), j.tolist(), extremes.value[i, j].tolist(),
                              extremes.coverage[i, j].tolist())))


# ---------------------------------------------------------------------------
# pairwise concurrence matrices

@dataclass(frozen=True)
class ConcurrenceMatrix:
    """Symmetric pairwise estimates with unit diagonal; NaN marks absent pairs."""

    station_ids: tuple[str, ...]
    estimates: np.ndarray
    stderr: np.ndarray
    n_pairs: np.ndarray
    method: str | None  # None for a matrix read from CSV, which does not record it

    def row(self, station_id: str) -> np.ndarray:
        if station_id not in self.station_ids:
            raise DomainError(f"unknown station {station_id!r}")
        return self.estimates[self.station_ids.index(station_id)]


def pairwise_matrix(extremes: SeasonalExtremes, method: str = "kendall",
                    anchor: str | None = None, min_overlap: int = 3,
                    block_size: int | None = None) -> ConcurrenceMatrix:
    """Pairwise concurrence estimates over the table's stations with an extreme.

    Years are matched pairwise-complete, and the estimator runs once per
    number of common years on the stack of pairs with that many, each
    pair's values in year order (once in all on complete data); pairs with
    fewer than ``min_overlap`` common years stay NaN.  ``anchor`` restricts
    the computation to one station's row (plus the unit diagonal).  The
    method name and block size are checked before any pair is estimated: a
    block size above an estimated pair's common years raises
    :class:`DomainError` naming the first such pair.
    """
    estimate = estimator(method, block_size)
    min_overlap = _whole(min_overlap, 0, "min_overlap")
    keep = ~np.isnan(extremes.value).all(axis=1)
    ids, values = tuple(itertools.compress(extremes.station_ids, keep)), extremes.value[keep]
    present = ~np.isnan(values)
    s_count = len(ids)
    if s_count < 2:
        raise DomainError("need at least two stations")
    if anchor is not None and anchor not in ids:
        raise DomainError(f"anchor station {anchor!r} not present")
    common = present.astype(np.int64) @ present.T.astype(np.int64)
    eye = np.eye(s_count, dtype=bool)
    est, err, npairs = np.where(eye, 1.0, np.nan), np.where(eye, 0.0, np.nan), common * eye
    i, j = np.triu_indices(s_count, 1)
    if anchor is not None:
        keep = (np.array(ids)[i] == anchor) | (np.array(ids)[j] == anchor)
        i, j = i[keep], j[keep]
    npairs[i, j] = npairs[j, i] = common[i, j]
    enough = common[i, j] >= max(min_overlap, 2)
    i, j = i[enough], j[enough]
    n = common[i, j]
    if method in _LEAST_BLOCK and np.any(n < block_size):
        k = int(np.argmax(n < block_size))
        raise DomainError(f"stations {ids[i[k]]} and {ids[j[k]]} share {n[k]} years, fewer than "
                          f"the block size {block_size}; raise --min-overlap to {block_size} "
                          f"to leave such pairs out")
    # pairs with as many common years share one stack: boolean indexing is
    # row-major, so each pair's common values come in year order
    for m in np.unique(n):
        gi, gj = i[n == m], j[n == m]
        both = present[gi] & present[gj]
        r = estimate(np.stack([values[gi][both], values[gj][both]], axis=1).reshape(-1, m, 2))
        est[gi, gj] = est[gj, gi] = r["estimate"]
        err[gi, gj] = err[gj, gi] = np.nan if r["stderr"] is None else r["stderr"]
    return ConcurrenceMatrix(station_ids=ids, estimates=est, stderr=err,
                             n_pairs=npairs, method=method)


def write_matrix_csv(matrix: ConcurrenceMatrix, path) -> None:
    """Long-form CSV: id1,id2,estimate,stderr,n_pairs (i <= j rows)."""
    ids = matrix.station_ids
    _write_rows(path, ["id1", "id2", "estimate", "stderr", "n_pairs"], (
        [ids[i], ids[j], f"{matrix.estimates[i, j]:.17g}", f"{matrix.stderr[i, j]:.17g}",
         int(matrix.n_pairs[i, j])] for i in range(len(ids)) for j in range(i, len(ids))))


def _matrix_entry(a, b, estimate, stderr, n_pairs) -> tuple:
    """One matrix CSV row: two station ids, an estimate finite or nan (an
    absent pair), a stderr nan (none) or finite and >= 0, and a whole
    n_pairs >= 0."""
    a, b = _station_id(a), _station_id(b)
    e, s, c = _number(estimate), _number(stderr), _number(n_pairs, int)
    if math.isinf(e):
        raise ValueError(f"estimate {e} is neither finite nor nan")
    if s < 0.0 or math.isinf(s):
        raise ValueError(f"stderr {s} is neither nan nor in [0, inf)")
    if c < 0:
        raise ValueError(f"n_pairs {c} is negative")
    if c > _INT64_MAX:
        raise ValueError(f"n_pairs {c} is above 2**63 - 1, the largest count a matrix holds")
    return a, b, e, s, c


def read_matrix_csv(path) -> ConcurrenceMatrix:
    """A matrix from :func:`write_matrix_csv` output: one row per unordered
    pair, in either order; a row :func:`_matrix_entry` refuses or a repeated
    pair raises :class:`ParseError` at its line."""
    rows = list(_read_rows(path, ("id1", "id2", "estimate", "stderr", "n_pairs"),
                           _matrix_entry,
                           key=lambda r: (r[0], r[1]) if r[0] <= r[1] else (r[1], r[0]),
                           name=lambda pair: f"pair {pair[0]},{pair[1]}"))
    a, b, est, err, n_pairs = zip(*rows) if rows else [()] * 5
    ids, at = np.unique(a + b, return_inverse=True)
    i, j = at.reshape(2, -1)
    table, npairs = np.full((2, len(ids), len(ids)), np.nan), np.zeros((len(ids),) * 2, np.int64)
    table[:, i, j] = table[:, j, i] = est, err
    npairs[i, j] = npairs[j, i] = n_pairs
    return ConcurrenceMatrix(station_ids=tuple(ids.tolist()), estimates=table[0], stderr=table[1],
                             n_pairs=npairs, method=None)


# ---------------------------------------------------------------------------
# geometry and gridded maps

def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in kilometers between points in degrees."""
    lat1, lat2 = (np.radians(_reals(v, name, -90, 90, "[]"))
                  for v, name in ((lat1, "lat1"), (lat2, "lat2")))
    lon1, lon2 = (np.radians(_reals(v, name, -180, 180, "[]"))
                  for v, name in ((lon1, "lon1"), (lon2, "lon2")))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(q / (1.0 - q))


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def grid_map(station_latlon, values, grid_lats, grid_lons,
             idw_power: float = 2.0) -> np.ndarray:
    """Inverse-distance-weighted interpolation of probabilities onto a grid.

    ``values`` holds one value per station, or one such row per map; every
    map comes from one distance matrix.  A NaN is an absent estimate, left
    out of its row's map; an infinite value is refused.  A finite value
    outside [0, 1] (the unbiased and Kendall estimators can give one) is
    clipped into [0, 1] first.  Interpolation happens on the logit scale
    and maps back into [0, 1], and a grid node coinciding with a station
    takes that station's clipped value when it is not NaN (the first such
    station in station order).  Returns rows (lat, lon, value of each map)
    over the lat x lon product.  ``idw_power`` must be finite and positive.
    """
    idw_power = _real(idw_power, "idw_power", 0)
    pts = _reals(station_latlon, "station coordinates")
    if (numbers := _numbers(values)) is None:
        raise DomainError(f"station values must be numbers, got {reprlib.repr(values)}")
    if np.isinf(numbers).any():
        raise DomainError(f"station values must be finite or NaN (absent), got "
                          f"{float(numbers[np.isinf(numbers)][0])!r}")
    values = np.atleast_2d(numbers)
    if pts.shape != (values.shape[1], 2):
        raise DomainError("need one (lat, lon) row and one value per station")
    slat = _reals(pts[:, 0], "station latitudes", -90, 90, "[]")
    slon = _reals(pts[:, 1], "station longitudes", -180, 180, "[]")
    ok = ~np.isnan(values)
    if np.any(ok.sum(axis=1) < 3):
        raise DomainError("need at least three stations with estimates")
    lats = _reals(grid_lats, "grid latitudes", -90, 90, "[]").reshape(-1)
    lons = _reals(grid_lons, "grid longitudes", -180, 180, "[]").reshape(-1)
    if lats.size == 0 or lons.size == 0:
        raise DomainError("grid must be nonempty")
    glat, glon = np.repeat(lats, lons.size), np.tile(lons, lats.size)   # lat x lon, row-major
    dist = haversine_km(glat[:, None], glon[:, None], slat, slon)
    exact = dist < 1e-9
    with np.errstate(divide="ignore"):
        w = np.where(exact, 0.0, dist ** (-float(idw_power)))
    lv = np.where(ok, _logit(values), 0.0)
    # a node whose every weighted station is exact gets 0 / 0, then its exact value
    with np.errstate(invalid="ignore"):
        out = _expit((lv @ w.T) / (ok @ w.T))
    on = np.flatnonzero(exact.any(axis=1))
    hit = exact[on][None, :, :] & ok[:, None, :]
    rows, cols = np.nonzero(hit.any(axis=2))
    out[rows, on[cols]] = np.clip(values[rows, hit.argmax(axis=2)[rows, cols]], 0.0, 1.0)
    return np.column_stack([glat, glon, out.T])


def write_grid_csv(rows: np.ndarray, path) -> None:
    _write_rows(path, ["lat", "lon", "value"], ([f"{lat:.10g}", f"{lon:.10g}", f"{value:.17g}"]
                                                for lat, lon, value in rows))


def cos_lat_weights(grid_lats, grid_lons) -> np.ndarray:
    """Cell weights |dlat|*|dlon|*cos(lat) in squared degrees for a regular
    grid, each axis ascending or descending."""
    lats = _reals(grid_lats, "grid latitudes", -90, 90, "[]").reshape(-1)
    lons = _reals(grid_lons, "grid longitudes", -180, 180, "[]").reshape(-1)
    steps = []
    for axis, name in ((lats, "grid latitudes"), (lons, "grid longitudes")):
        step = 1.0 if axis.size < 2 else _regular_step(axis)
        if step is None:
            raise DomainError(f"{name} must be a regular axis, ascending or descending")
        steps.append(abs(step))
    dlat, dlon = steps
    return dlat * dlon * np.repeat(np.cos(np.radians(lats)), lons.size)


# ---------------------------------------------------------------------------
# concurrence-cell areas

@dataclass(frozen=True)
class CellAreaRow:
    anchor: str
    stratum: str
    area: float
    anomaly: float


def station_points(ids, station_coords: dict) -> np.ndarray:
    """(lat, lon) rows of the stations ``ids``; a station without
    coordinates raises :class:`DomainError`."""
    missing = [s for s in ids if s not in station_coords]
    if missing:
        raise DomainError(f"no coordinates for stations {missing[:5]}")
    return np.array([station_coords[s] for s in ids], dtype=float)


def check_mappable(ids, rows) -> None:
    """A map needs finite estimates at three stations or more: raise
    :class:`DomainError` naming the first station of ``ids`` whose row of
    ``rows`` has fewer."""
    finite = np.isfinite(np.atleast_2d(rows))
    count = finite.sum(axis=1)
    if np.any(count < 3):
        k = int(np.argmax(count < 3))
        raise DomainError(f"station {ids[k]} has estimates at only {count[k]} of the "
                          f"{finite.shape[1]} stations, itself included; a map needs three "
                          f"or more")


def expected_cell_area_data(matrix: ConcurrenceMatrix, station_coords: dict,
                            grid_lats, grid_lons, idw_power: float = 2.0) -> dict[str, float]:
    """Expected cell area per station from a pairwise matrix: interpolate
    every station's concurrence row onto the grid and integrate with cos-lat
    weights."""
    pts = station_points(matrix.station_ids, station_coords)
    check_mappable(matrix.station_ids, matrix.estimates)
    maps = grid_map(pts, matrix.estimates, grid_lats, grid_lons, idw_power=idw_power)[:, 2:]
    weights = cos_lat_weights(grid_lats, grid_lons)
    return {sid: integrated_cp(m, weights) for sid, m in zip(matrix.station_ids, maps.T)}


def expected_cell_area_model(model, grid_sites, weights, reps: int, rng: RngLike):
    """Mean concurrence-cell volume per anchor site from simulated labels.

    Returns (areas, stderrs) arrays over the grid sites; a standard error
    needs ``reps`` >= 2.
    """
    labels = simulate_cell_labels(model, grid_sites, _whole(reps, 2, "reps"), rng)
    w = _reals(weights, "weights", 0).reshape(-1)
    if w.size != labels.shape[1]:
        raise DomainError("weights length must match the grid size")
    # per anchor, the weight of its cell in each realization
    per_rep = np.array([(labels == labels[:, [a]]) @ w for a in range(labels.shape[1])])
    return per_rep.mean(axis=1), per_rep.std(axis=1, ddof=1) / math.sqrt(labels.shape[0])


def _stratum(year, label) -> tuple[int, str]:
    """One strata CSV row: a whole year and a label that is not blank."""
    year, label = _number(year, int), label.strip()
    if not label:
        raise ValueError(f"stratum label of {year} is empty")
    return year, label


def read_strata_csv(path) -> dict[int, str]:
    """Year -> stratum label table (columns: year,label); a blank label or a
    repeated year raises :class:`ParseError` at its line."""
    return dict(_read_rows(path, ("year", "label"), _stratum,
                           key=operator.itemgetter(0), name="year {}".format))


def cell_area_report(extremes: SeasonalExtremes, station_coords: dict, grid_lats, grid_lons,
                     strata: dict[int, str] | None = None, base_label: str | None = None,
                     method: str = "kendall", min_overlap: int = 3,
                     idw_power: float = 2.0,
                     block_size: int | None = None) -> list[CellAreaRow]:
    """Per-anchor expected cell areas, stratified by year labels when given.

    The anomaly column holds the deviation of each stratum's area from the
    base stratum's; the base label defaults to the lexicographically first
    stratum.  Without strata every year is in the one stratum "all", and a
    base label raises :class:`DomainError`.  A :class:`DomainError` in one
    stratum's matrix (of its years' columns) or maps names the stratum.
    """
    years = extremes.years
    if not years:
        raise DomainError("no seasonal extremes to map")
    if strata is None:
        if base_label is not None:
            raise DomainError(f"base stratum {base_label!r} given without strata")
        strata, base_label = dict.fromkeys(years, "all"), "all"
    labels = sorted(set(strata.values()))
    missing = [y for y in years if y not in strata]
    if missing:
        raise DomainError(f"strata labels missing for years {missing[:5]}")
    if base_label is None:
        base_label = labels[0]
    if base_label not in labels:
        raise DomainError(f"unknown base stratum {base_label!r}")
    per_label = {}
    for label in labels:
        cols = np.array([strata[y] == label for y in years], dtype=bool)
        stratum = replace(extremes, years=tuple(itertools.compress(years, cols)),
                          value=extremes.value[:, cols], coverage=extremes.coverage[:, cols])
        try:
            per_label[label] = expected_cell_area_data(
                pairwise_matrix(stratum, method=method, min_overlap=min_overlap,
                                block_size=block_size),
                station_coords, grid_lats, grid_lons, idw_power=idw_power)
        except DomainError as exc:
            raise DomainError(f"stratum {label!r}: {exc}") from None
    base = per_label[base_label]
    return [CellAreaRow(anchor=anchor, stratum=label, area=area,
                        anomaly=area - base.get(anchor, math.nan))
            for label in labels for anchor, area in per_label[label].items()]


def write_cells_csv(rows: list[CellAreaRow], path) -> None:
    _write_rows(path, ["anchor", "stratum", "area", "anomaly"],
                ([r.anchor, r.stratum, f"{r.area:.17g}", f"{r.anomaly:.17g}"] for r in rows))


def write_model_cells_csv(areas, errs, path) -> None:
    _write_rows(path, ["site_index", "area", "stderr"],
                ([i, f"{a:.17g}", f"{e:.17g}"] for i, (a, e) in enumerate(zip(areas, errs))))


def write_realizations_csv(path, values: np.ndarray, hits: np.ndarray | None = None) -> None:
    """One row per replicate: ``site_j`` columns to 17 significant digits,
    then ``hit_j`` columns unless ``hits`` is None."""
    values = np.atleast_2d(_reals(values, "realization values"))
    k = values.shape[1]
    header = [f"site_{j}" for j in range(k)]
    rows = ([f"{v:.17g}" for v in row] for row in values.tolist())
    if hits is not None:
        hits = np.atleast_2d(np.asarray(hits))
        if hits.shape != values.shape:
            raise DomainError("hits shape must match values shape")
        header += [f"hit_{j}" for j in range(k)]
        rows = (row + [int(h) for h in hit] for row, hit in zip(rows, hits.tolist()))
    _write_rows(path, header, rows)
