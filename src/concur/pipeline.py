"""Station-data pipeline: ingestion, seasonal extremes, concurrence maps, cells.

The chain is CSV station records -> per-season block extremes -> pairwise
concurrence matrices (Kendall by default) -> gridded maps (inverse-distance
weighting on the logit scale) -> expected concurrence-cell areas, optionally
stratified by an external year-label table.  Station records are one NumPy
record array; the extremes of one season and polarity are one station x
year table (:class:`SeasonalExtremes`), whose rows the matrices pair and
whose year columns the strata select.  A clean station file is tokenized
in C by ``np.loadtxt``, a bounded chunk of rows at a time, and records are
written the same way; any other station file, and every other table of the
chain, is read one row at a time by ``csv.reader`` in one row reader, with
the same result.  Each reader's docstring gives the rules of its rows, and
every number of every table takes Python's grammar less its digit-group
underscores (:func:`_number`).  A season is a block of three months counted
from December 1969, so December counts toward the next year's winter.
Every file the package writes is opened by :func:`_open_csv`, as UTF-8, and
its format lives here.  A malformed file, a byte that is not UTF-8
included, raises :class:`ParseError` naming its first bad line, always from
the row reader.  Minima are analyzed as negated values, so the downstream
machinery only ever deals with maxima; everything is deterministic.
"""

from __future__ import annotations

import array
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
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)
_BAD_BYTE = re.compile("[\udc80-\udcff]")   # a byte as ``surrogateescape`` decodes it
_TOKEN_WIDTH = 25      # bytes of a station id or reading the tokenizer reads: one
                       # more than the longest repr of a float (24 characters)
_LOGIT_EPS = 1e-6      # _logit clips probabilities to [eps, 1 - eps]
_INT64_MAX = 2**63 - 1  # a matrix holds its n_pairs as int64
_PLAIN = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\r\n"
_UNPLAIN = {ord('"'): "quote", ord(" "): "blank in field", ord("\t"): "blank in field", 0: "NUL"}

_log = logging.getLogger(__name__)


def _open_csv(path, mode: str = "r"):
    """Text file ``path`` in UTF-8, the one opener of every file the package writes.  A
    byte that does not decode reads as a lone surrogate (PEP 383), for the row checks."""
    return open(Path(path), mode, newline="", encoding="utf-8", errors="surrogateescape")


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


def _tokenized(path) -> IngestResult:
    """:func:`ingest_csv` of a clean file through NumPy's C tokenizer.

    ``np.loadtxt`` reads ``_CHUNK`` lines at a time, and the checks of the
    row reader run as masks over its columns.  On anything the row reader
    would reject, and on any text the two might read apart (a quote, a
    blank, a byte that is not ASCII, a field as wide as its column), this
    raises :class:`_Untokenizable`: it never reports a line.  Ids, dates
    and readings are read as bytes, because ``loadtxt`` cuts a field to its
    width silently and a reading's text, not its value, tells "-9999" (a
    missing one) from "-9999.0"."""
    with open(Path(path), "rb") as fh:
        header = fh.readline()
        _screen([header])
        try:
            index = _csv_header(iter([(1, header.decode("ascii").rstrip("\r\n").split(","))]),
                                _COLUMNS)
        except ParseError as exc:
            raise _Untokenizable(str(exc)) from None
        dtype = np.dtype([("station_id", f"S{_TOKEN_WIDTH}"), ("lat", float), ("lon", float),
                          ("date", "S11"), ("tmin", f"S{_TOKEN_WIDTH}"),
                          ("tmax", f"S{_TOKEN_WIDTH}")])
        at = {name: dtype.fields[name][1] for name in dtype.names}   # byte offsets in a row
        last = [at[name] + _TOKEN_WIDTH - 1 for name in ("station_id", "tmin", "tmax")]
        codes: dict[bytes, int] = {}  # station id -> code, in order of first appearance
        parts = []                    # code, lat, lon, day, tmin, tmax arrays per chunk
        while lines := list(itertools.islice(fh, _CHUNK)):
            if _screen(lines).isspace():          # blank lines only: loadtxt would warn
                continue
            try:
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                  usecols=index, ndmin=1)
            except ValueError as exc:
                raise _Untokenizable(f"loadtxt: {exc}") from None
            raw = rows.view(np.uint8).reshape(len(rows), dtype.itemsize)
            if raw[:, last].any():
                raise _Untokenizable("field as wide as its column")
            sid = rows["station_id"]
            if (sid == b"").any():
                raise _Untokenizable("empty station id")
            lat, lon = rows["lat"].copy(), rows["lon"].copy()   # not views that keep rows
            if not ((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)).all():
                raise _Untokenizable("coordinate out of range")
            # ids come in runs: look up the first id of each run only
            heads = np.flatnonzero(np.concatenate([[True], sid[1:] != sid[:-1]]))
            distinct, first, inverse = np.unique(sid[heads], return_index=True,
                                                 return_inverse=True)
            for s in distinct[np.argsort(first)].tolist():
                codes.setdefault(s, len(codes))
            head = np.array([codes[s] for s in distinct.tolist()], np.int64)[inverse.reshape(-1)]
            parts.append((np.repeat(head, np.diff(np.append(heads, len(rows)))), lat, lon,
                          _tokenized_day(raw[:, at["date"]:at["date"] + 11]),
                          _tokenized_reading(rows["tmin"]),
                          _tokenized_reading(rows["tmax"])))
    if not parts:
        raise _Untokenizable("no rows")
    code, lat, lon, day, tmin, tmax = (np.concatenate(c) for c in zip(*parts))
    del parts
    key = np.sort(code << _KEY_BITS | (day + _EPOCH))
    if (key[1:] == key[:-1]).any():
        raise _Untokenizable("repeated station and date")
    return _ingest_result([s.decode("ascii") for s in codes], code, lat, lon, day, tmin, tmax)


def _ingest_result(ids: list[str], code, lat, lon, day, tmin, tmax) -> IngestResult:
    """The records, missing report and warnings of rows of station ``ids``
    by code, each row's columns in file order."""
    records = np.rec.fromarrays([np.array(ids, dtype=str)[code], lat, lon,
                                 day.astype("datetime64[D]"), tmin, tmax], names=_COLUMNS)
    records.flags.writeable = False
    n, tmin, tmax = (np.bincount(code[m], minlength=len(ids)).tolist()
                     for m in (slice(None), np.isnan(tmin), np.isnan(tmax)))
    report = {sid: {"n_days": n[i], "missing_tmin": tmin[i] / n[i],
                    "missing_tmax": tmax[i] / n[i]} for i, sid in enumerate(ids)}
    warnings = tuple(
        f"station {sid}: more than 50% missing {name}"
        for sid, rep in report.items()
        for name in ("tmin", "tmax")
        if rep[f"missing_{name}"] > 0.5
    )
    return IngestResult(records=records, missing_report=report, warnings=warnings)


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
    is tokenized in C by ``np.loadtxt`` (:func:`_tokenized`).  Any other
    file, or one that fails a check there, is read again from the start by
    :func:`_read_rows`, one row at a time, which alone reports errors.  Why
    a file took the row reader is logged at DEBUG level.
    """
    try:
        return _tokenized(path)
    except (_Untokenizable, OSError) as exc:   # the row reader raises OSError again
        _log.debug("tokenizer: %s, reading rows", exc)
    codes: dict[str, int] = {}  # station id -> code, in order of first appearance

    def row(sid, lat, lon, date, tmin, tmax):   # checks in column order, then the ranges
        code, lat, lon = codes.setdefault(_station_id(sid), len(codes)), _number(lat), _number(lon)
        day, tmin, tmax = _day(date), _reading(tmin), _reading(tmax)
        return (code, *_coordinates(lat, lon), day, tmin, tmax)

    def repeat(key: int) -> str:
        return (f"date {dt.date.fromordinal(key & (1 << _KEY_BITS) - 1)} "
                f"for station {list(codes)[key >> _KEY_BITS]}")

    cols = [array.array(t) for t in "qddqdd"]   # code, lat, lon, day, tmin, tmax
    rows = _read_rows(path, _COLUMNS, row, name=repeat,
                      key=lambda r: r[0] << _KEY_BITS | r[3] + _EPOCH)
    for values in rows:
        for col, value in zip(cols, values):
            col.append(value)
    return _ingest_result(list(codes), *map(np.asarray, cols))


def _formatted(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` (a function of an array) of each distinct value, spread back
    over ``values`` as an object array of text."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(fmt(distinct), dtype=object)[inverse]


def write_records_csv(records: np.recarray, path) -> None:
    """Station records in the ingest input format, missing readings empty,
    byte for byte as ``csv.writer`` writes them.  Rows go out ``_CHUNK`` at
    a time, to bound the memory their text takes, and within a chunk each
    column formats each of its distinct values once: floats to 10
    significant digits, told apart by their bits (so -0.0 stays "-0")."""
    def iso(days):
        return np.datetime_as_string(days.view("datetime64[D]")).tolist()

    with _open_csv(path, "w") as fh:
        csv.writer(fh).writerow(_COLUMNS)
        for i in range(0, len(records), _CHUNK):
            r = records[i:i + _CHUNK]
            cols = (_formatted(r.station_id, _csv_fields),
                    *(_formatted(r[name].view(np.int64), _g10) for name in ("lat", "lon")),
                    _formatted(r.date.view(np.int64), iso),
                    *(_formatted(r[name].view(np.int64), _g10) for name in ("tmin", "tmax")))
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


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
    if season not in SEASONS:
        raise DomainError(f"season must be one of {SEASONS}")
    if polarity not in POLARITIES:
        raise DomainError(f"polarity must be one of {POLARITIES}")
    min_coverage = _real(min_coverage, "min_coverage", 0, 1, "[]")
    rec = result.records
    block = (rec.date.astype("datetime64[M]").astype(np.int64) + 1) // 3
    keep = block % 4 == SEASONS.index(season)
    block = block[keep]
    # -min(tmin) is max(-tmin) exactly
    value = (rec.tmax if polarity == "max" else -rec.tmin)[keep]
    ids, row = np.unique(rec.station_id[keep], return_inverse=True)
    blocks, col = np.unique(block, return_inverse=True)
    # one cell per (station, block), each record's on one integer index
    present = ~np.isnan(value)
    cell = (row * len(blocks) + col)[present]
    count = np.bincount(cell, minlength=len(ids) * len(blocks)).reshape(len(ids), len(blocks))
    extreme = np.full(count.shape, -np.inf)
    np.maximum.at(extreme.reshape(-1), cell, value[present])
    first = (3 * blocks - 1).astype("datetime64[M]")
    days = (first + 3).astype("datetime64[D]") - first.astype("datetime64[D]")
    coverage = count / days.astype(np.int64)
    ok = (count > 0) & (coverage >= min_coverage)
    rows, cols = np.nonzero(ok)
    return _extremes_table(season, polarity, ids[rows], blocks[cols] // 4 + 1970, extreme[ok],
                           coverage[ok])


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
