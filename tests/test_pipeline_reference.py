"""The columnar station pipeline against the row-wise code it replaced.

The ``reference_*`` functions are ingestion, record writing, seasonal
blocking, pairwise matrices and gridded maps as they were before the
columnar record code and the batched estimators: one frozen record or one
``csv.writer`` call per CSV row, one dictionary group per station-year, one
single-sample estimator call per station pair, and one ``grid_map`` call
per anchor, each with its own distance matrix.  Records, written files,
missing reports, warnings, seasonal extremes and matrices must agree
exactly, and a malformed file must fail on the same line, whatever the
chunk size; interpolated maps, which the matrix product sums in another
order, agree to 1e-12.  The references take seasonal extremes as one
record per station-year, and a table as the records of its present cells.
"""

import calendar
import csv
import datetime as dt
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import concur.cli
import concur.estimators
import concur.pipeline
from concur import (
    DomainError,
    ParseError,
    ecp_kendall,
    ecp_multivariate_log,
    sample_cp_block,
    sample_cp_bootstrap,
    sample_cp_unbiased,
)
from concur.concurrence import integrated_cp
from concur.pipeline import (
    _COLUMNS,
    POLARITIES,
    SEASONS,
    ConcurrenceMatrix,
    _expit,
    _extremes_table,
    _logit,
    cell_area_report,
    cos_lat_weights,
    expected_cell_area_data,
    grid_map,
    haversine_km,
    ingest_csv,
    pairwise_matrix,
    read_extremes_csv,
    seasonal_blocks,
    write_extremes_csv,
    write_records_csv,
)

MAP_TOL = 1e-12
# the reference calendar of the seasons, kept apart from the package's block rule
_SEASON_MONTHS = {"DJF": (12, 1, 2), "MAM": (3, 4, 5), "JJA": (6, 7, 8), "SON": (9, 10, 11)}


# ---------------------------------------------------------------------------
# the row-wise references

class StationRecord(NamedTuple):
    station_id: str
    lat: float
    lon: float
    date: dt.date
    tmin: float | None
    tmax: float | None


class Extreme(NamedTuple):
    station_id: str
    season: str
    year: int
    value: float
    coverage: float
    polarity: str


def _records(table):
    """The table's present cells as Extreme records, in (station, year) order."""
    i, j = np.nonzero(~np.isnan(table.value))
    return [Extreme(table.station_ids[a], table.season, table.years[b], table.value[a, b],
                    table.coverage[a, b], table.polarity) for a, b in zip(i.tolist(), j.tolist())]


def _reference_float(raw):
    """float() without its digit-group underscores."""
    if "_" in raw:
        raise ValueError(f"number {raw.strip()!r} holds an underscore")
    return float(raw)


def _reference_value(raw):
    txt = raw.strip()
    if txt in ("", "-9999"):
        return None
    value = _reference_float(txt)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"reading {txt!r} is not finite")
    return value


def _reference_date(raw):
    txt = raw.strip()
    year, month, day = txt[:4], txt[5:7], txt[8:]
    if not (len(txt) == 10 and txt.isascii() and txt[4] == txt[7] == "-"
            and (year + month + day).isdigit()):
        raise ValueError(f"date {txt!r} is not YYYY-MM-DD")
    return dt.date(int(year), int(month), int(day))


def _reference_utf8(fields, line):
    """A byte that was not UTF-8 in a file read with surrogateescape does
    not encode back."""
    try:
        "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("not utf-8 text", line=line) from None


def _reference_rows(reader):
    """The rows of a DictReader, every field of each (extra ones too) read
    as UTF-8."""
    try:
        for row in reader:
            _reference_utf8([v for k, v in row.items() if k is not None and v is not None]
                            + row.get(None, []), reader.line_num)
            yield row
    except csv.Error as exc:   # before Python 3.11, a NUL anywhere
        raise ParseError(str(exc), line=reader.line_num) from exc


def reference_ingest_csv(path):
    """(records, missing report, warnings) of a station CSV, row by row."""
    records, seen, counts = [], {}, {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file, header expected", line=1)
        _reference_utf8(reader.fieldnames, reader.line_num)
        missing_cols = [c for c in _COLUMNS if c not in reader.fieldnames]
        if missing_cols:
            raise ParseError(f"missing columns {missing_cols}", line=1)
        for row in _reference_rows(reader):
            line = reader.line_num
            try:
                sid = row["station_id"].strip()
                if not sid:
                    raise ValueError("empty station id")
                if "\0" in sid:
                    raise ValueError("NUL in station id")
                lat = _reference_float(row["lat"])
                lon = _reference_float(row["lon"])
                date = _reference_date(row["date"])
                tmin = _reference_value(row["tmin"])
                tmax = _reference_value(row["tmax"])
            except Exception as exc:
                raise ParseError(str(exc), line=line) from exc
            if not -90.0 <= lat <= 90.0:
                raise ParseError(f"latitude {lat} outside [-90, 90]", line=line)
            if not -180.0 <= lon <= 180.0:
                raise ParseError(f"longitude {lon} outside [-180, 180]", line=line)
            key = (sid, date)
            if key in seen:
                raise ParseError(f"duplicate date {date} for station {sid} "
                                 f"(first seen on line {seen[key]})", line=line)
            seen[key] = line
            records.append(StationRecord(sid, lat, lon, date, tmin, tmax))
            c = counts.setdefault(sid, [0, 0, 0])
            c[0] += 1
            c[1] += tmin is None
            c[2] += tmax is None
    report = {sid: {"n_days": c[0], "missing_tmin": c[1] / c[0], "missing_tmax": c[2] / c[0]}
              for sid, c in counts.items()}
    warnings = tuple(f"station {sid}: more than 50% missing {name}"
                     for sid, rep in report.items() for name in ("tmin", "tmax")
                     if rep[f"missing_{name}"] > 0.5)
    return records, report, warnings


def _reference_g10(value):
    return "" if math.isnan(value) else f"{value:.10g}"


def reference_write_records_csv(records, path):
    """The records in the ingest format, one csv.writer row each."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for sid, lat, lon, date, tmin, tmax in zip(
                records["station_id"].tolist(), records["lat"].tolist(),
                records["lon"].tolist(), records["date"].astype(object).tolist(),
                records["tmin"].tolist(), records["tmax"].tolist()):
            writer.writerow([sid, _reference_g10(lat), _reference_g10(lon), date.isoformat(),
                             _reference_g10(tmin), _reference_g10(tmax)])


def reference_seasonal_blocks(records, season, polarity, min_coverage):
    grouped = {}
    for rec in records:
        if rec.date.month not in _SEASON_MONTHS[season]:
            continue
        year = rec.date.year + (season == "DJF" and rec.date.month == 12)
        value = rec.tmax if polarity == "max" else rec.tmin
        grouped.setdefault((rec.station_id, year), []).append(value)
    out = []
    for (sid, year), values in sorted(grouped.items()):
        present = [v for v in values if v is not None]
        length = sum(calendar.monthrange(year - (season == "DJF" and m == 12), m)[1]
                     for m in _SEASON_MONTHS[season])
        coverage = len(present) / length
        if coverage < min_coverage or not present:
            continue
        extreme = max(present) if polarity == "max" else -min(present)
        out.append(Extreme(sid, season, year, extreme, coverage, polarity))
    return out


def reference_grid_map(station_latlon, values, grid_lats, grid_lons, idw_power=2.0):
    pts = np.asarray(station_latlon, dtype=float)
    vals = np.asarray(values, dtype=float).reshape(-1)
    ok = np.isfinite(vals)
    pts, vals = pts[ok], vals[ok]
    if pts.shape[0] < 3:
        raise DomainError("need at least three stations with estimates")
    lats = np.asarray(grid_lats, dtype=float).reshape(-1)
    lons = np.asarray(grid_lons, dtype=float).reshape(-1)
    if lats.size == 0 or lons.size == 0:
        raise DomainError("grid must be nonempty")
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    glat, glon = glat.reshape(-1), glon.reshape(-1)
    dist = haversine_km(glat[:, None], glon[:, None], pts[None, :, 0], pts[None, :, 1])
    lv = _logit(vals)
    out = np.empty(glat.size)
    exact = dist < 1e-9
    has_exact = exact.any(axis=1)
    with np.errstate(divide="ignore"):
        w = dist ** (-float(idw_power))
    w_sum = w.sum(axis=1)
    non_exact = ~has_exact
    out[non_exact] = _expit((w[non_exact] @ lv) / w_sum[non_exact])
    for g in np.where(has_exact)[0]:
        out[g] = min(max(vals[np.argmax(exact[g])], 0.0), 1.0)
    return np.column_stack([glat, glon, out])


def _reference_pair(method, data, m):
    """(estimate, stderr) of one pair sample from the single-sample estimators."""
    if method == "kendall":
        est = ecp_kendall(data)
        return est.estimate, est.stderr
    if method == "block":
        return sample_cp_block(data, m), np.nan
    if method == "bootstrap":
        return sample_cp_bootstrap(data, m), np.nan
    if method == "unbiased":
        return sample_cp_unbiased(data, m).value, np.nan
    return ecp_multivariate_log(data), np.nan


def reference_pairwise_matrix(extremes, method, anchor=None, min_overlap=3, block_size=None):
    # a block size below its method's least is refused even when no pair
    # has enough common years to be estimated
    least = {"block": 1, "bootstrap": 2, "unbiased": 2}.get(method)
    if least is not None and (block_size is None or block_size < least):
        raise DomainError(f"method {method!r} needs a block size >= {least}")
    series = {}
    for e in extremes:
        if e.year in series.setdefault(e.station_id, {}):
            raise DomainError(f"station {e.station_id} repeats {e.year}")
        series[e.station_id][e.year] = e.value
    ids = tuple(sorted(series))
    s_count = len(ids)
    if s_count < 2:
        raise DomainError("need at least two stations")
    if anchor is not None and anchor not in ids:
        raise DomainError(f"anchor station {anchor!r} not present")
    est = np.full((s_count, s_count), np.nan)
    err = np.full((s_count, s_count), np.nan)
    npairs = np.zeros((s_count, s_count), dtype=np.int64)
    np.fill_diagonal(est, 1.0)
    np.fill_diagonal(err, 0.0)
    for i, sid in enumerate(ids):
        npairs[i, i] = len(series[sid])
    for i in range(s_count):
        for j in range(i + 1, s_count):
            if anchor is not None and anchor not in (ids[i], ids[j]):
                continue
            a, b = series[ids[i]], series[ids[j]]
            years = sorted(set(a) & set(b))
            npairs[i, j] = npairs[j, i] = len(years)
            if len(years) < max(min_overlap, 2):
                continue
            data = np.array([[a[y], b[y]] for y in years])
            value, stderr = _reference_pair(method, data, block_size)
            est[i, j] = est[j, i] = value
            err[i, j] = err[j, i] = stderr
    return ConcurrenceMatrix(station_ids=ids, estimates=est, stderr=err,
                             n_pairs=npairs, method=method)


def reference_cell_areas(matrix, station_coords, grid_lats, grid_lons, anchors):
    pts = np.array([station_coords[s] for s in matrix.station_ids], dtype=float)
    weights = cos_lat_weights(grid_lats, grid_lons)
    return {a: integrated_cp(reference_grid_map(pts, matrix.row(a), grid_lats,
                                                grid_lons)[:, 2], weights)
            for a in anchors}


def _outcome(fn, *args):
    """fn's result, or the line of the ParseError / the type of the error it raised."""
    try:
        return "ok", fn(*args)
    except ParseError as exc:
        return "ParseError", (exc.line, str(exc) if "duplicate" in str(exc) else None)
    except DomainError:
        return "DomainError", None


# ---------------------------------------------------------------------------
# generated station files

_READINGS = st.one_of(
    st.sampled_from(["", "-9999", " ", " -9999 ", "1.5", "1.5", "-3", "1e1", "0.25"]),
    st.floats(-60, 60, allow_nan=False).map(repr))
_BAD_FIELDS = {"lat": ["95.0", "north", "4_0"], "lon": ["-181", ""],
               "date": ["2000-02-30", "not-a-date", "20000601", "2000-W22-4", "2000W224",
                        "2000-6-1"],
               "tmax": ["abc", "1.2.3", "nan", "NaN", "inf", "-inf", "INF", "-Infinity",
                        "infinity", "1_0"],
               "station_id": ["  ", "", "S1\0", "\0"]}


@st.composite
def station_files(draw):
    """Header plus rows over ~110 days from late November (DJF with its
    December, the end of SON, the start of MAM), with missing markers,
    ties, blank lines and, sometimes, malformed or duplicate rows; a byte
    that is not UTF-8 is the surrogate that surrogateescape reads it as."""
    base = draw(st.sampled_from([dt.date(1969, 11, 20), dt.date(1999, 11, 20)])).toordinal()
    ids = draw(st.lists(st.sampled_from(["S1", "S2", "T3", "10"]), min_size=1, max_size=3,
                        unique=True))
    coords = {sid: (repr(draw(st.floats(-89, 89))), repr(draw(st.floats(-179, 179))))
              for sid in ids}
    keys = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 110)),
                         max_size=90, unique=True))
    rows = [[sid, *coords[sid], dt.date.fromordinal(base + day).isoformat(),
             draw(_READINGS), draw(_READINGS)] for sid, day in keys]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["blank", "short", "duplicate", "duplicate", "byte",
                                     *_BAD_FIELDS]))
        if kind == "blank":
            row = []
        elif kind == "short":
            row = ["S1", "40.0", "-100.0", "2000-01-01"]
        elif kind == "byte":
            row = list(draw(st.sampled_from([r for r in rows if r] or [["S1", "0", "0"]])))
            row[draw(st.integers(0, len(row) - 1))] += draw(st.sampled_from(["\udcff", "\udc80"]))
        elif kind == "duplicate":
            pos = pos or len(rows)
            if pos == 0:
                continue
            row = list(rows[draw(st.integers(0, pos - 1))])
        else:
            full = [r for r in rows if len(r) == len(_COLUMNS)] or [["S1", "0", "0",
                                                                     "2000-01-01", "1", "2"]]
            row = list(draw(st.sampled_from(full)))
            row[_COLUMNS.index(kind)] = draw(st.sampled_from(_BAD_FIELDS[kind]))
        rows.insert(pos, row)
    header = list(_COLUMNS)
    if draw(st.booleans()):   # column order and extra columns do not matter
        header = header[::-1] + [draw(st.sampled_from(["note", "note", "note", "n\udcffte"]))]
        notes = ["x"] * len(rows)
        if rows and draw(st.booleans()):
            notes[draw(st.integers(0, len(rows) - 1))] = "x\udcff"
        rows = [r[::-1] + [note] if len(r) == 6 else r for r, note in zip(rows, notes)]
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def _as_reference(records):
    """The record array as the reference's records: None for NaN readings."""
    return [StationRecord(sid, lat, lon, date, *(None if math.isnan(v) else v for v in (lo, hi)))
            for sid, lat, lon, date, lo, hi in zip(
                records["station_id"].tolist(), records["lat"].tolist(),
                records["lon"].tolist(), records["date"].astype(object).tolist(),
                records["tmin"].tolist(), records["tmax"].tolist())]


class TestIngestAndBlocks:
    @given(station_files())
    def test_matches_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("ingest") / "stations.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        kind, ref = _outcome(reference_ingest_csv, path)
        got_kind, got = _outcome(ingest_csv, path)
        assert got_kind == kind
        if kind != "ok":
            assert got == ref
            return
        records, report, warnings = ref
        assert _as_reference(got.records) == records
        assert list(got.missing_report.items()) == list(report.items())
        assert got.warnings == warnings
        for season in SEASONS:
            for polarity in POLARITIES:
                # thresholds at the coverage of some station-year, which stays
                everyone = reference_seasonal_blocks(records, season, polarity, 0.0)
                for min_coverage in {0.0, 0.9, *(e.coverage for e in everyone[:3])}:
                    assert (_records(seasonal_blocks(got, season, polarity, min_coverage))
                            == reference_seasonal_blocks(records, season, polarity,
                                                         min_coverage))

    @pytest.mark.parametrize("column, field", [
        *((c, f) for c, fields in _BAD_FIELDS.items() for f in fields),
        ("short", None), ("duplicate", None)])
    def test_each_malformed_row_fails_on_the_reference_line(self, tmp_path, column, field):
        rows = [["S1", "40.0", "-100.0", f"2000-01-{d:02d}", "1.0", "2.0"] for d in range(1, 9)]
        bad = ["S1", "40.0", "-100.0", "2000-02-01", "1.0", "2.0"]
        if column == "short":
            bad = bad[:4]
        elif column == "duplicate":
            bad = list(rows[1])
        else:
            bad[_COLUMNS.index(column)] = field
        rows.insert(5, bad)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(",".join(r) for r in [_COLUMNS, *rows]) + "\n")
        ref = _outcome(reference_ingest_csv, path)
        assert ref[0] == "ParseError" and ref[1][0] == 7
        assert _outcome(ingest_csv, path) == ref

    @pytest.mark.parametrize("row, message", [
        (["S1", "40", "-100", "2000-01-01"], "4 fields, 6 expected"),
        (["  ", "north", "-181", "x", "a", "b"], "empty station id"),
        (["S1", "north", "-181", "x", "a", "b"], "could not convert string to float: 'north'"),
        (["S1", "95", "east", "x", "a", "b"], "could not convert string to float: 'east'"),
        (["S1", "95", "-181", "2000-6-1", "a", "b"], "date '2000-6-1' is not YYYY-MM-DD"),
        (["S1", "95", "-181", "2000-02-30", "a", "b"], "day is out of range for month"),
        (["S1", "95", "-181", "2000-01-02", " NaN ", "b"], "reading 'NaN' is not finite"),
        (["S1", "95", "-181", "2000-01-02", "1", "x"], "could not convert string to float: 'x'"),
        (["S1", "95", "-181", "2000-01-02", "1", "2"], "latitude 95.0 outside [-90, 90]"),
        (["S1", "40", "-181", "2000-01-02", "1", "2"], "longitude -181.0 outside [-180, 180]"),
        (["S1", "40", "-100", "2000-01-01", "3", "4"],
         "duplicate date 2000-01-01 for station S1 (first seen on line 2)")])
    def test_a_row_with_several_faults_names_the_first(self, tmp_path, row, message):
        # the checks of a row run in the order of the row-wise parser
        path = tmp_path / "bad.csv"
        rows = [_COLUMNS, ["S1", "40", "-100", "2000-01-01", "1", "2"], row,
                ["S2", "40", "-100", "2000-01-01", "1", "2"]]
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(ParseError) as info:
            ingest_csv(path)
        assert str(info.value) == f"line 3: {message}"

    def test_planted_maxima_match_reference(self, tmp_path):
        from concur import Logistic, SeededRng
        from concur.synthetic import synthesize_station_csv
        path = tmp_path / "raw.csv"
        synthesize_station_csv(path, Logistic(0.5), ["A", "B", "C"],
                               [[40.0, -100.0], [41.0, -101.0], [42.0, -99.0]],
                               years=range(1968, 1973), rng=SeededRng(3), season="DJF")
        records, _, _ = reference_ingest_csv(path)
        result = ingest_csv(path)
        assert _as_reference(result.records) == records
        for polarity in POLARITIES:
            assert (_records(seasonal_blocks(result, "DJF", polarity))
                    == reference_seasonal_blocks(records, "DJF", polarity, 0.9))

    @given(station_files(), st.sampled_from([1, 2, 5]))
    def test_matches_reference_in_small_chunks(self, tmp_path_factory, text, chunk):
        # every chunk boundary of a generated file falls between two of its rows
        path = tmp_path_factory.mktemp("chunks") / "stations.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        kind, ref = _outcome(reference_ingest_csv, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concur.pipeline, "_CHUNK", chunk)
            got_kind, got = _outcome(ingest_csv, path)
        assert got_kind == kind
        if kind != "ok":
            assert got == ref
            return
        assert _as_reference(got.records) == ref[0]
        assert list(got.missing_report.items()) == list(ref[1].items())

    @staticmethod
    def _long_file(path, edits):
        """Rows of two stations over more than two chunks, with ``edits``
        (row index -> row) applied; returns the reference's outcome."""
        n = 2 * concur.pipeline._CHUNK + 100
        base = dt.date(1900, 1, 1).toordinal()
        rows = [[sid, "40.5", "-100.25", dt.date.fromordinal(base + i // 2).isoformat(),
                 f"{(i % 17) - 8}", f"{(i % 23) / 4}"]
                for i, sid in zip(range(n), itertools.cycle(["A", "B"]))]
        for i, row in edits.items():
            rows[i] = row(rows) if callable(row) else row
        path.write_text("\n".join(",".join(r) for r in [_COLUMNS, *rows]) + "\n")
        return _outcome(reference_ingest_csv, path)

    def test_duplicate_first_seen_in_an_earlier_chunk(self, tmp_path):
        path = tmp_path / "long.csv"
        later = 2 * concur.pipeline._CHUNK + 10
        ref = self._long_file(path, {later: lambda rows: list(rows[6])})
        assert ref == ("ParseError", (later + 2, ref[1][1]))
        assert "first seen on line 8" in ref[1][1]
        assert _outcome(ingest_csv, path) == ref

    def test_duplicate_before_a_bad_field_in_a_later_chunk(self, tmp_path):
        path = tmp_path / "long.csv"
        chunk = concur.pipeline._CHUNK
        bad = ["A", "40.5", "-100.25", "2000-01-01", "1", "abc"]
        ref = self._long_file(path, {30: lambda rows: list(rows[10]), chunk + 5: bad})
        assert ref == ("ParseError", (32, ref[1][1])) and "duplicate" in ref[1][1]
        assert _outcome(ingest_csv, path) == ref

    def test_bad_last_row(self, tmp_path):
        path = tmp_path / "long.csv"
        last = 2 * concur.pipeline._CHUNK + 99
        ref = self._long_file(path, {last: ["A", "40.5", "-100.25", "2000-01-01", "1", "inf"]})
        assert ref == ("ParseError", (last + 2, None))
        assert _outcome(ingest_csv, path) == ref

    @pytest.mark.parametrize("bad", [
        lambda rows: list(rows[10]), ["A", "north", "-100.25", "2000-01-01", "1", "2"]])
    @pytest.mark.parametrize("unreadable", [40, concur.pipeline._CHUNK + 5])
    def test_a_bad_row_before_an_unreadable_one_comes_first(self, tmp_path, bad, unreadable):
        # a field over the csv module's size limit makes the reader fail
        path = tmp_path / "long.csv"
        huge = ["A", "40.5", "-100.25", "2000-01-01", "1", "x" * (csv.field_size_limit() + 1)]
        ref = self._long_file(path, {30: bad, unreadable: huge})
        assert ref[0] == "ParseError" and ref[1][0] == 32
        assert _outcome(ingest_csv, path) == ref

    def test_quoted_newline_and_blank_lines_before_a_bad_row(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(",".join(_COLUMNS) + "\n"
                        '"S\n1",40,-100,2000-01-01,1,2\n'
                        "\n\n"
                        '"S\n1",40,-100,2000-01-02,1,2\n'
                        "\n"
                        "S2,40,-100,2000-01-02,1,north\n")
        ref = _outcome(reference_ingest_csv, path)
        assert ref == ("ParseError", (9, None))
        assert _outcome(ingest_csv, path) == ref

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(_COLUMNS) + "\n\n")
        result = ingest_csv(path)
        assert len(result.records) == 0 and result.records.dtype.names == _COLUMNS
        assert result.missing_report == {} and result.warnings == ()


# ---------------------------------------------------------------------------
# the tokenizer path of ingest_csv

_CLEAN_READINGS = st.one_of(
    st.sampled_from(["", "-9999", "-9999.0", "-9999.5", "1e1", "-0", ".5", "7."]),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from([-1.9376839841433422e-104, 5e-324, -2.2250738585072014e-308]).map(repr))


@st.composite
def clean_station_files(draw):
    """(file bytes, whether a (station, date) repeats) of station files the
    tokenizer should read: printable ASCII without quotes or blanks, dates
    over the whole four-digit calendar, ``repr`` coordinates, missing and
    real readings, columns in either order (reversed with an extra one),
    blank lines, LF or CRLF line ends; sometimes an earlier row repeated."""
    ids = draw(st.lists(st.sampled_from(["S1", "S2", "T3", "10", "#4", "a-b_c.d"]),
                        min_size=1, max_size=3, unique=True))
    coords = {sid: (repr(draw(st.floats(-90, 90))), repr(draw(st.floats(-180, 180))))
              for sid in ids}
    dates = st.one_of(st.dates(), st.sampled_from([
        dt.date(2000, 2, 29), dt.date(2400, 2, 29), dt.date(1900, 2, 28), dt.date(1, 1, 1),
        dt.date(9999, 12, 31), dt.date(1969, 12, 31), dt.date(1970, 1, 1)]))
    keys = draw(st.lists(st.tuples(st.sampled_from(ids), dates), min_size=1, max_size=40,
                         unique=True))
    rows = [[sid, *coords[sid], date.isoformat(), draw(_CLEAN_READINGS), draw(_CLEAN_READINGS)]
            for sid, date in keys]
    repeated = draw(st.booleans()) and len(rows) > 1
    if repeated:
        pos = draw(st.integers(1, len(rows)))
        rows.insert(pos, list(rows[draw(st.integers(0, pos - 1))]))
    header = list(_COLUMNS)
    if draw(st.booleans()):
        header = header[::-1] + ["note"]
        rows = [r[::-1] + [draw(st.sampled_from(["", "x"]))] for r in rows]
    lines = [",".join(r) for r in [header, *rows]]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines).encode() + end.encode(), repeated


def _row_reader(path):
    """ingest_csv with the tokenizer turned away: the row reader's outcome."""
    def refuse(path, codes, lines):
        raise concur.pipeline._Untokenizable("refused")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concur.pipeline, "_tokenized", refuse)
        try:
            return ingest_csv(path)
        except ParseError as exc:
            return str(exc)


def _tokenizer(path):
    """ingest_csv through the tokenizer alone: its result, or the
    _Untokenizable it raises, partway or at the end."""
    codes, lines = {}, concur.pipeline._line_count(path)
    rows = concur.pipeline._Columns(lines)
    for chunk in concur.pipeline._tokenized(path, codes, lines):
        rows.add(*chunk)
    return concur.pipeline._Stations(list(codes), *rows.columns()).result()


def _assert_same_result(got, want):
    assert got.records.dtype == want.records.dtype
    assert got.records.tobytes() == want.records.tobytes()
    assert list(got.missing_report.items()) == list(want.missing_report.items())
    assert got.warnings == want.warnings


class TestTokenizer:
    @given(clean_station_files(), st.sampled_from([1, 2, 3, 8192]))
    def test_matches_row_reader_and_reference(self, tmp_path_factory, case, chunk):
        # small chunks put a repeated row in another chunk than its first
        text, repeated = case
        path = tmp_path_factory.mktemp("clean") / "stations.csv"
        path.write_bytes(text)
        kind, ref = _outcome(reference_ingest_csv, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concur.pipeline, "_CHUNK", chunk)
            if repeated:
                with pytest.raises(concur.pipeline._Untokenizable):
                    _tokenizer(path)
                assert kind == "ParseError" and _outcome(ingest_csv, path) == (kind, ref)
                return
            got = _tokenizer(path)
            _assert_same_result(got, _row_reader(path))
        assert kind == "ok"
        assert _as_reference(got.records) == ref[0]
        assert list(got.missing_report.items()) == list(ref[1].items())
        assert got.warnings == ref[2]

    def test_takes_synthesized_and_written_records(self, tmp_path):
        # the files the benchmark's ingest and blocks read: without this the
        # tokenizer could stop taking them and every other test still pass
        from concur import Logistic, SeededRng
        from concur.synthetic import synthesize_station_csv
        raw, records = tmp_path / "raw.csv", tmp_path / "records.csv"
        synthesize_station_csv(raw, Logistic(0.5), ["A", "B", "C"],
                               [[40.0, -100.0], [41.0, -101.0], [42.0, -99.0]],
                               years=range(1968, 1973), rng=SeededRng(3), season="DJF")
        write_records_csv(_row_reader(raw).records, records)
        for path in (raw, records):
            _assert_same_result(_tokenizer(path), _row_reader(path))

    _WIDE = "1" * concur.pipeline._TOKEN_WIDTH

    @pytest.mark.parametrize("row, reason", [
        ('"S1",40,-100,2000-01-03,1,2', "quote"),
        (f"S{_WIDE},40,-100,2000-01-03,1,2", "as wide as its column"),
        (f"S1,40,-100,2000-01-03,1,{_WIDE}", "as wide as its column"),
        ("S1,40,-100,2000-01-03,1 ,2", "blank in field"),
        ("S1,40,-100,2000-01-03,\t1,2", "blank in field"),
        ("S1\0,40,-100,2000-01-03,1,2", "NUL"),
        ("S\xe91,40,-100,2000-01-03,1,2", "not ASCII"),
        ("S1\x0c,40,-100,2000-01-03,1,2", "control character"),
        ("S1,40,-100,2000-01-03,1,2\rS1,40,-100,2000-01-04,1,2", "carriage return"),
        ("S1,40,-100,2000-01-03,nan,2", "not finite"),
        ("S1,40,-100,2000-01-03,1,inf", "not finite"),
        ("S1,40,-100,2000-01-03,1,x", "could not convert"),
        ("S1,nan,-100,2000-01-03,1,2", "out of range"),
        ("S1,1_0,-100,2000-01-03,1,2", "could not convert"),
        ("S1,40,-100,2000-01-03,1_0,2", "underscore"),
        ("S1,40,-100,2000-01-03,1,-9_999", "underscore"),
        ("S1,40,-100,2000-02-30,1,2", "not a calendar day"),
        ("S1,40,-100,0000-01-01,1,2", "not a calendar day"),
        ("S1,40,-100,2000-6-1,1,2", "not YYYY-MM-DD"),
        ("S1,40,-100,2000-01-031,1,2", "not YYYY-MM-DD"),
        ("S1,40,-100,2000-01-01,3,4", "repeated station and date"),
        ("S1,40,-100", "at row"),
        (",40,-100,2000-01-03,1,2", "empty station id"),
        (None, "no rows")])
    def test_gives_up_to_the_row_reader(self, tmp_path, caplog, row, reason):
        # each gives the row reader's result, or its error and line
        path = tmp_path / "s.csv"
        body = [] if row is None else ["S1,40,-100,2000-01-01,1,2", "S2,41,-101,2000-01-01,1,2",
                                       row, "S2,41,-101,2000-01-02,-9999,"]
        path.write_bytes(("\n".join([",".join(_COLUMNS), *body]) + "\n").encode("latin-1"))
        with pytest.raises(concur.pipeline._Untokenizable, match=reason):
            _tokenizer(path)
        want = _row_reader(path)
        with caplog.at_level("DEBUG", logger="concur.pipeline"):
            try:
                got = ingest_csv(path)
            except ParseError as exc:
                assert str(exc) == want
            else:
                _assert_same_result(got, want)
        assert any(r.getMessage().startswith("tokenizer: ") and reason in r.getMessage()
                   and r.getMessage().endswith(", reading rows") for r in caplog.records)

    def test_gives_up_on_more_rows_than_lines_counted(self, tmp_path):
        # a file that grew after its lines were counted
        path = tmp_path / "s.csv"
        _long_station_file(path, rows=10)
        chunks = concur.pipeline._tokenized(path, {}, 5)
        with pytest.raises(concur.pipeline._Untokenizable, match="more rows than lines counted"):
            next(chunks)

    def test_a_missing_file_is_the_row_readers_error(self, tmp_path, caplog):
        with caplog.at_level("DEBUG", logger="concur.pipeline"), \
                pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "absent.csv")
        assert [r.getMessage()[:19] for r in caplog.records] == ["tokenizer: [Errno 2"]



# ---------------------------------------------------------------------------
# concur blocks: each chunk folded into seasonal extremes as it is read

def _same_table(got, want):
    """Two SeasonalExtremes alike to the bit."""
    assert (got.season, got.polarity, got.station_ids, got.years) == (
        want.season, want.polarity, want.station_ids, want.years)
    assert got.value.tobytes() == want.value.tobytes()
    assert got.coverage.tobytes() == want.coverage.tobytes()


def _reading_text(i):
    """A reading of row i: missing ("" or -9999) now and then, signed zeros
    that tie, and values whose extreme sits anywhere in a season."""
    if i % 17 == 0:
        return ""
    if i % 29 == 0:
        return "-9999"
    if i % 11 == 0:
        return "-0" if i % 2 else "0"
    return f"{((i * 7919) % 4001 - 2000) / 100:g}"


def _long_station_file(path, rows=3 * 8192 - 100, quoted=(), edit=None):
    """Four stations interleaved by day from 1999-11-15, so every season's
    cells span chunks and every winter crosses a year; readings as
    :func:`_reading_text`, the ids of rows ``quoted`` in quotes and
    ``edit(rows)`` applied to the rows."""
    base = dt.date(1999, 11, 15).toordinal()
    body = [[f"S{i % 4}", f"{40 + i % 4}.5", f"-10{i % 4}.25",
             dt.date.fromordinal(base + i // 4).isoformat(), _reading_text(3 * i),
             _reading_text(3 * i + 1)] for i in range(rows)]
    for i in quoted:
        body[i][0] = f'"{body[i][0]}"'
    if edit:
        edit(body)
    path.write_text("\n".join(",".join(r) for r in [_COLUMNS, *body]) + "\n")


def _blocks_cli(path, out, season, polarity, capsys):
    """concur blocks on ``path``: (exit code, stderr)."""
    code = concur.cli.main(["--out", str(out), "blocks", "--input", str(path), "--season", season,
                            "--polarity", polarity])
    return code, capsys.readouterr().err


class TestBlocksFold:
    @given(st.one_of(station_files().map(lambda text: text.encode("utf-8", "surrogateescape")),
                     clean_station_files().map(lambda case: case[0])),
           st.sampled_from(SEASONS), st.sampled_from(POLARITIES),
           st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([1, 3, 8192]))
    def test_matches_seasonal_blocks_of_ingest(self, tmp_path_factory, data, season, polarity,
                                               min_coverage, chunk):
        # small chunks split a cell over many chunks, and put a repeated row
        # (which the tokenizer finds only at the end) in another chunk than its first
        path = tmp_path_factory.mktemp("fold") / "stations.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concur.pipeline, "_CHUNK", chunk)
            kind, want = _outcome(lambda p: seasonal_blocks(ingest_csv(p), season, polarity,
                                                            min_coverage), path)
            got_kind, got = _outcome(concur.pipeline._seasonal_blocks_csv, path, season,
                                     polarity, min_coverage)
        assert got_kind == kind
        if kind == "ok":
            _same_table(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("reader", ["tokenizer", "row reader", "tokenizer, then row reader"])
    @pytest.mark.parametrize("season, polarity", [("DJF", "max"), ("DJF", "negated_min"),
                                                  ("JJA", "negated_min")])
    def test_writes_the_bytes_of_seasonal_blocks(self, tmp_path, caplog, capsys, reader, season,
                                                 polarity):
        path = tmp_path / "stations.csv"
        chunk = concur.pipeline._CHUNK
        quoted = {"tokenizer": (), "row reader": range(3 * chunk - 100),
                  "tokenizer, then row reader": (chunk + 500,)}[reader]
        _long_station_file(path, quoted=quoted)
        if reader == "tokenizer, then row reader":
            # the first chunk is clean: the tokenizer gives up partway
            first = next(concur.pipeline._tokenized(path, {}, concur.pipeline._line_count(path)))
            assert len(first[0]) == chunk
        want = tmp_path / "want.csv"
        write_extremes_csv(seasonal_blocks(ingest_csv(path), season, polarity), want)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="concur.pipeline"):
            assert _blocks_cli(path, tmp_path / "got.csv", season, polarity, capsys) == (0, "")
        assert [r.getMessage() for r in caplog.records] == (
            [] if reader == "tokenizer" else ["tokenizer: quote, reading rows"])
        assert (tmp_path / "got.csv").read_bytes() == want.read_bytes()
        # the first winter is December 1999 to February 2000
        assert read_extremes_csv(want).years[0] == 2000

    @pytest.mark.parametrize("fault", ["bad reading", "repeated day"])
    def test_an_error_in_a_late_chunk_is_the_row_readers(self, tmp_path, capsys, fault):
        # the tokenizer meets a bad reading partway and a repeated day only at
        # the end; either way the row reader reads again and names the line
        path = tmp_path / "stations.csv"
        late = 2 * concur.pipeline._CHUNK + 50

        def edit(rows):
            if fault == "bad reading":
                rows[late][5] = "abc"
            else:
                rows[late] = list(rows[30])

        _long_station_file(path, edit=edit)
        with pytest.raises(ParseError) as info:
            ingest_csv(path)
        assert info.value.line == late + 2
        for command in (["blocks", "--input", str(path), "--season", "JJA"],
                        ["ingest", "--input", str(path), "--stations-out",
                         str(tmp_path / "stations_out.csv")]):
            assert concur.cli.main(["--out", str(tmp_path / "out.csv"), *command]) == 2
            assert capsys.readouterr().err == f"error: {info.value}\n"
            assert not (tmp_path / "out.csv").exists()
            assert not (tmp_path / "stations_out.csv").exists()


def _refused(fn, *args) -> bool:
    try:
        fn(*args)
    except (ValueError, concur.pipeline._Untokenizable):
        return True
    return False


class TestCalendar:
    """NumPy's calendar, which the tokenizer and the seasons use, against
    Python's, which the row reader and the references use."""

    def test_every_day_reads_as_the_row_reader_reads_it(self):
        # generated files hold a few dozen dates each: here is every day of
        # the four-digit calendar by Python's month lengths, a chunk of rows
        # at a time; a chunk's days run one a row from _day of its first row
        # to _day of its last
        def field(fmt, n):   # row i holds the bytes of fmt % i
            return np.array([(fmt % i).encode() for i in range(n)]).view(np.uint8).reshape(n, -1)

        months = [(y, m) for y in range(1, 10000) for m in range(1, 13)]
        length = [calendar.monthrange(y, m)[1] for y, m in months]
        y, m = np.repeat(np.array(months), length, axis=0).T
        d = np.arange(len(y)) - np.repeat(np.cumsum(length) - length, length) + 1
        text = np.concatenate([field("%04d-", 10000)[y], field("%02d-", 13)[m],
                               field("%02d\0", 32)[d]], axis=1)
        assert len(text) == dt.date(9999, 12, 31).toordinal()
        for start in range(0, len(text), 8192):
            chunk = text[start:start + 8192]
            ends = [concur.pipeline._day(bytes(row[:10]).decode()) for row in chunk[[0, -1]]]
            assert ends[1] - ends[0] == len(chunk) - 1
            assert (concur.pipeline._tokenized_day(chunk) == np.arange(ends[0], ends[1] + 1)).all()

    def test_refuses_exactly_the_dates_the_row_reader_refuses(self):
        # generated files hold real days and a few bad ones: here is every
        # month and day field, in leap and common years, century years and year 0
        for year in ("0000", "0001", "0004", "0100", "0400", "1900", "2000", "2001", "9999"):
            dates = [f"{year}-{m:02d}-{d:02d}" for m in range(100) for d in range(100)]
            text = np.array(dates, dtype="S11").view(np.uint8).reshape(len(dates), 11)
            refused = [_refused(concur.pipeline._day, d) for d in dates]
            ok = np.flatnonzero(~np.array(refused))
            assert (concur.pipeline._tokenized_day(text[ok]).tolist()
                    == [concur.pipeline._day(dates[i]) for i in ok])
            assert all(_refused(concur.pipeline._tokenized_day, text[i:i + 1])
                       for i in np.flatnonzero(refused))

    def test_season_lengths_match_the_reference(self, tmp_path):
        # generated files span 110 days from late November 1969 or 1999:
        # here are whole years around two century turns and the first
        # winter, whose December is in year 0; a day in seven is left out so
        # that no coverage is 1
        days = [dt.date.fromordinal(o) for lo, hi in ((dt.date(1, 1, 1), dt.date(1, 2, 28)),
                                                      (dt.date(1898, 12, 1), dt.date(1901, 12, 31)),
                                                      (dt.date(1998, 12, 1), dt.date(2001, 12, 31)))
                for o in range(lo.toordinal(), hi.toordinal() + 1) if o % 7]
        path = tmp_path / "stations.csv"
        path.write_text("\n".join([",".join(_COLUMNS)]
                                  + [f"S1,40,-100,{d.isoformat()},1,{d.day}" for d in days])
                        + "\n")
        result, (records, _, _) = ingest_csv(path), reference_ingest_csv(path)
        for season in SEASONS:
            got = _records(seasonal_blocks(result, season, "max", 0.0))
            assert got == reference_seasonal_blocks(records, season, "max", 0.0)
            assert [e.year for e in got] == ([1] if season == "DJF" else []) + [
                *range(1899, 1902 + (season == "DJF")), *range(1999, 2002 + (season == "DJF"))]
            assert all(e.coverage < 1 for e in got)


# ---------------------------------------------------------------------------
# generated record arrays

_IDS = st.text(st.sampled_from(list('ab1 ,"\r\n\t\'é')), min_size=1, max_size=6).filter(str.strip)
_LATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 90.0, -90.0, 1 / 3]),
                  st.floats(-90, 90))
_LONS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 180.0, -180.0, 2 / 3]),
                  st.floats(-180, 180))
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 5e-324, 1e300, -1e300, 2.5, 1 / 3]),
                    st.floats(-1e6, 1e6))


@st.composite
def record_arrays(draw):
    """Records of a few stations, one date each, with readings that need
    every digit, signed zeros, subnormals, huge values and NaN."""
    n = draw(st.integers(0, 40))
    ids = draw(st.lists(_IDS, min_size=1, max_size=4))
    where = {sid: (draw(_LATS), draw(_LONS)) for sid in ids}
    sids = [draw(st.sampled_from(ids)) for _ in range(n)]
    days = draw(st.lists(st.integers(-700_000, 2_900_000), min_size=n, max_size=n, unique=True))
    return np.rec.fromarrays(
        [np.array(sids, dtype=str), [where[s][0] for s in sids], [where[s][1] for s in sids],
         np.array(days, dtype="datetime64[D]"),
         [draw(_VALUES) for _ in range(n)], [draw(_VALUES) for _ in range(n)]],
        dtype=[("station_id", f"U{max(map(len, ids))}"), ("lat", float), ("lon", float),
               ("date", "datetime64[D]"), ("tmin", float), ("tmax", float)])


class TestWriteRecords:
    @given(record_arrays(), st.sampled_from([1, 3, 8192]))
    def test_matches_reference_and_reads_back(self, tmp_path_factory, records, chunk):
        work = tmp_path_factory.mktemp("records")
        reference_write_records_csv(records, work / "ref.csv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concur.pipeline, "_CHUNK", chunk)
            write_records_csv(records, work / "got.csv")
            back = ingest_csv(work / "got.csv").records
        assert (work / "got.csv").read_bytes() == (work / "ref.csv").read_bytes()
        # ingest strips the ids and reads each value as written, to 10 digits
        want = [(sid.strip(), *(float(_reference_g10(v) or "nan") for v in (lat, lon)), date,
                 *(float(_reference_g10(v) or "nan") for v in (lo, hi)))
                for sid, lat, lon, date, lo, hi in records.tolist()]
        got = back.tolist()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[3] == w[3]
            assert np.array_equal(np.array(g[1:3] + g[4:]), np.array(w[1:3] + w[4:]),
                                  equal_nan=True)
            assert np.array_equal(np.signbit(g[1:3] + g[4:]), np.signbit(w[1:3] + w[4:]))


# ---------------------------------------------------------------------------
# generated concurrence matrices

@st.composite
def station_matrices(draw):
    """Stations on a half-degree lattice, a grid over the same lattice (so
    nodes fall on stations), and matrix rows with NaN, 0, 1 and negative
    entries."""
    s = draw(st.integers(3, 7))
    lat0 = draw(st.sampled_from([-60.0, 0.0, 40.0]))
    cells = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          min_size=s, max_size=s))
    ids = tuple("ABCDEFG"[:s])
    coords = {sid: (lat0 + 0.5 * a, -100.0 + 0.5 * b) for sid, (a, b) in zip(ids, cells)}
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from([np.nan, np.nan, 0.0, 1.0, -0.05]))
    est = np.array(draw(st.lists(entry, min_size=s * s, max_size=s * s))).reshape(s, s)
    matrix = ConcurrenceMatrix(ids, est, np.zeros((s, s)), np.full((s, s), 10), "kendall")
    lat_start, lon_start = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    lats = lat0 + 0.5 * np.arange(lat_start, lat_start + draw(st.integers(1, 5)))
    lons = -100.0 + 0.5 * np.arange(lon_start, lon_start + draw(st.integers(1, 5)))
    anchors = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=s, unique=True))
    return matrix, coords, lats, lons, anchors


# ---------------------------------------------------------------------------
# generated seasonal extremes

METHODS = tuple(concur.estimators.ESTIMATORS)


def _block_size(method, m):
    """m for a method that takes a block size, else None (a block size given
    to any other method is refused, as tests/test_pipeline.py checks)."""
    return m if method in concur.estimators._LEAST_BLOCK else None


_TABLE_IDS = st.text(st.sampled_from(list('ab1 ,"\r\n\'é')), min_size=1, max_size=4).filter(
    lambda s: s == s.strip())


@st.composite
def extremes_tables(draw, least_stations=2):
    """(table, records) of ``least_stations`` to 6 stations over 2-10
    years, each station-year absent with a drawn rate (0 gives complete
    data, one common-year set) and the first station's first ``gap`` years
    absent too (a stratum of those years has no row of it), values on a
    coarse grid (ties) or continuous, and coverages to the six decimals the
    CSV keeps.  Ids are text the CSV quotes, years any whole numbers; the
    table holds the stations and years with an extreme."""
    ids = sorted(draw(st.lists(_TABLE_IDS, min_size=least_stations, max_size=6, unique=True)))
    years = sorted(draw(st.lists(st.integers(-3000, 3000), min_size=2, max_size=10,
                                 unique=True)))
    absent = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6]))
    gap = draw(st.integers(0, len(years)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.sampled_from([0.0, 0.5, 1.0]))
    season, polarity = draw(st.sampled_from(SEASONS)), draw(st.sampled_from(POLARITIES))
    records = []
    for sid in ids:
        for k, year in enumerate(years):
            if g.uniform() >= absent and not (sid == ids[0] and k < gap):
                v = g.standard_normal()
                records.append(Extreme(sid, season, year,
                                       float(np.round(v / grid) * grid) if grid else v,
                                       int(g.integers(0, 10**6 + 1)) / 1e6, polarity))
    table = _extremes_table(season, polarity, *([e[i] for e in records] for i in (0, 2, 3, 4)))
    return table, records


def _table(cells):
    """The JJA maximum table of (station, year, value) cells, each coverage 1."""
    sid, year, value = zip(*cells)
    return _extremes_table("JJA", "max", sid, year, value, [1.0] * len(cells))


def _assert_same_matrix(got, ref):
    assert got.station_ids == ref.station_ids
    assert np.array_equal(got.n_pairs, ref.n_pairs)
    assert np.array_equal(got.estimates, ref.estimates, equal_nan=True)
    assert np.array_equal(got.stderr, ref.stderr, equal_nan=True)


class TestPairwiseMatrix:
    @given(extremes_tables(), st.sampled_from(METHODS), st.integers(1, 4),
           st.integers(0, 6), st.one_of(st.none(), st.integers(0, 6)))
    def test_matches_reference(self, case, method, block_size, min_overlap, anchor):
        table, records = case
        if anchor is not None:   # one past the last station is a station not present
            anchor = (*table.station_ids, "nowhere")[anchor % (len(table.station_ids) + 1)]
        args = (method, anchor, min_overlap, _block_size(method, block_size))
        kind, ref = _outcome(reference_pairwise_matrix, records, *args)
        got_kind, got = _outcome(pairwise_matrix, table, *args)
        assert got_kind == kind
        if kind == "ok":
            _assert_same_matrix(got, ref)

    @staticmethod
    def _count_calls(monkeypatch, method):
        calls = []
        fn = concur.estimators.ESTIMATORS[method]
        monkeypatch.setitem(concur.estimators.ESTIMATORS, method,
                            lambda data, **kw: calls.append(data.shape) or fn(data, **kw))
        return calls

    @pytest.mark.parametrize("method", METHODS)
    def test_one_estimator_call_per_common_year_count(self, monkeypatch, method):
        calls = self._count_calls(monkeypatch, method)
        ids = ["A", "B", "C", "D", "E"]
        cells = [(sid, year, float((7 * i + 3 * year) % 11))
                 for i, sid in enumerate(ids) for year in range(2000, 2008)]
        pairwise_matrix(_table(cells), method, block_size=_block_size(method, 2))
        assert calls == [(10, 8, 2)]
        # E misses 2003: its four pairs share the other seven years
        calls.clear()
        pairwise_matrix(_table([c for c in cells if c[:2] != ("E", 2003)]),
                        method, block_size=_block_size(method, 2))
        assert sorted(calls) == [(4, 7, 2), (6, 8, 2)]
        # D also misses 2005: three pairs of D and three of E have seven
        # common years, from two sets, and share one call
        calls.clear()
        gaps = {("E", 2003), ("D", 2005)}
        pairwise_matrix(_table([c for c in cells if c[:2] not in gaps]),
                        method, block_size=_block_size(method, 2))
        assert sorted(calls) == [(1, 6, 2), (3, 8, 2), (6, 7, 2)]

    @pytest.mark.parametrize("anchor", [None, "S07"])
    @pytest.mark.parametrize("method", METHODS)
    def test_missing_years_with_ties_match_reference(self, monkeypatch, method, anchor):
        # 40 stations x 25 years, 15 % of station-years absent, values on a
        # 0.5 grid: pairs have many common-year sets but few counts, and 43
        # pairs fall below min_overlap
        g = np.random.default_rng(17)
        cells = [(f"S{s:02d}", year, float(np.round(g.standard_normal() / 0.5) * 0.5))
                 for s in range(40) for year in range(1990, 2015) if g.uniform() >= 0.15]
        args = (method, anchor, 17, _block_size(method, 3))
        ref = reference_pairwise_matrix([Extreme(sid, "JJA", year, v, 1.0, "max")
                                         for sid, year, v in cells], *args)
        calls = self._count_calls(monkeypatch, method)
        got = pairwise_matrix(_table(cells), *args)
        _assert_same_matrix(got, ref)
        counts = ref.n_pairs[np.triu_indices(40, 1)]
        estimated = np.unique(counts[counts >= 17]).tolist()
        assert sorted(shape[1] for shape in calls) == estimated and len(estimated) > 2


# each year's stratum: the first ``cut`` years and the rest, or any two sets
_LABELS = st.one_of(st.integers(0, 10).map(lambda cut: ["x"] * cut + ["y"] * (10 - cut)),
                    st.lists(st.sampled_from("xy"), min_size=10, max_size=10))


class TestExtremesTable:
    @given(extremes_tables(least_stations=4), _LABELS)
    def test_round_trip_matrix_and_strata(self, tmp_path_factory, case, labels):
        # the CSV gives back the table bit for bit (a file without rows
        # names no season or polarity); its matrix is the reference's of its
        # records; and each stratum's rows are those of the reference's
        # matrix of the stratum's records, so a station with no extreme in a
        # stratum has no row in it
        table, records = case
        path = tmp_path_factory.mktemp("extremes") / "extremes.csv"
        write_extremes_csv(table, path)
        back = read_extremes_csv(path)
        kind = (table.season, table.polarity) if records else (None, None)
        assert (back.season, back.polarity, back.station_ids, back.years) == (
            *kind, table.station_ids, table.years)
        assert back.value.tobytes() == table.value.tobytes()
        assert back.coverage.tobytes() == table.coverage.tobytes()
        kind, ref = _outcome(reference_pairwise_matrix, records, "kendall", None, 2)
        got_kind, got = _outcome(pairwise_matrix, table, "kendall", None, 2)
        assert got_kind == kind
        if kind == "ok":
            _assert_same_matrix(got, ref)
        strata = dict(zip(table.years, labels))
        coords = {sid: (40.0 + 0.5 * k, -100.0 + 0.25 * k)
                  for k, sid in enumerate(table.station_ids)}
        lats, lons = [40.0, 41.0], [-100.0, -99.0]
        want, kind = [], "ok" if table.years else "DomainError"
        for label in sorted(set(strata.values())):
            stratum = [e for e in records if strata[e.year] == label]
            kind, matrix = _outcome(reference_pairwise_matrix, stratum, "kendall", None, 2)
            if kind == "ok":
                kind, areas = _outcome(reference_cell_areas, matrix, coords, lats, lons,
                                       matrix.station_ids)
            if kind != "ok":
                break
            assert list(areas) == sorted({e.station_id for e in stratum})
            want += [(anchor, label, area) for anchor, area in areas.items()]
        got_kind, rows = _outcome(cell_area_report, table, coords, lats, lons, strata, None,
                                  "kendall", 2)
        assert got_kind == kind
        if kind == "ok":
            assert [(r.anchor, r.stratum) for r in rows] == [w[:2] for w in want]
            assert np.allclose([r.area for r in rows], [w[2] for w in want], rtol=0,
                               atol=MAP_TOL)


class TestMaps:
    @given(station_matrices())
    def test_cell_areas_match_reference(self, case):
        matrix, coords, lats, lons, _ = case
        kind, ref = _outcome(reference_cell_areas, matrix, coords, lats, lons,
                             matrix.station_ids)
        got_kind, got = _outcome(expected_cell_area_data, matrix, coords, lats, lons)
        assert got_kind == kind
        if kind == "ok":
            assert list(got) == list(ref)
            assert np.allclose(list(got.values()), list(ref.values()), rtol=0, atol=MAP_TOL)

    @given(station_matrices())
    def test_grid_map_matches_reference(self, case):
        matrix, coords, lats, lons, anchors = case
        pts = np.array([coords[s] for s in matrix.station_ids])
        for anchor in anchors:
            kind, ref = _outcome(reference_grid_map, pts, matrix.row(anchor), lats, lons)
            got_kind, got = _outcome(grid_map, pts, matrix.row(anchor), lats, lons)
            assert got_kind == kind
            if kind == "ok":
                assert np.array_equal(got[:, :2], ref[:, :2])
                assert np.allclose(got[:, 2], ref[:, 2], rtol=0, atol=MAP_TOL)

    def test_node_on_a_station_with_a_negative_estimate(self):
        # Kendall's tau of independent stations is often negative: the node
        # on B takes B's estimate clipped to 0, so the cell area integrates
        # (it raised "probabilities must lie in [0, 1]")
        ids = ("A", "B", "C", "D")
        coords = dict(zip(ids, [(40.0, -100.0), (41.0, -101.0), (42.0, -99.0), (39.5, -98.5)]))
        est = np.full((4, 4), 0.3)
        np.fill_diagonal(est, 1.0)
        est[0, 1] = est[1, 0] = -0.1
        matrix = ConcurrenceMatrix(ids, est, np.zeros((4, 4)), np.full((4, 4), 10), "kendall")
        pts = np.array([coords[s] for s in ids])
        assert grid_map(pts, matrix.row("A"), [41.0], [-101.0])[0, 2] == 0.0
        lats, lons = [40.0, 41.0], [-101.0, -100.0]
        got = expected_cell_area_data(matrix, coords, lats, lons)
        ref = reference_cell_areas(matrix, coords, lats, lons, ids)
        assert list(got) == list(ids)
        assert np.allclose(list(got.values()), list(ref.values()), rtol=0, atol=MAP_TOL)

    def test_node_on_a_nan_station_interpolates(self):
        # the node sits on station A, whose value is NaN: A is left out and
        # the node is interpolated from B, C and D
        pts = np.array([[40.0, -100.0], [41.0, -101.0], [42.0, -99.0], [39.5, -98.5]])
        values = np.array([np.nan, 0.2, 0.4, 0.6])
        got = grid_map(pts, values, [40.0], [-100.0])
        ref = reference_grid_map(pts, values, [40.0], [-100.0])
        assert np.isfinite(got[0, 2]) and got[0, 2] not in values
        assert got[0, 2] == pytest.approx(ref[0, 2], abs=MAP_TOL)
