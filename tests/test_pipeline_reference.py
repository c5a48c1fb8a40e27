"""The columnar station pipeline against the row-wise code it replaced.

The ``reference_*`` functions are ingestion, seasonal blocking and gridded
maps as they were before the record array: one frozen record per CSV row,
one dictionary group per station-year, and one ``grid_map`` call per
anchor, each with its own distance matrix.  Records, missing reports,
warnings and seasonal extremes must agree exactly, and a malformed file
must fail on the same line; interpolated maps, which the matrix product
sums in another order, agree to 1e-12.
"""

import calendar
import csv
import datetime as dt
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concur import DomainError, ParseError
from concur.concurrence import integrated_cp
from concur.pipeline import (
    _COLUMNS,
    _SEASON_MONTHS,
    POLARITIES,
    SEASONS,
    ConcurrenceMatrix,
    SeasonalExtremes,
    _expit,
    _logit,
    cos_lat_weights,
    expected_cell_area_data,
    grid_map,
    haversine_km,
    ingest_csv,
    seasonal_blocks,
)

MAP_TOL = 1e-12


# ---------------------------------------------------------------------------
# the row-wise references

class StationRecord(NamedTuple):
    station_id: str
    lat: float
    lon: float
    date: dt.date
    tmin: float | None
    tmax: float | None


def _reference_value(raw):
    txt = raw.strip()
    return None if txt in ("", "-9999") else float(txt)


def reference_ingest_csv(path):
    """(records, missing report, warnings) of a station CSV, row by row."""
    records, seen, counts = [], {}, {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file, header expected", line=1)
        missing_cols = [c for c in _COLUMNS if c not in reader.fieldnames]
        if missing_cols:
            raise ParseError(f"missing columns {missing_cols}", line=1)
        for row in reader:
            line = reader.line_num
            try:
                sid = row["station_id"].strip()
                if not sid:
                    raise ValueError("empty station id")
                lat = float(row["lat"])
                lon = float(row["lon"])
                date = dt.datetime.strptime(row["date"].strip(), "%Y-%m-%d").date()
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
        out.append(SeasonalExtremes(sid, season, year, extreme, coverage, polarity))
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
        out[g] = vals[np.argmax(exact[g])]
    return np.column_stack([glat, glon, out])


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
_BAD_FIELDS = {"lat": ["95.0", "north"], "lon": ["-181", ""], "date": ["2000-02-30", "not-a-date"],
               "tmax": ["abc", "1.2.3"], "station_id": ["  ", ""]}


@st.composite
def station_files(draw):
    """Header plus rows over ~110 days from late November (DJF with its
    December, the end of SON, the start of MAM), with missing markers,
    ties, blank lines and, sometimes, malformed or duplicate rows."""
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
        kind = draw(st.sampled_from(["blank", "short", "duplicate", "duplicate", *_BAD_FIELDS]))
        if kind == "blank":
            row = []
        elif kind == "short":
            row = ["S1", "40.0", "-100.0", "2000-01-01"]
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
        header = header[::-1] + ["note"]
        rows = [r[::-1] + ["x"] if len(r) == 6 else r for r in rows]
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
        path.write_text(text)
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
                    assert (seasonal_blocks(got, season, polarity, min_coverage)
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
            assert (seasonal_blocks(result, "DJF", polarity)
                    == reference_seasonal_blocks(records, "DJF", polarity, 0.9))


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


class TestMaps:
    @given(station_matrices())
    def test_cell_areas_match_reference(self, case):
        matrix, coords, lats, lons, anchors = case
        kind, ref = _outcome(reference_cell_areas, matrix, coords, lats, lons, anchors)
        got_kind, got = _outcome(expected_cell_area_data, matrix, coords, lats, lons, anchors)
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

    def test_node_on_a_nan_station_interpolates(self):
        # the node sits on station A, whose value is NaN: A is left out and
        # the node is interpolated from B, C and D
        pts = np.array([[40.0, -100.0], [41.0, -101.0], [42.0, -99.0], [39.5, -98.5]])
        values = np.array([np.nan, 0.2, 0.4, 0.6])
        got = grid_map(pts, values, [40.0], [-100.0])
        ref = reference_grid_map(pts, values, [40.0], [-100.0])
        assert np.isfinite(got[0, 2]) and got[0, 2] not in values
        assert got[0, 2] == pytest.approx(ref[0, 2], abs=MAP_TOL)
