"""Station-data pipeline: ingestion, seasonal extremes, concurrence maps, cells.

The chain is CSV station records -> per-season block extremes -> pairwise
concurrence matrices (Kendall by default) -> gridded maps (inverse-distance
weighting on the logit scale) -> expected concurrence-cell areas, optionally
stratified by an external year-label table.  Everything is deterministic
given the inputs; minima are analyzed as negated values so the downstream
machinery only ever deals with maxima.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concurrence import integrated_cp
from .errors import DomainError, ParseError
from .estimators import estimator
from .simulate import simulate_cell_labels
from .specfun import RngLike

EARTH_RADIUS_KM = 6371.0088
SEASONS = ("DJF", "MAM", "JJA", "SON")
_SEASON_MONTHS = {"DJF": (12, 1, 2), "MAM": (3, 4, 5), "JJA": (6, 7, 8), "SON": (9, 10, 11)}
POLARITIES = ("max", "negated_min")

_COLUMNS = ("station_id", "lat", "lon", "date", "tmin", "tmax")


# ---------------------------------------------------------------------------
# ingestion

@dataclass(frozen=True)
class StationRecord:
    station_id: str
    lat: float
    lon: float
    date: dt.date
    tmin: float | None
    tmax: float | None


@dataclass(frozen=True)
class IngestResult:
    records: tuple[StationRecord, ...]
    missing_report: dict
    warnings: tuple[str, ...]

    def station_coords(self) -> dict[str, tuple[float, float]]:
        out: dict[str, tuple[float, float]] = {}
        for r in self.records:
            out.setdefault(r.station_id, (r.lat, r.lon))
        return out


def _parse_value(raw: str, markers: tuple[str, ...]) -> float | None:
    txt = raw.strip()
    if txt in markers:
        return None
    return float(txt)


def ingest_csv(path, missing_markers: tuple[str, ...] = ("", "-9999"),
               date_format: str = "%Y-%m-%d") -> IngestResult:
    """Read and validate station records from a headered CSV file.

    The columns are station_id, lat, lon, date, tmin and tmax.  Values
    matching ``missing_markers`` become None.  Malformed rows raise
    :class:`ParseError` naming the line; stations with more than half of
    either variable missing produce warnings, not errors.
    """
    records: list[StationRecord] = []
    seen: dict[tuple[str, dt.date], int] = {}
    counts: dict[str, list[int]] = {}
    with open(Path(path), newline="") as fh:
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
                date = dt.datetime.strptime(row["date"].strip(), date_format).date()
                tmin = _parse_value(row["tmin"], missing_markers)
                tmax = _parse_value(row["tmax"], missing_markers)
            except ParseError:
                raise
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
    report = {
        sid: {"n_days": c[0],
              "missing_tmin": c[1] / c[0],
              "missing_tmax": c[2] / c[0]}
        for sid, c in counts.items()
    }
    warnings = tuple(
        f"station {sid}: more than 50% missing {name}"
        for sid, rep in report.items()
        for name in ("tmin", "tmax")
        if rep[f"missing_{name}"] > 0.5
    )
    return IngestResult(records=tuple(records), missing_report=report, warnings=warnings)


# ---------------------------------------------------------------------------
# seasonal block extremes

@dataclass(frozen=True)
class SeasonalExtremes:
    station_id: str
    season: str
    year: int
    value: float
    coverage: float
    polarity: str


def _season_year(date: dt.date, season: str) -> int | None:
    months = _SEASON_MONTHS[season]
    if date.month not in months:
        return None
    # December belongs to the following year's winter
    if season == "DJF" and date.month == 12:
        return date.year + 1
    return date.year


def _season_length(year: int, season: str) -> int:
    months = _SEASON_MONTHS[season]
    total = 0
    for m in months:
        y = year - 1 if season == "DJF" and m == 12 else year
        total += calendar.monthrange(y, m)[1]
    return total


def seasonal_blocks(records, season: str, polarity: str = "max",
                    min_coverage: float = 0.9) -> list[SeasonalExtremes]:
    """Per station-year seasonal extreme with a coverage filter.

    polarity "max" takes the seasonal maximum of tmax; "negated_min" stores
    minus the seasonal minimum of tmin, so larger values always mean more
    extreme and all downstream analysis is max-convention.
    """
    if season not in SEASONS:
        raise DomainError(f"season must be one of {SEASONS}")
    if polarity not in POLARITIES:
        raise DomainError(f"polarity must be one of {POLARITIES}")
    if isinstance(records, IngestResult):
        records = records.records
    grouped: dict[tuple[str, int], list[float | None]] = {}
    for rec in records:
        year = _season_year(rec.date, season)
        if year is None:
            continue
        value = rec.tmax if polarity == "max" else rec.tmin
        grouped.setdefault((rec.station_id, year), []).append(value)
    out: list[SeasonalExtremes] = []
    for (sid, year), values in sorted(grouped.items()):
        present = [v for v in values if v is not None]
        coverage = len(present) / _season_length(year, season)
        if coverage < min_coverage or not present:
            continue
        extreme = max(present) if polarity == "max" else -min(present)
        out.append(SeasonalExtremes(station_id=sid, season=season, year=year,
                                    value=extreme, coverage=coverage, polarity=polarity))
    return out


# ---------------------------------------------------------------------------
# pairwise concurrence matrices

@dataclass(frozen=True)
class ConcurrenceMatrix:
    """Symmetric pairwise estimates with unit diagonal; NaN marks absent pairs."""

    station_ids: tuple[str, ...]
    estimates: np.ndarray
    stderr: np.ndarray
    n_pairs: np.ndarray
    method: str

    def row(self, station_id: str) -> np.ndarray:
        if station_id not in self.station_ids:
            raise DomainError(f"unknown station {station_id!r}")
        return self.estimates[self.station_ids.index(station_id)]


def pairwise_matrix(extremes, method: str = "kendall", anchor: str | None = None,
                    min_overlap: int = 3, block_size: int | None = None) -> ConcurrenceMatrix:
    """Pairwise concurrence estimates over stations from seasonal extremes.

    Years are matched pairwise-complete; pairs with fewer than
    ``min_overlap`` common years stay NaN.  ``anchor`` restricts the
    computation to one station's row (plus the unit diagonal).  The method
    name and block size are checked before any pair is estimated.
    """
    estimate = estimator(method, block_size)
    series: dict[str, dict[int, float]] = {}
    for e in extremes:
        series.setdefault(e.station_id, {})[e.year] = e.value
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
            r = estimate(np.array([[a[y], b[y]] for y in years]))
            est[i, j] = est[j, i] = r["estimate"]
            err[i, j] = err[j, i] = np.nan if r["stderr"] is None else r["stderr"]
    return ConcurrenceMatrix(station_ids=ids, estimates=est, stderr=err,
                             n_pairs=npairs, method=method)


def write_matrix_csv(matrix: ConcurrenceMatrix, path) -> None:
    """Long-form CSV: id1,id2,estimate,stderr,n_pairs (i <= j rows)."""
    with open(Path(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id1", "id2", "estimate", "stderr", "n_pairs"])
        ids = matrix.station_ids
        for i in range(len(ids)):
            for j in range(i, len(ids)):
                w.writerow([ids[i], ids[j],
                            f"{matrix.estimates[i, j]:.17g}",
                            f"{matrix.stderr[i, j]:.17g}",
                            int(matrix.n_pairs[i, j])])


def read_matrix_csv(path, method: str = "kendall") -> ConcurrenceMatrix:
    rows = []
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append((row["id1"], row["id2"], float(row["estimate"]),
                         float(row["stderr"]), int(row["n_pairs"])))
    ids = tuple(sorted({r[0] for r in rows} | {r[1] for r in rows}))
    idx = {sid: i for i, sid in enumerate(ids)}
    n = len(ids)
    est = np.full((n, n), np.nan)
    err = np.full((n, n), np.nan)
    npairs = np.zeros((n, n), dtype=np.int64)
    for a, b, e, s, c in rows:
        i, j = idx[a], idx[b]
        est[i, j] = est[j, i] = e
        err[i, j] = err[j, i] = s
        npairs[i, j] = npairs[j, i] = c
    return ConcurrenceMatrix(station_ids=ids, estimates=est, stderr=err,
                             n_pairs=npairs, method=method)


# ---------------------------------------------------------------------------
# geometry and gridded maps

def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in kilometers between points in degrees."""
    lat1, lon1, lat2, lon2 = map(np.radians, (np.asarray(lat1, float), np.asarray(lon1, float),
                                              np.asarray(lat2, float), np.asarray(lon2, float)))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _logit(p: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    q = np.clip(p, eps, 1.0 - eps)
    return np.log(q / (1.0 - q))


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def grid_map(station_latlon, values, grid_lats, grid_lons,
             idw_power: float = 2.0) -> np.ndarray:
    """Inverse-distance-weighted interpolation of probabilities onto a grid.

    Interpolation happens on the logit scale and maps back into [0, 1]; a
    grid node coinciding with a station reproduces that station's value
    exactly.  Returns rows (lat, lon, value) over the lat x lon product.
    """
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


def write_grid_csv(rows: np.ndarray, path) -> None:
    with open(Path(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lat", "lon", "value"])
        for lat, lon, value in rows:
            w.writerow([f"{lat:.10g}", f"{lon:.10g}", f"{value:.17g}"])


def cos_lat_weights(grid_lats, grid_lons) -> np.ndarray:
    """Cell weights dlat*dlon*cos(lat) in squared degrees for a regular grid."""
    lats = np.asarray(grid_lats, dtype=float).reshape(-1)
    lons = np.asarray(grid_lons, dtype=float).reshape(-1)
    dlat = float(np.diff(lats)[0]) if lats.size > 1 else 1.0
    dlon = float(np.diff(lons)[0]) if lons.size > 1 else 1.0
    glat, _ = np.meshgrid(lats, lons, indexing="ij")
    return (dlat * dlon * np.cos(np.radians(glat))).reshape(-1)


# ---------------------------------------------------------------------------
# concurrence-cell areas

@dataclass(frozen=True)
class CellAreaRow:
    anchor: str
    stratum: str
    area: float
    anomaly: float


def expected_cell_area_data(matrix: ConcurrenceMatrix, station_coords: dict,
                            grid_lats, grid_lons, anchors=None,
                            idw_power: float = 2.0) -> dict[str, float]:
    """Expected cell area per anchor from a pairwise matrix: interpolate the
    anchor's concurrence row onto the grid and integrate with cos-lat weights."""
    ids = matrix.station_ids
    anchors = list(ids) if anchors is None else list(anchors)
    pts = np.array([station_coords[s] for s in ids], dtype=float)
    weights = cos_lat_weights(grid_lats, grid_lons)
    out: dict[str, float] = {}
    for anchor in anchors:
        row = matrix.row(anchor)
        grid_rows = grid_map(pts, row, grid_lats, grid_lons, idw_power=idw_power)
        out[anchor] = integrated_cp(grid_rows[:, 2], weights)
    return out


def expected_cell_area_model(model, grid_sites, weights, reps: int,
                             rng: RngLike = None,
                             anchors=None):
    """Mean concurrence-cell volume per anchor site from simulated labels.

    Returns (areas, stderrs) arrays over the requested anchor indices.
    """
    labels = simulate_cell_labels(model, grid_sites, reps, rng)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != labels.shape[1]:
        raise DomainError("weights length must match the grid size")
    anchor_idx = np.arange(labels.shape[1]) if anchors is None else np.asarray(list(anchors))
    areas = np.empty(anchor_idx.size)
    errs = np.empty(anchor_idx.size)
    for pos, a in enumerate(anchor_idx):
        member = labels == labels[:, int(a)][:, None]
        per_rep = member @ w
        areas[pos] = per_rep.mean()
        errs[pos] = per_rep.std(ddof=1) / math.sqrt(labels.shape[0])
    return areas, errs


def read_strata_csv(path) -> dict[int, str]:
    """Year -> stratum label table (columns: year,label)."""
    out: dict[int, str] = {}
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"year", "label"} <= set(reader.fieldnames):
            raise ParseError("strata file needs 'year' and 'label' columns", line=1)
        for row in reader:
            out[int(row["year"])] = row["label"].strip()
    return out


def cell_area_report(extremes, station_coords: dict, grid_lats, grid_lons,
                     strata: dict[int, str] | None = None, base_label: str | None = None,
                     method: str = "kendall", min_overlap: int = 3,
                     idw_power: float = 2.0, anchors=None) -> list[CellAreaRow]:
    """Per-anchor expected cell areas, stratified by year labels when given.

    With strata, the anomaly column holds the deviation of each stratum's
    area from the base stratum's; the base label defaults to the
    lexicographically first stratum.
    """
    if strata is None:
        matrix = pairwise_matrix(extremes, method=method, min_overlap=min_overlap)
        areas = expected_cell_area_data(matrix, station_coords, grid_lats, grid_lons,
                                        anchors=anchors, idw_power=idw_power)
        return [CellAreaRow(anchor=a, stratum="all", area=v, anomaly=0.0)
                for a, v in areas.items()]
    labels = sorted(set(strata.values()))
    known_years = set(strata)
    missing = sorted({e.year for e in extremes} - known_years)
    if missing:
        raise DomainError(f"strata labels missing for years {missing[:5]}")
    if base_label is None:
        base_label = labels[0]
    if base_label not in labels:
        raise DomainError(f"unknown base stratum {base_label!r}")
    per_label: dict[str, dict[str, float]] = {}
    for label in labels:
        sub = [e for e in extremes if strata[e.year] == label]
        matrix = pairwise_matrix(sub, method=method, min_overlap=min_overlap)
        per_label[label] = expected_cell_area_data(matrix, station_coords, grid_lats,
                                                   grid_lons, anchors=anchors,
                                                   idw_power=idw_power)
    rows: list[CellAreaRow] = []
    for label in labels:
        for anchor, area in per_label[label].items():
            base = per_label[base_label].get(anchor, float("nan"))
            rows.append(CellAreaRow(anchor=anchor, stratum=label, area=area,
                                    anomaly=area - base))
    return rows
