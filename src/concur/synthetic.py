"""Synthetic station data with a known dependence structure.

Builds daily CSV records whose seasonal block maxima are exactly a planted
max-stable vector, so the full ingestion -> blocking -> estimation chain
can be validated against the generating model's concurrence probability.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DomainError
from .models import ModelSpec
from .pipeline import _COLUMNS, SEASONS, _csv_fields, _open_csv, _station_id
from .simulate import simulate_field_values
from .specfun import RngLike, _reals, _whole, as_generator


def synthesize_station_csv(path, model: ModelSpec, station_ids, station_latlon,
                           years, rng: RngLike, season: str = "JJA",
                           sites=None) -> np.ndarray:
    """Write daily station records whose seasonal maxima follow ``model``.

    One vector per year is drawn from the model (over ``sites``, defaulting
    to indices on a line) and planted as the seasonal maximum of tmax on a
    fixed mid-season day; every other day sits strictly below it.  tmin is
    the negated tmax so that negated-minimum analyses see the same planted
    dependence.  Returns the (years, stations) matrix of planted maxima.
    Each station id is distinct and reads back as itself.
    """
    station_ids = list(station_ids)
    seen = set()
    for sid in station_ids:
        try:
            if not isinstance(sid, str) or _station_id(sid) != sid:
                raise ValueError(f"station id {sid!r} does not read back as itself")
        except ValueError as exc:
            raise DomainError(str(exc)) from None
        if sid in seen:
            raise DomainError(f"station id {sid!r} is repeated")
        seen.add(sid)
    pts = _reals(station_latlon, "station coordinates")
    if pts.shape != (len(station_ids), 2):
        raise DomainError("station_latlon must be (n_stations, 2)")
    _reals(pts[:, 0], "station latitudes", -90, 90, "[]")    # the bounds ingest_csv reads
    _reals(pts[:, 1], "station longitudes", -180, 180, "[]")
    if season not in SEASONS:
        raise DomainError(f"unknown season {season!r}")
    # a DJF season starts in the December before; a date has at most four digits
    years = [_whole(y, 2 if season == "DJF" else 1, f"{season} year") for y in years]
    if years and max(years) > 9999:
        raise DomainError(f"{season} year must be at most 9999, got {max(years)}")
    if sites is None:
        sites = np.arange(len(station_ids), dtype=float)[:, None]
    n_sites = len(model.sites_of(sites))
    if n_sites != len(station_ids):
        raise DomainError(f"{n_sites} sites for {len(station_ids)} stations; "
                          f"sites must hold one site per station")
    s = SEASONS.index(season)
    planted = simulate_field_values(model, sites, len(years), as_generator(rng))
    # each row is its station's text and then its day's; every value is formatted once
    stations = [f"{sid},{lat:.6f},{lon:.6f},"
                for sid, (lat, lon) in zip(_csv_fields(station_ids), pts.tolist())]
    below = [f"{-t:.10g},{t:.10g}" for t in (9.0 + 0.01 * k for k in range(50))]
    with _open_csv(path, "w") as fh:
        csv.writer(fh).writerow(_COLUMNS)
        for year, peaks in zip(years, (10.0 + planted).tolist()):
            # the season's block b, as in seasonal_blocks: months 3b - 1 to 3b + 1 from 1970
            first = np.datetime64("1970-01") + 3 * (4 * (year - 1970) + s) - 1
            day = np.arange(first, first + 3, dtype="datetime64[D]")
            month = day.astype("datetime64[M]")
            # each day's tmin,tmax below the peak, picked by 7 * (day of month) + month
            pick = ((day - month + 1).astype(np.int64) * 7 + month.astype(np.int64) % 12 + 1) % 50
            peak_at = int((day < first + 1).sum()) + 14     # the middle month's 15th
            dates = np.datetime_as_string(day).tolist()
            days = [f"{d},{below[b]}" for d, b in zip(dates, pick.tolist())]
            for station, peak in zip(stations, peaks):
                rows = days.copy()
                rows[peak_at] = f"{dates[peak_at]},{-peak:.10g},{peak:.10g}"
                fh.write(station + ("\r\n" + station).join(rows) + "\r\n")
    return planted
