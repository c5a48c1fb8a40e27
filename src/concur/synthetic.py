"""Synthetic station data with a known dependence structure.

Builds daily CSV records whose seasonal block maxima are exactly a planted
max-stable vector, so the full ingestion -> blocking -> estimation chain
can be validated against the generating model's concurrence probability.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt

import numpy as np

from .errors import DomainError
from .models import ModelSpec
from .pipeline import _COLUMNS, _SEASON_MONTHS, _csv_fields, _open_csv
from .simulate import simulate_field_values
from .specfun import RngLike, as_generator


def synthesize_station_csv(path, model: ModelSpec, station_ids, station_latlon,
                           years, rng: RngLike, season: str = "JJA",
                           sites=None) -> np.ndarray:
    """Write daily station records whose seasonal maxima follow ``model``.

    One vector per year is drawn from the model (over ``sites``, defaulting
    to indices on a line) and planted as the seasonal maximum of tmax on a
    fixed mid-season day; every other day sits strictly below it.  tmin is
    the negated tmax so that negated-minimum analyses see the same planted
    dependence.  Returns the (years, stations) matrix of planted maxima.
    """
    station_ids = list(station_ids)
    pts = np.asarray(station_latlon, dtype=float)
    if pts.shape != (len(station_ids), 2):
        raise DomainError("station_latlon must be (n_stations, 2)")
    if season not in _SEASON_MONTHS:
        raise DomainError(f"unknown season {season!r}")
    years = list(years)
    if sites is None:
        sites = np.arange(len(station_ids), dtype=float)[:, None]
    n_sites = len(model.sites_of(sites))
    if n_sites != len(station_ids):
        raise DomainError(f"{n_sites} sites for {len(station_ids)} stations; "
                          f"sites must hold one site per station")
    planted = simulate_field_values(model, sites, len(years), as_generator(rng))
    months = _SEASON_MONTHS[season]
    # each row is its station's text and then its day's; every value is formatted once
    stations = [f"{sid},{lat:.6f},{lon:.6f},"
                for sid, (lat, lon) in zip(_csv_fields(station_ids), pts.tolist())]
    below = [f"{-t:.10g},{t:.10g}" for t in (9.0 + 0.01 * k for k in range(50))]
    with _open_csv(path, "w") as fh:
        csv.writer(fh).writerow(_COLUMNS)
        for year, peaks in zip(years, (10.0 + planted).tolist()):
            dates, days = [], []   # the season's days: date, then tmin,tmax below the peak
            for m in months:
                y = year - 1 if season == "DJF" and m == 12 else year
                for day in range(1, calendar.monthrange(y, m)[1] + 1):
                    if m == months[1] and day == 15:
                        peak_at = len(days)
                    dates.append(dt.date(y, m, day).isoformat())
                    days.append(f"{dates[-1]},{below[(day * 7 + m) % 50]}")
            for station, peak in zip(stations, peaks):
                rows = days.copy()
                rows[peak_at] = f"{dates[peak_at]},{-peak:.10g},{peak:.10g}"
                fh.write(station + ("\r\n" + station).join(rows) + "\r\n")
    return planted
