"""Synthetic station data with a known dependence structure.

Builds daily CSV records whose seasonal block maxima are exactly a planted
max-stable vector, so the full ingestion -> blocking -> estimation chain
can be validated against the generating model's concurrence probability.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
from pathlib import Path

import numpy as np

from .errors import DomainError
from .models import ModelSpec
from .pipeline import _SEASON_MONTHS
from .simulate import SimControl, simulate_field_values
from .specfun import RngLike, as_generator


def synthesize_station_csv(path, model: ModelSpec, station_ids, station_latlon,
                           years, rng: RngLike, season: str = "JJA",
                           sites=None, ctrl: SimControl | None = None) -> np.ndarray:
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
    planted = simulate_field_values(model, sites, len(years), ctrl, as_generator(rng))
    months = _SEASON_MONTHS[season]
    with open(Path(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "lat", "lon", "date", "tmin", "tmax"])
        for yi, year in enumerate(years):
            for si, sid in enumerate(station_ids):
                peak = 10.0 + float(planted[yi, si])
                for m in months:
                    y = year - 1 if season == "DJF" and m == 12 else year
                    ndays = calendar.monthrange(y, m)[1]
                    for day in range(1, ndays + 1):
                        date = dt.date(y, m, day)
                        is_peak = (m == months[1] and day == 15)
                        tmax = peak if is_peak else 9.0 + 0.01 * ((day * 7 + m) % 50)
                        w.writerow([sid, f"{pts[si, 0]:.6f}", f"{pts[si, 1]:.6f}",
                                    date.isoformat(), f"{-tmax:.10g}", f"{tmax:.10g}"])
    return planted
