"""Station-data pipeline: ingestion, blocking, matrices, maps, cells."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concur
from concur import (
    BrownResnick,
    DomainError,
    FractionalVariogram,
    Logistic,
    ParseError,
    SeededRng,
)
from concur.pipeline import (
    ConcurrenceMatrix,
    cell_area_report,
    cos_lat_weights,
    expected_cell_area_data,
    expected_cell_area_model,
    grid_map,
    haversine_km,
    ingest_csv,
    pairwise_matrix,
    read_extremes_csv,
    read_matrix_csv,
    read_stations_csv,
    read_strata_csv,
    seasonal_blocks,
    write_extremes_csv,
    write_matrix_csv,
    write_stations_csv,
)
from concur.synthetic import synthesize_station_csv

STATIONS = ["A", "B", "C", "D"]
COORDS = np.array([[40.0, -100.0], [41.0, -101.0], [42.0, -99.0], [39.5, -98.5]])


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "stations.csv"
    planted = synthesize_station_csv(path, Logistic(0.5), STATIONS, COORDS,
                                     years=range(1950, 2050), rng=SeededRng(31),
                                     season="JJA")
    return path, planted


class TestIngest:
    def test_valid_small_file(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text(
            "station_id,lat,lon,date,tmin,tmax\n"
            "S1,40.0,-100.0,2000-01-01,-5.0,10.0\n"
            "S1,40.0,-100.0,2000-01-02,-9999,11.0\n"
            "S2,41.0,-99.0,2000-01-01,,12.0\n"
            "S2,41.0,-99.0,2000-01-02,-4.0,13.0\n")
        result = ingest_csv(p)
        assert len(result.records) == 4
        assert np.isnan(result.records["tmin"][1])
        assert np.isnan(result.records["tmin"][2])
        assert result.missing_report["S1"]["missing_tmin"] == 0.5
        assert result.warnings == ()

    def test_bad_date_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "station_id,lat,lon,date,tmin,tmax\n"
            "S1,40.0,-100.0,2000-01-01,1.0,10.0\n"
            "S1,40.0,-100.0,not-a-date,1.0,10.0\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text(
            "station_id,lat,lon,date,tmin,tmax\n"
            "S1,40.0,-100.0,2000-01-01,1.0,10.0\n"
            "S1,40.0,-100.0,2000-01-01,2.0,11.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            ingest_csv(p)

    def test_out_of_range_coordinates(self, tmp_path):
        p = tmp_path / "range.csv"
        p.write_text("station_id,lat,lon,date,tmin,tmax\n"
                     "S1,95.0,-100.0,2000-01-01,1.0,10.0\n")
        with pytest.raises(ParseError, match="latitude"):
            ingest_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("B,nan,-101", r"latitude nan outside \[-90, 90\]"),
        ("B,inf,-101", r"latitude inf outside \[-90, 90\]"),
        ("B,95,-101", r"latitude 95.0 outside \[-90, 90\]"),
        ("B,41,-181", r"longitude -181.0 outside \[-180, 180\]"),
        ("B,4_1,-101", r"number '4_1' holds an underscore")])
    def test_stations_table_takes_the_coordinate_rule(self, tmp_path, row, message):
        # a blank line is not a row, but it counts as a line
        p = tmp_path / "stations.csv"
        p.write_text(f"station_id,lat,lon\nA,40,-100\n\n{row}\nC,42,-99\n")
        with pytest.raises(ParseError, match=f"^line 4: {message}$"):
            read_stations_csv(p)

    def test_mostly_missing_warns(self, tmp_path):
        p = tmp_path / "miss.csv"
        rows = ["station_id,lat,lon,date,tmin,tmax"]
        for d in range(1, 11):
            rows.append(f"S1,40.0,-100.0,2000-01-{d:02d},-9999,10.0")
        p.write_text("\n".join(rows) + "\n")
        result = ingest_csv(p)
        assert any("missing tmin" in w for w in result.warnings)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("station_id,lat,lon,date,tmax\nS1,40,-100,2000-01-01,9\n")
        with pytest.raises(ParseError, match="missing columns"):
            ingest_csv(p)

    def test_nul_in_station_id(self, tmp_path):
        # NumPy's str dtype drops trailing NULs: "A\0" would pass the
        # duplicate check as a second station, then merge into A
        p = tmp_path / "nul.csv"
        p.write_bytes(b"station_id,lat,lon,date,tmin,tmax\n"
                      b"A,40,-100,2000-06-01,1,2\n"
                      b"A\x00,40,-100,2000-06-01,1,3\n")
        # Python 3.10's csv module rejects the NUL itself, at the same line
        with pytest.raises(ParseError, match=r"line 3: (station id 'A\\x00' holds a NUL|.*NUL)"):
            ingest_csv(p)


HEADER = b"station_id,lat,lon,date,tmin,tmax\n"
ROW = b"A,40,-100,2000-01-%02d,1,2\n"


class TestUndecodableText:
    """A byte that is not UTF-8 is an ordinary bad field: the first bad row
    in file order is reported, at the line its row ends on."""

    def test_bad_row_before_a_bad_byte_comes_first(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_bytes(HEADER + ROW % 1 + b"A,40,-100\n" + ROW % 3
                      + b"A\xff,40,-100,2000-01-04,1,2\n")
        with pytest.raises(ParseError, match="line 3: 3 fields, 6 expected"):
            ingest_csv(p)
        p = tmp_path / "stations.csv"
        p.write_bytes(b"station_id,lat,lon\nA,40,-100\nB,north,-101\nC,\xe9,-99\n")
        with pytest.raises(ParseError, match="line 3: could not convert"):
            read_stations_csv(p)

    def test_the_message_names_the_byte(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_bytes(HEADER + ROW % 1 + b"A,40,-100,2000-01-02,1,\x80\n")
        with pytest.raises(ParseError, match=r"^line 3: not utf-8 text \(byte 0x80\)$"):
            ingest_csv(p)

    def test_bad_byte_in_an_ignored_column(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_bytes(HEADER[:-1] + b",note\n" + ROW[:-1] % 1 + b",x\n"
                      + ROW[:-1] % 2 + b",\xfex\n")
        with pytest.raises(ParseError, match="line 3: not utf-8 text"):
            ingest_csv(p)
        p = tmp_path / "stations.csv"
        p.write_bytes(b"station_id,lat,lon,name\nA,40,-100,x\nB,41,-101,\xc3\n")
        with pytest.raises(ParseError, match="line 3: not utf-8 text"):
            read_stations_csv(p)

    def test_bad_byte_in_the_header(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_bytes(HEADER[:-1] + b",\xff\n" + ROW % 1)
        with pytest.raises(ParseError, match="line 1: not utf-8 text"):
            ingest_csv(p)
        p = tmp_path / "strata.csv"
        p.write_bytes(b"year,label,\xff\n2000,nino,x\n")
        with pytest.raises(ParseError, match="line 1: not utf-8 text"):
            read_strata_csv(p)

    def test_bad_byte_in_a_later_chunk(self, tmp_path, monkeypatch):
        import concur.pipeline
        monkeypatch.setattr(concur.pipeline, "_CHUNK", 2)
        p = tmp_path / "records.csv"
        p.write_bytes(HEADER + b"".join(ROW % d for d in range(1, 6))
                      + b"A,40,-100,2000-01-06,1,2\xff\n")
        with pytest.raises(ParseError, match=r"line 7: not utf-8 text \(byte 0xff\)"):
            ingest_csv(p)


class TestSeasonalBlocks:
    def _records(self, tmp_path, body):
        p = tmp_path / "rec.csv"
        p.write_text("station_id,lat,lon,date,tmin,tmax\n" + body)
        return ingest_csv(p)

    def test_december_attaches_to_next_winter(self, tmp_path):
        body = "".join(
            f"S1,40.0,-100.0,1999-12-{d:02d},-1.0,1.0\n" for d in range(1, 32))
        body += "".join(
            f"S1,40.0,-100.0,2000-0{m}-{d:02d},-{v}.0,{v}.0\n"
            for m, days, v in ((1, 31, 2), (2, 29, 3)) for d in range(1, days + 1))
        result = self._records(tmp_path, body)
        out = seasonal_blocks(result, "DJF", "max", min_coverage=0.9)
        assert len(out) == 1
        assert out[0].year == 2000 and out[0].value == 3.0
        assert out[0].coverage == 1.0

    def test_polarity_negated_min(self, tmp_path):
        body = "".join(
            f"S1,40.0,-100.0,2000-06-{d:02d},{-(d % 7) - 1}.0,9.0\n" for d in range(1, 31))
        body += "".join(
            f"S1,40.0,-100.0,2000-07-{d:02d},-3.0,9.0\n" for d in range(1, 32))
        body += "".join(
            f"S1,40.0,-100.0,2000-08-{d:02d},-3.0,9.0\n" for d in range(1, 32))
        result = self._records(tmp_path, body)
        out = seasonal_blocks(result, "JJA", "negated_min")
        assert out[0].value == 7.0  # -(min tmin) = -(-7)
        assert out[0].polarity == "negated_min"

    def test_low_coverage_dropped(self, tmp_path):
        # only June present: coverage 30/92 < 0.9
        body = "".join(
            f"S1,40.0,-100.0,2000-06-{d:02d},-1.0,5.0\n" for d in range(1, 31))
        result = self._records(tmp_path, body)
        assert seasonal_blocks(result, "JJA", "max") == []
        assert len(seasonal_blocks(result, "JJA", "max", min_coverage=0.3)) == 1

    def test_bad_arguments(self, tmp_path):
        result = self._records(tmp_path, "S1,40.0,-100.0,2000-06-01,-1.0,5.0\n")
        with pytest.raises(DomainError):
            seasonal_blocks(result, "XYZ", "max")
        with pytest.raises(DomainError):
            seasonal_blocks(result, "JJA", "upside_down")

    @pytest.mark.parametrize("min_coverage", [math.nan, -0.1, 1.5, 2.0])
    def test_min_coverage_outside_unit_interval(self, tmp_path, min_coverage):
        # NaN or a negative share would turn the filter off, above 1 drop every season
        result = self._records(tmp_path, "S1,40.0,-100.0,2000-06-01,-1.0,5.0\n")
        with pytest.raises(DomainError, match=re.escape(
                f"min_coverage must be a finite number in [0, 1], got {min_coverage!r}")):
            seasonal_blocks(result, "JJA", "max", min_coverage=min_coverage)

    def test_min_coverage_bounds_accepted(self, tmp_path):
        body = "".join(
            f"S1,40.0,-100.0,2000-{m:02d}-{d:02d},-1.0,5.0\n"
            for m, days in ((6, 30), (7, 31), (8, 31)) for d in range(1, days + 1))
        body += "S2,41.0,-101.0,2000-06-01,-1.0,5.0\n"
        result = self._records(tmp_path, body)
        assert [e.station_id for e in seasonal_blocks(result, "JJA", min_coverage=0.0)] == [
            "S1", "S2"]
        assert [e.station_id for e in seasonal_blocks(result, "JJA", min_coverage=1.0)] == ["S1"]


class TestPairwiseMatrix:
    def test_identical_series_give_one(self, synthetic):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        doubled = extremes + [
            e.__class__(station_id="E", season=e.season, year=e.year, value=e.value,
                        coverage=e.coverage, polarity=e.polarity)
            for e in extremes if e.station_id == "A"]
        matrix = pairwise_matrix(doubled)
        i, j = matrix.station_ids.index("A"), matrix.station_ids.index("E")
        assert matrix.estimates[i, j] == pytest.approx(1.0)

    def test_symmetry_and_diagonal(self, synthetic):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        matrix = pairwise_matrix(extremes)
        assert np.array_equal(matrix.estimates, matrix.estimates.T)
        assert np.all(np.diag(matrix.estimates) == 1.0)
        assert np.all(np.diag(matrix.stderr) == 0.0)

    def test_anchor_mode(self, synthetic):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        matrix = pairwise_matrix(extremes, anchor="B")
        i = matrix.station_ids.index("B")
        off_anchor = [r for r in range(4) if r != i]
        assert np.isfinite(matrix.estimates[i, off_anchor]).all()
        sub = matrix.estimates[np.ix_(off_anchor, off_anchor)]
        assert np.isnan(sub[~np.eye(3, dtype=bool)]).all()

    def test_recovers_generating_p(self, synthetic):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        matrix = pairwise_matrix(extremes)
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.abs(matrix.estimates[off] - 0.5) < 0.15)

    def test_insufficient_overlap_is_nan(self):
        from concur.pipeline import SeasonalExtremes
        extremes = [
            SeasonalExtremes("A", "JJA", y, float(v), 1.0, "max")
            for y, v in [(2000, 1.0), (2001, 2.0)]
        ] + [
            SeasonalExtremes("B", "JJA", y, float(v), 1.0, "max")
            for y, v in [(2000, 2.0), (2001, 1.0)]
        ]
        matrix = pairwise_matrix(extremes, min_overlap=3)
        assert math.isnan(matrix.estimates[0, 1])
        assert matrix.n_pairs[0, 1] == 2

    def test_repeated_station_year(self):
        # B has a JJA and a DJF extreme in each year: the matrix would have
        # kept the DJF rows alone (tau -1 where JJA gives 1)
        from concur.pipeline import SeasonalExtremes
        extremes = [SeasonalExtremes(sid, season, y, float(v), 1.0, "max")
                    for sid, season, sign in [("A", "JJA", 1), ("B", "JJA", 1), ("B", "DJF", -1)]
                    for y, v in zip(range(2000, 2005), sign * np.arange(5.0))]
        with pytest.raises(DomainError, match="station B has two extremes in 2000"):
            pairwise_matrix(extremes)
        with pytest.raises(DomainError, match="station B has two extremes in 2000"):
            cell_area_report(extremes, {"A": (40.0, -100.0), "B": (41.0, -101.0)},
                             [40.0], [-100.0])
        matrix = pairwise_matrix([e for e in extremes if e.season == "JJA"])
        assert matrix.estimates[0, 1] == 1.0

    @pytest.mark.parametrize("season, polarity", [("DJF", "max"), ("JJA", "negated_min")])
    def test_mixed_season_or_polarity(self, season, polarity):
        # no station-year repeats, yet B's odd extreme would pair with A's JJA maximum
        from concur.pipeline import SeasonalExtremes
        extremes = [SeasonalExtremes(sid, "JJA", y, float(v), 1.0, "max")
                    for sid in "AB" for y, v in zip(range(2000, 2005), np.arange(5.0))]
        extremes[7] = SeasonalExtremes("B", season, 2002, -2.0, 1.0, polarity)
        with pytest.raises(DomainError, match=f"{season} {polarity} extreme of station B in "
                                              "2002 among JJA max extremes"):
            pairwise_matrix(extremes)
        with pytest.raises(DomainError, match=f"{season} {polarity} extreme of station B"):
            cell_area_report(extremes, {"A": (40.0, -100.0), "B": (41.0, -101.0)},
                             [40.0], [-100.0])

    def test_unknown_method_raises_before_pairs(self, synthetic):
        from concur.pipeline import SeasonalExtremes
        # no pair reaches min_overlap, so no estimator would ever run
        disjoint = [SeasonalExtremes(sid, "JJA", year, 1.0, 1.0, "max")
                    for sid, year in (("A", 2000), ("B", 2001))]
        overlapping = seasonal_blocks(ingest_csv(synthetic[0]), "JJA", "max")
        for extremes in (disjoint, overlapping):
            with pytest.raises(DomainError, match="'bogus'"):
                pairwise_matrix(extremes, method="bogus")
        with pytest.raises(DomainError, match="requires a block size"):
            pairwise_matrix(disjoint, method="block")

    def test_block_size_above_a_pairs_common_years(self, monkeypatch):
        # A and B share 7 years, A and C 4, B and C 3: the first pair in
        # station order below the block size is named before any estimate
        import concur.estimators
        from concur.pipeline import SeasonalExtremes
        years = {"A": range(2000, 2008), "B": range(2001, 2008), "C": range(2000, 2008, 2)}
        extremes = [SeasonalExtremes(sid, "JJA", y, float((5 * y + len(sid)) % 7), 1.0, "max")
                    for sid, ys in years.items() for y in ys]
        calls = []
        fn = concur.estimators.ESTIMATORS["bootstrap"]
        monkeypatch.setitem(concur.estimators.ESTIMATORS, "bootstrap",
                            lambda data, **kw: calls.append(data.shape) or fn(data, **kw))
        with pytest.raises(DomainError, match="stations A and C share 4 years, fewer than the "
                                              "block size 5; raise --min-overlap to 5"):
            pairwise_matrix(extremes, method="bootstrap", block_size=5)
        assert calls == []
        matrix = pairwise_matrix(extremes, method="bootstrap", block_size=5, min_overlap=5)
        assert calls == [(1, 7, 2)]
        assert np.isnan(matrix.estimates[[0, 1], [2, 2]]).all()
        with pytest.raises(DomainError, match="stations B and C share 3 years"):
            pairwise_matrix(extremes, method="block", block_size=4, anchor="C")
        # a method without blocks takes no block size: one given is refused
        with pytest.raises(DomainError, match="method 'kendall' takes no block size, got 5"):
            pairwise_matrix(extremes, block_size=5)
        assert np.isfinite(pairwise_matrix(extremes).estimates).all()

    def test_polarity_flip_metamorphic(self, synthetic):
        # tmin = -tmax in the synthetic data: negated minima carry the same
        # dependence, so the two matrices agree exactly
        path, _ = synthetic
        result = ingest_csv(path)
        m_max = pairwise_matrix(seasonal_blocks(result, "JJA", "max"))
        m_min = pairwise_matrix(seasonal_blocks(result, "JJA", "negated_min"))
        assert np.array_equal(m_max.estimates, m_min.estimates, equal_nan=True)

    def test_csv_roundtrip(self, synthetic, tmp_path):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        matrix = pairwise_matrix(extremes)
        out = tmp_path / "matrix.csv"
        write_matrix_csv(matrix, out)
        back = read_matrix_csv(out)
        assert back.station_ids == matrix.station_ids
        # the file does not record the method, so the matrix read claims none
        assert matrix.method == "kendall" and back.method is None
        assert np.allclose(back.estimates, matrix.estimates, equal_nan=True)

    def test_matrix_csv_reads_the_writers_nan(self, tmp_path):
        # nan marks an absent pair and a missing stderr; inf is refused at its line
        est = np.array([[1.0, np.nan, 0.25], [np.nan, 1.0, 0.5], [0.25, 0.5, 1.0]])
        err = np.array([[0.0, np.nan, np.nan], [np.nan, 0.0, 0.125], [np.nan, 0.125, 0.0]])
        matrix = ConcurrenceMatrix(("A", "B", "C"), est, err, np.full((3, 3), 4), "bootstrap")
        out = tmp_path / "matrix.csv"
        write_matrix_csv(matrix, out)
        back = read_matrix_csv(out)
        assert np.array_equal(back.estimates, est, equal_nan=True)
        assert np.array_equal(back.stderr, err, equal_nan=True)
        assert np.array_equal(back.n_pairs, matrix.n_pairs)
        out.write_text(out.read_text().replace("0.125", "inf", 1))
        with pytest.raises(ParseError, match=re.escape("line 6: stderr inf is neither nan nor in [0, inf)")):
            read_matrix_csv(out)

    @pytest.mark.parametrize("second", ["B,A,0.9,0.1,5", "A,B,0.9,0.1,5", "A,A,1,0,5"])
    def test_matrix_csv_repeated_pair(self, tmp_path, second):
        # either order names the one unordered pair; the second row is the bad one
        p = tmp_path / "matrix.csv"
        p.write_text("id1,id2,estimate,stderr,n_pairs\nA,A,1,0,5\nA,B,0.5,0.1,5\n"
                     f"B,B,1,0,5\n{second}\n")
        first = 2 if second.startswith("A,A") else 3
        with pytest.raises(ParseError, match=rf"line 5: duplicate pair .* \(first seen on line "
                                             rf"{first}\)"):
            read_matrix_csv(p)


class TestGeometryAndMaps:
    def test_haversine_reference(self):
        # one degree of longitude at the equator
        d = haversine_km(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111.19, abs=0.05)
        assert haversine_km(40.0, -100.0, 40.0, -100.0) == 0.0

    def test_constant_field_reproduced(self):
        rows = grid_map(COORDS, np.full(4, 0.6), np.linspace(39, 42, 5),
                        np.linspace(-101, -98, 5))
        assert np.allclose(rows[:, 2], 0.6, atol=1e-12)

    def test_station_coincident_node_exact(self):
        vals = np.array([0.2, 0.4, 0.6, 0.8])
        rows = grid_map(COORDS, vals, np.array([40.0]), np.array([-100.0]))
        assert rows[0, 2] == pytest.approx(0.2, abs=1e-12)

    def test_two_station_midpoint_logit_average(self):
        # hand oracle: expit(mean(logit(0.4), logit(0.8))) = 0.620204...
        pts = np.array([[0.0, -1.0], [0.0, 1.0], [89.0, 0.0]])
        vals = np.array([0.4, 0.8, np.nan])
        rows = grid_map(pts, np.array([0.4, 0.8, 0.5]), np.array([0.0]), np.array([0.0]))
        # third station sits ~9900 km away; its weight is ~1e-4 of the others
        assert rows[0, 2] == pytest.approx(0.6202041028867288, abs=2e-4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_station_values_refused(self, bad):
        # only NaN marks an absent estimate; an infinite one used to read as absent
        with pytest.raises(DomainError, match=re.escape(
                f"station values must be finite or NaN (absent), got {bad!r}")):
            grid_map(COORDS, np.array([0.5, 0.4, 0.6, bad]), np.array([40.5]),
                     np.array([-100.0]))

    def test_values_outside_the_unit_interval_are_clipped_first(self):
        # the unbiased and Kendall estimators can give them; each maps as the
        # nearer end of [0, 1], and NaN is still left out
        lats, lons = np.linspace(39, 42, 4), np.linspace(-101, -98, 4)
        for outside, end in ((7.0, 1.0), (1.0 + 1e-9, 1.0), (-0.3, 0.0), (-1e-12, 0.0)):
            for row in ([0.5, 0.4, 0.6, outside], [outside, 0.4, np.nan, 0.6]):
                clipped = [end if v == outside else v for v in row]
                assert np.array_equal(grid_map(COORDS, np.array(row), lats, lons),
                                      grid_map(COORDS, np.array(clipped), lats, lons))
        on_station = grid_map(COORDS, np.array([-0.3, 0.4, 0.6, 0.5]), np.array([40.0]),
                              np.array([-100.0]))
        assert on_station[0, 2] == 0.0

    def test_empty_grid_and_too_few_stations(self):
        with pytest.raises(DomainError):
            grid_map(COORDS, np.full(4, 0.5), np.array([]), np.array([1.0]))
        with pytest.raises(DomainError):
            grid_map(COORDS[:2], np.full(2, 0.5), np.array([40.0]), np.array([-100.0]))

    @pytest.mark.parametrize("power", [math.nan, math.inf, 0.0, -1.0])
    def test_idw_power_must_be_finite_and_positive(self, power):
        # NaN gives a NaN map, a negative power lets far stations outweigh near ones
        with pytest.raises(DomainError, match=re.escape(
                f"idw_power must be a finite number in (0, inf), got {power!r}")):
            grid_map(COORDS, np.full(4, 0.5), np.array([40.5]), np.array([-100.0]),
                     idw_power=power)

    def test_cos_lat_weights(self):
        w = cos_lat_weights(np.array([0.0, 1.0]), np.array([10.0, 11.0]))
        assert w[0] == pytest.approx(1.0)
        assert w.shape == (4,)

    @pytest.mark.parametrize("lats, lons, name", [
        ([0.0, 1.0, 5.0], [0.0, 1.0], "grid latitudes"),   # the 5 degree row spans 4
        ([0.0, 1.0], [0.0, 2.0, 3.0], "grid longitudes"),
        ([0.0, 1.0, 0.0], [0.0, 1.0], "grid latitudes"),   # turns back
        ([0.0, 0.0], [0.0, 1.0], "grid latitudes"),        # a repeated node
        ([0.0, 1.0, 2.0 + 1e-6], [0.0, 1.0], "grid latitudes"),
    ])
    def test_cos_lat_weights_refuse_an_irregular_axis(self, lats, lons, name):
        with pytest.raises(DomainError, match=f"{name} must be a regular axis"):
            cos_lat_weights(lats, lons)

    def test_cos_lat_weights_take_either_direction_within_tolerance(self):
        want = cos_lat_weights([10.0, 12.0, 14.0], [-100.0, -99.5])
        assert np.array_equal(cos_lat_weights([14.0, 12.0, 10.0], [-99.5, -100.0]),
                              want[[5, 4, 3, 2, 1, 0]])
        # rectangle_weights' relative tolerance of 1e-9: linspace rounding passes
        near = cos_lat_weights([10.0, 12.0, 14.0 + 1e-10], [-100.0, -99.5])
        assert np.array_equal(near[:4], want[:4])
        assert cos_lat_weights(np.linspace(-60.0, 75.0, 271), [0.0]).shape == (271,)


class TestCellAreas:
    def test_constant_matrix_full_area(self):
        ids = tuple("ABC")
        est = np.ones((3, 3))
        matrix = ConcurrenceMatrix(ids, est, np.zeros((3, 3)),
                                   np.full((3, 3), 10), "kendall")
        coords = {s: (0.0, float(i)) for i, s in enumerate(ids)}
        lats, lons = np.array([0.0]), np.linspace(0.0, 2.0, 3)
        areas = expected_cell_area_data(matrix, coords, lats, lons)
        total = cos_lat_weights(lats, lons).sum()
        for v in areas.values():
            assert v == pytest.approx(total, rel=1e-9)

    def test_model_mode_huge_ball_covers_grid(self, rng):
        from concur import BallIndicator
        sites = np.linspace(0.0, 3.0, 7)[:, None]
        weights = np.full(7, 0.5)
        areas, _ = expected_cell_area_model(BallIndicator(radius=300.0, dim=1),
                                            sites, weights, 200, rng)
        assert np.all(areas > 0.97 * weights.sum())

    @pytest.mark.parametrize("reps", [0, 1])
    def test_model_mode_needs_two_reps(self, rng, reps):
        # one replicate used to give a NaN stderr and two RuntimeWarnings
        from concur import BallIndicator
        with pytest.raises(DomainError, match=f"reps must be a whole number >= 2, got {reps}"):
            expected_cell_area_model(BallIndicator(radius=1.0), np.array([[0.0], [1.0]]),
                                     np.ones(2), reps, rng)

    def test_a_station_too_few_estimates_is_named(self, synthetic):
        # D keeps two odd seasons, below min_overlap: the odd stratum has no
        # estimate for D, so no map of D
        extremes = [e for e in seasonal_blocks(ingest_csv(synthetic[0]), "JJA", "max")
                    if e.station_id != "D" or e.year % 2 == 0 or e.year < 1954]
        strata = {e.year: ("even" if e.year % 2 == 0 else "odd") for e in extremes}
        coords = {s: tuple(c) for s, c in zip(STATIONS, COORDS)}
        lats, lons = np.linspace(39, 42, 4), np.linspace(-101, -98, 4)
        message = "station D has estimates at only 1 of the 4 stations"
        with pytest.raises(DomainError, match=f"stratum 'odd': {message}"):
            cell_area_report(extremes, coords, lats, lons, strata=strata)
        with pytest.raises(DomainError, match=f"^{message}"):
            expected_cell_area_data(pairwise_matrix([e for e in extremes if e.year % 2]),
                                    coords, lats, lons)
        rows = cell_area_report(extremes, coords, lats, lons, strata=strata, min_overlap=2)
        assert len(rows) == 8

    def test_block_size_reaches_the_matrix(self, synthetic):
        extremes = seasonal_blocks(ingest_csv(synthetic[0]), "JJA", "max")
        coords = {s: tuple(c) for s, c in zip(STATIONS, COORDS)}
        lats, lons = np.linspace(39, 42, 4), np.linspace(-101, -98, 4)
        rows = cell_area_report(extremes, coords, lats, lons, method="bootstrap", block_size=5)
        want = expected_cell_area_data(pairwise_matrix(extremes, "bootstrap", block_size=5),
                                       coords, lats, lons)
        assert {r.anchor: r.area for r in rows} == want
        with pytest.raises(DomainError, match="stratum 'all': method 'bootstrap' requires"):
            cell_area_report(extremes, coords, lats, lons, method="bootstrap")

    def test_identical_strata_zero_anomaly(self, synthetic):
        path, _ = synthetic
        result = ingest_csv(path)
        extremes = seasonal_blocks(result, "JJA", "max")
        # alternating identical-distribution strata
        strata = {e.year: ("even" if e.year % 2 == 0 else "odd") for e in extremes}
        coords = {s: tuple(c) for s, c in zip(STATIONS, COORDS)}
        rows = cell_area_report(extremes, coords, np.linspace(39, 42, 4),
                                np.linspace(-101, -98, 4), strata=strata,
                                base_label="even")
        for row in rows:
            if row.stratum == "even":
                assert row.anomaly == 0.0
            assert row.area > 0

    def test_base_label_without_strata(self, synthetic):
        # it used to be replaced by "all" without a word
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        coords = {s: tuple(c) for s, c in zip(STATIONS, COORDS)}
        for label in ("no-such-label", "all"):
            with pytest.raises(DomainError,
                               match=f"base stratum '{label}' given without strata"):
                cell_area_report(extremes, coords, np.array([40.0, 41.0]),
                                 np.array([-100.0, -99.0]), base_label=label)

    def test_extremes_csv_roundtrip(self, synthetic, tmp_path):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "DJF", "negated_min")
        out = tmp_path / "extremes.csv"
        write_extremes_csv(extremes, out)
        back = read_extremes_csv(out)
        assert [(e.station_id, e.season, e.year, e.value, e.polarity) for e in back] == [
            (e.station_id, e.season, e.year, e.value, e.polarity) for e in extremes]
        assert all(abs(b.coverage - e.coverage) <= 5e-7 for b, e in zip(back, extremes))

    def test_unknown_stratum_label(self, synthetic):
        path, _ = synthetic
        extremes = seasonal_blocks(ingest_csv(path), "JJA", "max")
        strata = {e.year: "x" for e in extremes}
        coords = {s: tuple(c) for s, c in zip(STATIONS, COORDS)}
        with pytest.raises(DomainError):
            cell_area_report(extremes, coords, np.array([40.0, 41.0]),
                             np.array([-100.0, -99.0]), strata=strata,
                             base_label="nope")

    def test_strata_csv(self, tmp_path):
        p = tmp_path / "strata.csv"
        p.write_text("year,label\n2000,nino\n2001,nada\n")
        assert read_strata_csv(p) == {2000: "nino", 2001: "nada"}
        p.write_text("year,label\n2000,nino\n2001,nina\n2000,nina\n")
        with pytest.raises(ParseError,
                           match=r"line 4: duplicate year 2000 \(first seen on line 2\)"):
            read_strata_csv(p)

    @pytest.mark.parametrize("label", ["", "  "])
    def test_strata_csv_blank_label(self, tmp_path, label):
        p = tmp_path / "strata.csv"
        p.write_text(f"year,label\n2000,nino\n2001,{label}\n")
        with pytest.raises(ParseError, match="line 3: stratum label of 2001 is empty"):
            read_strata_csv(p)

    @pytest.mark.parametrize("row", ["B,DJF,2001,2.5,1.0,max", "B,JJA,2001,2.5,1.0,negated_min",
                                     "B,DJF,2001,2.5,1.0,negated_min"])
    def test_extremes_csv_mixed_season_or_polarity(self, tmp_path, row):
        p = tmp_path / "extremes.csv"
        p.write_text("station_id,season,year,value,coverage,polarity\n"
                     "A,JJA,2000,1.5,1.0,max\nA,JJA,2001,1.0,1.0,max\nB,JJA,2000,2.5,1.0,max\n"
                     + row + "\n")
        _, season, year, _, _, polarity = row.split(",")
        with pytest.raises(ParseError, match=f"line 5: {season} {polarity} extreme of station B "
                                             f"in {year} among JJA max extremes"):
            read_extremes_csv(p)


# reader, writer, header and rows of each table with station ids, as the
# package writes it; {0} stands for the id of station B, first on line 3
ID_TABLES = {
    "stations": (read_stations_csv, write_stations_csv, "station_id,lat,lon",
                 ["A,40,-100", "{0},41,-101"]),
    "extremes": (read_extremes_csv, write_extremes_csv,
                 "station_id,season,year,value,coverage,polarity",
                 ["A,JJA,2000,1.5,1.000000,max", "{0},JJA,2000,2.5,1.000000,max"]),
    "matrix": (read_matrix_csv, write_matrix_csv, "id1,id2,estimate,stderr,n_pairs",
               ["A,A,1,0,5", "A,{0},0.5,0.125,5", "{0},{0},1,0,5"]),
}


@pytest.mark.parametrize("table", ID_TABLES)
@pytest.mark.parametrize("sid, message", [
    ("", "empty station id"), ("  ", "empty station id"),
    # Python 3.10's csv module rejects the NUL itself, at the same line
    ("B\0", r"(station id 'B\\x00' holds a NUL|.*NUL.*)"),
    (" B ", None), ("B", None)])
def test_one_station_id_rule_for_every_table(tmp_path, table, sid, message):
    # ingest_csv's rule: blanks around an id are stripped, and an empty id
    # or one holding a NUL is refused at its line; the stations table kept
    # a blank id as station '', and the extremes and matrix tables took ids
    # as they stood
    read, write, header, rows = ID_TABLES[table]
    p, out = tmp_path / "in.csv", tmp_path / "out.csv"
    text = "\r\n".join([header, *rows]) + "\r\n"
    p.write_bytes(text.format(sid).encode())
    if message is not None:
        with pytest.raises(ParseError, match=f"^line 3: {message}$"):
            read(p)
        return
    # a file the package writes reads back, and is written again, byte for byte
    write(read(p), out)
    assert out.read_bytes() == text.format("B").encode()


class TestDeterminism:
    def test_pipeline_byte_identical(self, synthetic, tmp_path):
        path, _ = synthetic
        outputs = []
        for run in range(2):
            result = ingest_csv(path)
            extremes = seasonal_blocks(result, "JJA", "max")
            matrix = pairwise_matrix(extremes)
            out = tmp_path / f"matrix_{run}.csv"
            write_matrix_csv(matrix, out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSynthesizeStationCsv:
    @pytest.mark.parametrize("n_stations, n_sites", [(3, 2), (2, 3)])
    def test_sites_must_match_stations(self, tmp_path, n_stations, n_sites):
        model = BrownResnick(FractionalVariogram(scale=1.0, exponent=1.0))
        sites = np.arange(n_sites, dtype=float)[:, None]
        with pytest.raises(DomainError, match=f"{n_sites} sites for {n_stations} stations"):
            synthesize_station_csv(tmp_path / "s.csv", model, STATIONS[:n_stations],
                                   COORDS[:n_stations], range(2000, 2003), SeededRng(1),
                                   sites=sites)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("season, years, message", [
        ("DJF", [2, 1], "DJF year must be a whole number >= 2, got 1"),
        ("JJA", [0], "JJA year must be a whole number >= 1, got 0"),
        ("SON", [9999, 10000], "SON year must be at most 9999, got 10000"),
        ("JJA", [2000.5, 2001], "JJA year must be a whole number >= 1, got 2000.5"),
        ("JJA", [True], "JJA year must be a whole number >= 1, got True")])
    def test_years_the_pipeline_reads(self, tmp_path, season, years, message):
        # a date before year 1 or after 9999 used to end in datetime's bare
        # ValueError, and a fractional year in a bare UFuncTypeError
        with pytest.raises(DomainError, match=re.escape(message)):
            synthesize_station_csv(tmp_path / "s.csv", Logistic(0.5), STATIONS[:2], COORDS[:2],
                                   years, SeededRng(1), season=season)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("coords, message", [
        ([[100.0, 0.0], [1.0, 1.0]], "station latitudes must be finite numbers in [-90, 90], "
                                     "got 100.0"),
        ([[1.0, -181.0], [1.0, 1.0]], "station longitudes must be finite numbers in "
                                      "[-180, 180], got -181.0"),
        ([[math.nan, 0.0], [1.0, 1.0]], "station coordinates must be finite numbers in "
                                        "(-inf, inf), got nan"),
        ([["1", "0"], [1.0, 1.0]], "station coordinates must be finite numbers in "
                                   "(-inf, inf), got [['1', '0'], [1.0, 1.0]]")])
    def test_coordinates_the_pipeline_reads(self, tmp_path, coords, message):
        # such a file was written, and ingest_csv then refused it at its line
        with pytest.raises(DomainError, match=re.escape(message)):
            synthesize_station_csv(tmp_path / "s.csv", Logistic(0.5), STATIONS[:2], coords,
                                   [2000], SeededRng(1))
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("ids, message", [
        (["A", "A"], "station id 'A' is repeated"),
        (["A", " B"], "station id ' B' does not read back as itself"),
        (["A", ""], "empty station id"),
        (["A", "B\0"], "station id 'B\\x00' holds a NUL"),
        (["A", 2], "station id 2 does not read back as itself")])
    def test_station_ids_the_pipeline_reads(self, tmp_path, ids, message):
        # ['A', 'A'] used to write a file that ingest_csv refused at line 94
        # with a duplicate date for station A
        with pytest.raises(DomainError, match=re.escape(message)):
            synthesize_station_csv(tmp_path / "s.csv", Logistic(0.5), ids, COORDS[:2],
                                   [2000], SeededRng(1))
        assert not (tmp_path / "s.csv").exists()

    def test_utf8_in_an_ascii_locale(self, tmp_path):
        # the file is UTF-8 whatever the locale's encoding, and reads back;
        # the script is ASCII, as the interpreter decodes it in that locale
        path = tmp_path / "s.csv"
        script = ("import sys\n"
                  "from concur import Logistic, SeededRng\n"
                  "from concur.pipeline import ingest_csv\n"
                  "from concur.synthetic import synthesize_station_csv\n"
                  "synthesize_station_csv(sys.argv[1], Logistic(0.5), ['Z\\u00fcrich', 'B'],\n"
                  "                       [[47.4, 8.5], [46.9, 7.4]], range(2000, 2002),\n"
                  "                       SeededRng(1))\n"
                  "print(ascii(list(ingest_csv(sys.argv[1]).missing_report)))\n")
        src = str(Path(concur.__file__).parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['Z\\xfcrich', 'B']\n"
        assert path.read_bytes().count("Zürich,".encode("utf-8")) == 2 * 92   # two summers


class _FileWrites(ast.NodeVisitor):
    """Names of the functions of a module that open a file to write: a call
    of ``open`` or ``.open`` whose mode holds w, a, x or + or is not a
    literal, or of ``.write_text`` or ``.write_bytes``."""

    def __init__(self):
        self.scope, self.found = ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            # open(file, mode) or path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not re.search("[wax+]", mode.value)):
                self.found.add(self.scope[-1])
        elif name in ("write_text", "write_bytes"):
            self.found.add(self.scope[-1])
        self.generic_visit(node)


def test_one_function_opens_files_to_write():
    # every file the package writes is UTF-8 because one helper opens them all
    writers = set()
    for path in sorted(Path(concur.__file__).parent.glob("*.py")):
        finder = _FileWrites()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        writers |= {f"{path.stem}.{name}" for name in finder.found}
    assert writers == {"pipeline._open_csv"}
