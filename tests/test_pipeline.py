"""Station-data pipeline: ingestion, blocking, matrices, maps, cells."""

import math

import numpy as np
import pytest

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
    read_matrix_csv,
    read_strata_csv,
    seasonal_blocks,
    write_matrix_csv,
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
        assert result.records[1].tmin is None
        assert result.records[2].tmin is None
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
        assert np.allclose(back.estimates, matrix.estimates, equal_nan=True)


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

    def test_empty_grid_and_too_few_stations(self):
        with pytest.raises(DomainError):
            grid_map(COORDS, np.full(4, 0.5), np.array([]), np.array([1.0]))
        with pytest.raises(DomainError):
            grid_map(COORDS[:2], np.full(2, 0.5), np.array([40.0]), np.array([-100.0]))

    def test_cos_lat_weights(self):
        w = cos_lat_weights(np.array([0.0, 1.0]), np.array([10.0, 11.0]))
        assert w[0] == pytest.approx(1.0)
        assert w.shape == (4,)


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
