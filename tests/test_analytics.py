import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrace import analytics
from contrace.analytics import (CrossingRow, GROUP_BY_AS, GROUP_BY_COUNTRY,
                                bucket_rtt_series, crossing_table,
                                export_route_graph, hop_count_stats, link_shares,
                                mean_rtt_cdf, nearest_rank)
from contrace.enrich import EnrichedHop, GeoLocation
from contrace.icmp import Family
from contrace.probe import RelationKey
from contrace.records import Hop, PingRecord, TracerouteRun

import oracles
from conftest import path_runs, ping_columns

HOUR = 3_600_000_000
T0 = 1_609_459_200_000_000  # 2021-01-01T00:00:00Z

RELATION = RelationKey(Family.V4, "SUNET", "Uninett", "10.1.0.1", "10.3.0.9")

# enrichment fixture: 10.<n>.x.y -> AS by second octet
_AS_BY_OCTET = {1: (1653, "SUNET"), 2: (2603, "NORDUNET"), 3: (224, "UNINETT")}
_COUNTRY_BY_OCTET = {1: "SE", 2: "DK", 3: "NO"}
_COORD_BY_OCTET = {1: (59.40, 13.51), 2: (55.68, 12.57), 3: (63.43, 10.40)}


def enrich_fixture(address: str) -> EnrichedHop:
    octet = int(address.split(".")[1])
    asn, name = _AS_BY_OCTET.get(octet, (None, None))
    geo = None
    if octet in _COORD_BY_OCTET:
        lat, lon = _COORD_BY_OCTET[octet]
        geo = GeoLocation(lat, lon, _COUNTRY_BY_OCTET[octet], 5.0, "fixture")
    return EnrichedHop(address, asn, name, geo)


def enrich_no_geo(address: str) -> EnrichedHop:
    octet = int(address.split(".")[1])
    asn, name = _AS_BY_OCTET.get(octet, (None, None))
    return EnrichedHop(address, asn, name, None)


def make_run(addresses, ts=T0, rnd=0, rtt_step=1000, last_is_reply=True):
    """Run whose hops are the given addresses (None = unresponsive hop)."""
    hops = []
    for i, addr in enumerate(addresses):
        number = i + 1
        if addr is None:
            hops.append(Hop(number, 0))
        elif last_is_reply and i == len(addresses) - 1:
            hops.append(Hop(number, 255, addr, rtt_step * number))
        else:
            hops.append(Hop(number, 1, addr, rtt_step * number))
    return TracerouteRun(ts, RELATION.source_address, RELATION.destination_address,
                         rnd, tuple(hops))


class TestNearestRank:
    def test_spec_examples(self):
        values = list(range(1, 101))  # 1..100 ms
        assert nearest_rank(values, 1, 10) == 10
        assert nearest_rank(values, 9, 10) == 90

    def test_median_of_five(self):
        assert nearest_rank([14, 14, 15, 15, 15], 1, 2) == 15

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=300),
           st.sampled_from([(1, 10), (1, 2), (9, 10), (1, 4), (3, 4)]))
    def test_against_fraction_oracle(self, values, p):
        ordered = sorted(values)
        assert nearest_rank(ordered, *p) == oracles.nearest_rank_reference(values, *p)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=300))
    def test_quantile_sandwich(self, values):
        ordered = sorted(values)
        q10 = nearest_rank(ordered, 1, 10)
        q50 = nearest_rank(ordered, 1, 2)
        q90 = nearest_rank(ordered, 9, 10)
        assert ordered[0] <= q10 <= q50 <= q90 <= ordered[-1]


class TestBucketSeries:
    def test_constant_series(self):
        recs = [PingRecord(T0 + i * 1_000_000, "10.1.0.1", "10.3.0.9", 255, 10_000)
                for i in range(100)]
        series = bucket_rtt_series(ping_columns(recs))
        assert len(series) == 1
        b = series[0]
        assert (b.count, b.mean_ms, b.min_ms, b.q10_ms, b.q90_ms) == \
            (100, 10.0, 10.0, 10.0, 10.0)

    def test_1_to_100_ms_quantiles(self):
        recs = [PingRecord(T0 + i, "10.1.0.1", "10.3.0.9", 255, (i + 1) * 1000)
                for i in range(100)]
        b = bucket_rtt_series(ping_columns(recs))[0]
        assert b.q10_ms == 10.0
        assert b.q90_ms == 90.0

    def test_hour_boundary_splits_counts(self):
        recs = [PingRecord(T0 + HOUR - 2 + i, "10.1.0.1", "10.3.0.9", 255, 5000)
                for i in range(4)]
        series = bucket_rtt_series(ping_columns(recs))
        assert [b.count for b in series] == [2, 2]
        assert series[0].bucket_start_us == T0
        assert series[1].bucket_start_us == T0 + HOUR

    def test_empty_input(self):
        assert bucket_rtt_series(ping_columns([])) == []

    def test_timeouts_do_not_contribute(self):
        recs = [PingRecord(T0, "10.1.0.1", "10.3.0.9", 0),
                PingRecord(T0 + 1, "10.1.0.1", "10.3.0.9", 255, 7000)]
        series = bucket_rtt_series(ping_columns(recs))
        assert series[0].count == 1

    def test_matches_oracle_on_random_records(self):
        rng = random.Random(42)
        recs = [PingRecord(T0 + rng.randrange(0, 50 * HOUR), "10.1.0.1",
                           "10.3.0.9", 255, rng.randrange(1000, 300_000))
                for _ in range(3000)]
        series = bucket_rtt_series(ping_columns(recs))
        expected = oracles.bucket_series_reference(recs, HOUR)
        assert len(series) == len(expected)
        for b in series:
            count, mean, mn, q10, q90 = expected[b.bucket_start_us]
            assert (b.count, b.mean_ms, b.min_ms, b.q10_ms, b.q90_ms) == \
                (count, mean, mn, q10, q90)

    def test_partition_consistency(self):
        rng = random.Random(17)
        recs = [PingRecord(T0 + rng.randrange(0, 5 * HOUR), "10.1.0.1",
                           "10.3.0.9", 255, rng.randrange(1000, 99_000))
                for _ in range(500)]
        whole = bucket_rtt_series(ping_columns(recs))
        rng.shuffle(recs)
        again = bucket_rtt_series(ping_columns(recs))
        assert whole == again


class TestCdf:
    def test_single_bucket_single_step(self):
        recs = [PingRecord(T0 + i, "10.1.0.1", "10.3.0.9", 255, 12_000)
                for i in range(10)]
        cdf = mean_rtt_cdf(ping_columns(recs))
        assert cdf == {2021: [(12.0, 1.0)]}

    def test_two_bucket_steps(self):
        recs = [PingRecord(T0 + 1, "10.1.0.1", "10.3.0.9", 255, 10_000),
                PingRecord(T0 + HOUR + 1, "10.1.0.1", "10.3.0.9", 255, 20_000)]
        cdf = mean_rtt_cdf(ping_columns(recs))
        assert cdf[2021] == [(10.0, 0.5), (20.0, 1.0)]

    def test_years_separated(self):
        year_us = 366 * 24 * HOUR
        recs = [PingRecord(T0 + 1, "10.1.0.1", "10.3.0.9", 255, 10_000),
                PingRecord(T0 + year_us, "10.1.0.1", "10.3.0.9", 255, 30_000)]
        cdf = mean_rtt_cdf(ping_columns(recs))
        assert set(cdf) == {2021, 2022}

    def test_full_year_matches_sort_oracle(self):
        rng = random.Random(8760)
        recs = []
        for hour in range(2000):
            base = T0 + hour * HOUR
            for _ in range(3):
                recs.append(PingRecord(base + rng.randrange(HOUR), "10.1.0.1",
                                       "10.3.0.9", 255, rng.randrange(5000, 80_000)))
        cdf = mean_rtt_cdf(ping_columns(recs))
        means = [b.mean_ms for b in bucket_rtt_series(ping_columns(recs))
                 if analytics._year_of(b.bucket_start_us) == 2021]
        assert cdf[2021] == oracles.ecdf_reference(means)
        ys = [y for _x, y in cdf[2021]]
        assert ys == sorted(ys) and ys[-1] == 1.0


class TestLinkShares:
    def test_full_share(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"], ts=T0 + i)
                for i in range(10)]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        assert {(o.from_hop.address, o.to_hop.address): o.share for o in obs} == {
            ("10.1.0.2", "10.2.0.2"): 100.0,
            ("10.2.0.2", "10.3.0.9"): 100.0,
        }

    def test_rare_link_survives_point1_threshold(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"], ts=T0 + i)
                for i in range(999)]
        runs.append(make_run(["10.1.0.2", "10.2.0.7", "10.3.0.9"], ts=T0 + 999))
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        rare = [o for o in obs if o.to_hop.address == "10.2.0.7"
                or (o.from_hop.address == "10.2.0.7")]
        assert all(o.share == pytest.approx(0.1) for o in rare)
        kept = [o for o in obs if o.share >= 0.1]
        assert all(o in kept for o in rare)

    def test_unresponsive_hop_breaks_chain(self):
        runs = [make_run(["10.1.0.2", None, "10.3.0.9"])]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        assert obs == []

    def test_duplicate_link_in_one_run_counts_once(self):
        # the same link address pair appearing twice still counts one run
        hops = (Hop(1, 1, "10.1.0.2", 100), Hop(2, 1, "10.2.0.2", 200),
                Hop(3, 1, "10.1.0.2", 300), Hop(4, 1, "10.2.0.2", 400),
                Hop(5, 255, "10.3.0.9", 500))
        runs = [TracerouteRun(T0, RELATION.source_address,
                              RELATION.destination_address, 0, hops)]
        grouped = path_runs(runs)
        obs = link_shares(grouped, RELATION, enrich_fixture)
        pair = next(o for o in obs
                    if (o.from_hop.address, o.to_hop.address) == ("10.1.0.2", "10.2.0.2"))
        assert pair.runs_observed == 1
        # destination-side sample comes from the earliest occurrence
        assert {path: list(grouped.rtt_column(path, position))
                for path, position in pair.positions.items()} == {0: [200]}

    def test_totals_include_unresponsive_runs(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"]),
                make_run([None, None, None], last_is_reply=False)]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        assert all(o.runs_total == 2 and o.share == 50.0 for o in obs)


class TestCrossingTable:
    def test_all_hops_one_as_empty(self):
        runs = [make_run(["10.1.0.2", "10.1.0.3", "10.1.0.4"]) for _ in range(5)]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        assert crossing_table(obs, GROUP_BY_AS) == []

    def test_crossing_asymmetry(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.1.0.9", "10.3.0.9"])]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        rows = crossing_table(obs, GROUP_BY_COUNTRY, threshold_percent=0.0)
        pairs = {(r.from_group, r.to_group) for r in rows}
        assert ("SE", "DK") in pairs and ("DK", "SE") in pairs

    def test_unknown_group_breaks_chain(self):
        # 10.77.x.y has no AS mapping: crossings through it vanish
        runs = [make_run(["10.1.0.2", "10.77.0.1", "10.3.0.9"])]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        rows = crossing_table(obs, GROUP_BY_AS, threshold_percent=0.0)
        assert rows == []

    def test_share_counts_runs_not_links(self):
        # two distinct SUNET->NORDUNET address links in one run: one crossing
        hops = (Hop(1, 1, "10.1.0.2", 100), Hop(2, 1, "10.2.0.2", 5000),
                Hop(3, 1, "10.1.0.3", 300), Hop(4, 1, "10.2.0.3", 9000),
                Hop(5, 255, "10.3.0.9", 500))
        runs = [TracerouteRun(T0, RELATION.source_address,
                              RELATION.destination_address, 0, hops)]
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        rows = crossing_table(obs, GROUP_BY_AS, threshold_percent=0.0)
        row = next(r for r in rows if r.to_group == "2603: NORDUNET")
        assert row.share == 100.0
        # earliest destination-side hop provides the RTT sample
        assert row.mean_rtt_ms == 5.0

    def test_threshold_filters_rows(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"], ts=T0 + i)
                for i in range(99)]
        runs.append(make_run(["10.1.0.2", "10.1.0.3", "10.3.0.9"], ts=T0 + 99))
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        all_rows = crossing_table(obs, GROUP_BY_AS, threshold_percent=0.0)
        filtered = crossing_table(obs, GROUP_BY_AS, threshold_percent=2.0)
        assert {(r.from_group, r.to_group) for r in all_rows} > \
            {(r.from_group, r.to_group) for r in filtered}
        assert all(r.share >= 2.0 for r in filtered)
        # monotone: raising the threshold never adds rows
        assert len(filtered) <= len(all_rows)

    def test_matches_brute_force_on_synthetic_runs(self):
        rng = random.Random(20)
        runs = []
        for i in range(20):
            chain = ["10.1.0.2"]
            if rng.random() < 0.8:
                chain.append(f"10.2.0.{rng.randrange(2, 5)}")
            if rng.random() < 0.3:
                chain.append(None)
            chain.append("10.3.0.9")
            runs.append(make_run(chain, ts=T0 + i))
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        rows = crossing_table(obs, GROUP_BY_AS, threshold_percent=0.0)

        def group_of(address):
            octet = int(address.split(".")[1])
            got = _AS_BY_OCTET.get(octet)
            return f"{got[0]}: {got[1]}" if got else None

        expected = oracles.crossing_reference(runs, group_of)
        assert {(r.from_group, r.to_group) for r in rows} == set(expected)
        for row in rows:
            samples = list(expected[(row.from_group, row.to_group)].values())
            assert row.share == 100.0 * len(samples) / len(runs)
            assert row.mean_rtt_ms == oracles.mean_ms_reference(samples)

    def test_table2_style_fixture_two_decimals(self):
        # 9941 of 10000 runs cross SUNET->NORDUNET; destination-side samples
        # are built so nearest-rank stats round to (13.80, 11.76, 14.32).
        runs = []
        for i in range(9941):
            if i < 995:
                rtt = 11_760
            elif i >= 9941 - 995:
                rtt = 14_320
            else:
                rtt = 13_990
            hops = (Hop(1, 1, "10.1.0.2", 1000), Hop(2, 1, "10.2.0.2", rtt),
                    Hop(3, 255, "10.3.0.9", 20_000))
            runs.append(TracerouteRun(T0 + i, RELATION.source_address,
                                      RELATION.destination_address, 0, hops))
        for i in range(59):
            runs.append(make_run(["10.1.0.2", "10.1.0.3"], ts=T0 + 9941 + i))
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        rows = crossing_table(obs, GROUP_BY_AS, threshold_percent=0.1)
        row = next(r for r in rows if r.to_group == "2603: NORDUNET")
        assert f"{row.share:.2f}" == "99.41"
        assert f"{row.mean_rtt_ms:.2f}" == "13.80"
        assert f"{row.q10_rtt_ms:.2f}" == "11.76"
        assert f"{row.q90_rtt_ms:.2f}" == "14.32"


class TestHopCountStats:
    def test_hand_computed(self):
        runs = [make_run(["10.1.0.2"] * (n - 1) + ["10.3.0.9"], ts=T0 + i)
                for i, n in enumerate([14, 14, 15, 15, 15])]
        stats = hop_count_stats(path_runs(runs), RELATION)
        assert stats.min == 14
        assert stats.median == 15.0
        assert stats.mean == pytest.approx(14.6)

    def test_table4_fixture(self):
        # 34 runs of 14 hops, 66 of 15: min 14, q10 14.00, mean 14.66,
        # median 15.00, q90 15.00
        lengths = [14] * 34 + [15] * 66
        runs = [make_run(["10.1.0.2"] * (n - 1) + ["10.3.0.9"], ts=T0 + i)
                for i, n in enumerate(lengths)]
        stats = hop_count_stats(path_runs(runs), RELATION)
        assert (stats.min, stats.q10, stats.mean, stats.median, stats.q90) == \
            (14, 14.0, 14.66, 15.0, 15.0)

    def test_incomplete_runs_do_not_contribute(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2"], last_is_reply=False),
                make_run(["10.1.0.2", "10.3.0.9"])]
        stats = hop_count_stats(path_runs(runs), RELATION)
        assert stats.min == stats.q90 == 2

    def test_no_complete_runs(self):
        runs = [make_run(["10.1.0.2"], last_is_reply=False)]
        assert hop_count_stats(path_runs(runs), RELATION) is None

    def test_matches_oracle_on_random_runs(self):
        rng = random.Random(1000)
        runs = []
        for i in range(1000):
            n = rng.randrange(3, 30)
            complete = rng.random() < 0.9
            runs.append(make_run(["10.1.0.2"] * (n - 1) + ["10.3.0.9"],
                                 ts=T0 + i, last_is_reply=complete))
        stats = hop_count_stats(path_runs(runs), RELATION)
        expected = oracles.hop_count_reference(runs)
        assert (stats.min, stats.q10, stats.mean, stats.median, stats.q90) == expected


class TestRendering:
    def test_crossing_rows_format(self):
        row = CrossingRow("IPv4", "SUNET", "Uninett", "1653: SUNET",
                          "2603: NORDUNET", 13.80, 11.755, 14.325, 99.41)
        csv_doc = analytics.format_crossing_table([row], "csv")
        assert csv_doc.splitlines()[0] == "IP,From ISP,To ISP,From,To,Mean,Q10%,Q90%,%"
        # half-even rounding: 11.755 -> 11.76 (stored as shown), 14.325 -> 14.32
        assert "13.80" in csv_doc and "99.41" in csv_doc
        text_doc = analytics.format_crossing_table([row], "text")
        assert "1653: SUNET" in text_doc

    def test_hop_stats_format(self):
        stats = hop_count_stats(path_runs(
            [make_run(["10.1.0.2"] * 13 + ["10.3.0.9"], ts=T0 + i)
             for i in range(34)] +
            [make_run(["10.1.0.2"] * 14 + ["10.3.0.9"], ts=T0 + 100 + i)
             for i in range(66)]),
            RELATION)
        doc = analytics.format_hop_stats([stats], "csv")
        assert doc.splitlines()[1] == "IPv4,SUNET,Uninett,14,14.00,14.66,15.00,15.00"

    def test_bucket_series_csv(self):
        recs = [PingRecord(T0 + i, "10.1.0.1", "10.3.0.9", 255, 10_000)
                for i in range(3)]
        doc = analytics.format_bucket_series(bucket_rtt_series(ping_columns(recs)))
        assert doc.splitlines()[1] == f"{T0},3,10.00,10.00,10.00,10.00"


class TestGraphExport:
    def _observations(self):
        runs = [make_run(["10.1.0.2", "10.1.0.3", "10.2.0.2", "10.3.0.9"],
                         ts=T0 + i) for i in range(100)]
        return link_shares(path_runs(runs), RELATION, enrich_fixture)

    def test_inter_vs_intra_styles(self):
        doc = export_route_graph(self._observations(), 0.1, "dot").document
        intra = next(l for l in doc.splitlines() if '"10.1.0.2" -> "10.1.0.3"' in l)
        inter = next(l for l in doc.splitlines() if '"10.1.0.3" -> "10.2.0.2"' in l)
        assert "style=solid" in intra
        assert "style=dashed" in inter

    def test_style_flag_swaps(self):
        doc = export_route_graph(self._observations(), 0.1, "dot",
                                 dashed_inter_as=False).document
        inter = next(l for l in doc.splitlines() if '"10.1.0.3" -> "10.2.0.2"' in l)
        assert "style=solid" in inter

    def test_below_threshold_edge_absent(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"], ts=T0 + i)
                for i in range(1999)]
        runs.append(make_run(["10.1.0.2", "10.2.0.7", "10.3.0.9"], ts=T0 + 1999))
        obs = link_shares(path_runs(runs), RELATION, enrich_fixture)
        doc = export_route_graph(obs, 0.1, "dot").document
        assert "10.2.0.7" not in doc  # share 0.05 % < 0.1 %

    def test_deterministic_output(self):
        obs = self._observations()
        a = export_route_graph(obs, 0.1, "dot")
        b = export_route_graph(list(reversed(obs)), 0.1, "dot")
        assert a.document == b.document

    def test_geojson_contains_coordinates(self):
        import json as _json
        doc = export_route_graph(self._observations(), 0.1, "geojson").document
        parsed = _json.loads(doc)
        kinds = {f["geometry"]["type"] for f in parsed["features"]}
        assert kinds == {"Point", "LineString"}

    def test_unlocatable_nodes_reported_not_dropped(self):
        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"], ts=T0 + i)
                for i in range(10)]
        obs = link_shares(path_runs(runs), RELATION, enrich_no_geo)
        export = export_route_graph(obs, 0.1, "geojson")
        assert set(export.unlocatable) == {"10.1.0.2", "10.2.0.2", "10.3.0.9"}
        # dot still renders them
        dot = export_route_graph(obs, 0.1, "dot")
        assert "10.1.0.2" in dot.document

    def test_csv_edges(self):
        doc = export_route_graph(self._observations(), 0.1, "csv").document
        lines = doc.splitlines()
        assert lines[0] == "from,to,share_percent,inter_as,from_as,to_as"
        assert any("10.1.0.3,10.2.0.2,100.00,true" in l for l in lines)

    def test_thickness_log_mapping(self):
        assert analytics.edge_thickness(0.1) == pytest.approx(1.0)
        assert analytics.edge_thickness(100.0) == pytest.approx(4.0)
        assert analytics.edge_thickness(1.0) == pytest.approx(2.0)


# Runs of few distinct paths, many runs each: timeouts, links repeated
# within a run, an address no grouping attributes (10.77.x.y), and runs
# that never reach the destination.
PATH_ADDRESSES = ["10.1.0.2", "10.1.0.3", "10.2.0.2", "10.2.0.3", "10.77.0.1", "10.3.0.9"]


@st.composite
def few_path_runs(draw):
    shapes = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(PATH_ADDRESSES + [None]), min_size=1,
                           max_size=8),
                  st.booleans()),
        min_size=1, max_size=4))
    rng = draw(st.randoms(use_true_random=False))
    runs = []
    for i in range(draw(st.integers(1, 80))):
        addresses, complete = shapes[rng.randrange(len(shapes))]
        hops = []
        for number, address in enumerate(addresses, 1):
            if address is None:
                hops.append(Hop(number, 0))
            else:
                last = complete and number == len(addresses)
                hops.append(Hop(number, 255 if last else 1, address,
                                rng.randrange(0, 200_000)))
        runs.append(TracerouteRun(T0 + i, RELATION.source_address,
                                  RELATION.destination_address, 0, tuple(hops)))
    return runs


def _as_group(address):
    got = _AS_BY_OCTET.get(int(address.split(".")[1]))
    return f"{got[0]}: {got[1]}" if got else None


def _country(address):
    return _COUNTRY_BY_OCTET.get(int(address.split(".")[1]))


class TestPathLevelAgainstRunOracles:
    """Analytics over PathRuns equal the brute-force oracles over the runs."""

    @settings(max_examples=200, deadline=None)
    @given(runs=few_path_runs())
    def test_link_shares(self, runs):
        seen, total = oracles.link_share_reference(runs)
        observations = link_shares(path_runs(runs), RELATION, enrich_fixture)
        assert {(o.from_hop.address, o.to_hop.address): o.runs_observed
                for o in observations} == {link: len(idx) for link, idx in seen.items()}
        assert all(o.runs_total == total for o in observations)

    @settings(max_examples=200, deadline=None)
    @given(runs=few_path_runs())
    def test_crossings(self, runs):
        observations = link_shares(path_runs(runs), RELATION, enrich_fixture)
        for group_by, group_of in ((GROUP_BY_AS, _as_group), (GROUP_BY_COUNTRY, _country)):
            rows = crossing_table(observations, group_by, threshold_percent=0.0)
            expected = oracles.crossing_reference(runs, group_of)
            assert {(r.from_group, r.to_group) for r in rows} == set(expected)
            for row in rows:
                samples = sorted(expected[row.from_group, row.to_group].values())
                assert row.share == 100.0 * len(samples) / len(runs)
                assert (row.mean_rtt_ms, row.q10_rtt_ms, row.q90_rtt_ms) == (
                    oracles.mean_ms_reference(samples),
                    oracles.nearest_rank_reference(samples, 1, 10) / 1000.0,
                    oracles.nearest_rank_reference(samples, 9, 10) / 1000.0)

    @settings(max_examples=200, deadline=None)
    @given(runs=few_path_runs())
    def test_hop_counts(self, runs):
        stats = hop_count_stats(path_runs(runs), RELATION)
        expected = oracles.hop_count_reference(runs)
        if expected is None:
            assert stats is None
        else:
            assert (stats.min, stats.q10, stats.mean, stats.median, stats.q90) == expected

    def test_per_hop_work_is_done_once_per_path(self):
        calls = []

        def counting(address):
            calls.append(address)
            return enrich_fixture(address)

        runs = [make_run(["10.1.0.2", "10.2.0.2", "10.3.0.9"], ts=T0 + i)
                for i in range(500)]
        grouped = path_runs(runs)
        assert len(grouped) == 500 and len(grouped.paths) == 1
        observations = link_shares(grouped, RELATION, counting)
        assert sorted(calls) == ["10.1.0.2", "10.2.0.2", "10.2.0.2", "10.3.0.9"]
        assert [o.runs_observed for o in observations] == [500, 500]
