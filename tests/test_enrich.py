import http.server
import io
import ipaddress
import json
import math
import random
import threading
import urllib.error
import urllib.response

import pytest

from contrace import enrich
from contrace.enrich import (GEO_ACCEPT_KM, AsEntry, AsnTable, CsvGeoProvider, GeoLocation,
                             GeoResolver, HttpGeoProvider, ProviderUnavailable,
                             Unlocatable, haversine_km, plausibility_filter)

from oracles import great_circle_reference


class FakeUrlopen:
    """Stands in for urllib.request.urlopen: every request gets status and
    body (a JSON document, or bytes), as a response for a 200 and as an
    HTTPError otherwise. requests holds each request's URL and headers."""

    def __init__(self, status, doc=None, body=None):
        self.status = status
        self.body = json.dumps(doc).encode() if body is None else body
        self.requests = []

    def __call__(self, request, timeout=None):
        self.requests.append((request.full_url, dict(request.header_items())))
        if self.status != 200:
            raise urllib.error.HTTPError(request.full_url, self.status, "error", {}, None)
        return urllib.response.addinfourl(io.BytesIO(self.body), {}, request.full_url,
                                          self.status)


def entry(prefix, asn, name="X"):
    return AsEntry(ipaddress.ip_network(prefix), asn, name)


class TestAsnLookup:
    def test_longest_prefix_wins(self):
        table = AsnTable([entry("10.0.0.0/8", 100), entry("10.1.0.0/16", 200)])
        assert table.lookup("10.1.2.3")[0] == 200
        assert table.lookup("10.2.2.3")[0] == 100

    def test_outside_all_prefixes(self):
        table = AsnTable([entry("10.0.0.0/8", 100)])
        assert table.lookup("192.0.2.1") is None

    def test_insertion_order_irrelevant(self):
        a = AsnTable([entry("10.0.0.0/8", 1), entry("10.1.0.0/16", 2),
                      entry("10.1.2.0/24", 3)])
        b = AsnTable([entry("10.1.2.0/24", 3), entry("10.0.0.0/8", 1),
                      entry("10.1.0.0/16", 2)])
        for addr in ("10.1.2.9", "10.1.9.9", "10.9.9.9"):
            assert a.lookup(addr) == b.lookup(addr)

    def test_v6_lookup(self):
        table = AsnTable([entry("2001:db8::/32", 64512, "TESTNET")])
        assert table.lookup("2001:db8::1") == (64512, "TESTNET")
        assert table.lookup("2001:db9::1") is None

    def test_paper_style_names_render(self, tmp_path):
        (tmp_path / "prefixes.csv").write_text(
            "10.1.0.0/16,1653\n10.2.0.0/16,2603\n10.3.0.0/16,224\n"
            "10.4.0.0/16,2116\n10.5.0.0/16,12552\n10.6.0.0/16,680\n"
            "10.7.0.0/16,20965\n10.8.0.0/16,1299\n")
        (tmp_path / "names.csv").write_text(
            "1653,SUNET\n2603,NORDUNET\n224,UNINETT\n2116,GLOBALCONNECT\n"
            "12552,IPO-EU\n680,DFN\n20965,GEANT\n1299,TWELVE99\n")
        table = AsnTable.from_csv(tmp_path / "prefixes.csv", tmp_path / "names.csv")
        enricher = enrich.Enricher(table)
        assert enricher.enrich("10.1.0.1").as_group == "1653: SUNET"
        assert enricher.enrich("10.2.44.5").as_group == "2603: NORDUNET"
        assert enricher.enrich("10.3.0.9").as_group == "224: UNINETT"

    def test_missing_name_gets_placeholder(self, tmp_path):
        (tmp_path / "prefixes.csv").write_text("10.0.0.0/8,65000\n")
        table = AsnTable.from_csv(tmp_path / "prefixes.csv")
        assert table.lookup("10.0.0.1") == (65000, "AS65000")

    @pytest.mark.parametrize("prefixes, names, bad_file, line", [
        ("# prefix,asn\n10.0.0.0/8\n", "1,ONE\n", "prefixes.csv", 2),
        ("10.0.0.0/8,1\n10.0.0.x/16,2\n", "1,ONE\n", "prefixes.csv", 2),
        ("10.0.0.0/8,1\n\n10.1.0.0/16,AS2\n", "1,ONE\n", "prefixes.csv", 3),
        ("10.0.0.0/8,1\n", "1,ONE\n2\n", "names.csv", 2),
        ("10.0.0.0/8,1\n", "one,ONE\n", "names.csv", 1),
    ], ids=["prefix-without-asn", "bad-prefix", "bad-asn", "name-without-asn",
            "bad-asn-in-names"])
    def test_malformed_row_names_file_and_line(self, tmp_path, prefixes, names,
                                                bad_file, line):
        (tmp_path / "prefixes.csv").write_text(prefixes)
        (tmp_path / "names.csv").write_text(names)
        with pytest.raises(ValueError) as info:
            AsnTable.from_csv(tmp_path / "prefixes.csv", tmp_path / "names.csv")
        assert str(info.value).startswith(f"{tmp_path / bad_file}:{line}: ")


class _StubProvider:
    def __init__(self, name, result, fail=False):
        self.name = name
        self.result = result
        self.fail = fail
        self.calls = 0

    def locate(self, address):
        self.calls += 1
        if self.fail:
            raise ProviderUnavailable("down")
        return self.result


class TestGeoResolver:
    def test_error_threshold_rule(self):
        coarse = _StubProvider("a", GeoLocation(59.0, 13.0, "SE", 30.0, "a"))
        fine = _StubProvider("b", GeoLocation(59.4, 13.5, "SE", 5.0, "b"))
        resolver = GeoResolver([coarse, fine])
        got = resolver.resolve("10.0.0.1")
        assert got is not None and got.provider == "b"

    def test_all_providers_fail_gives_none(self):
        resolver = GeoResolver([_StubProvider("a", None, fail=True),
                                _StubProvider("b", None)])
        assert resolver.resolve("10.0.0.1") is None

    def test_an_error_beyond_the_accept_distance_is_rejected(self):
        within, edge, beyond = (GeoLocation(10.0, 20.0, "DE", error_km, "a")
                                for error_km in (20.0, GEO_ACCEPT_KM, GEO_ACCEPT_KM + 0.5))
        assert GeoResolver([_StubProvider("a", within)]).resolve("x") == within
        assert GeoResolver([_StubProvider("a", edge)]).resolve("x") == edge
        assert GeoResolver([_StubProvider("a", beyond)]).resolve("x") is None

    def test_csv_provider(self, tmp_path):
        (tmp_path / "geo.csv").write_text(
            "10.0.0.1,59.4022,13.5115,SE,3.0\n"
            "2001:db8::1,63.4305,10.3951,NO,1.5\n")
        provider = CsvGeoProvider(tmp_path / "geo.csv")
        got = provider.locate("10.0.0.1")
        assert got.country == "SE" and got.estimated_error_km == 3.0
        assert provider.locate("2001:DB8::1").country == "NO"
        assert provider.locate("10.9.9.9") is None

    @pytest.mark.parametrize("row", ["10.22.2.10,1.0", "10.22.2.10,1.0,x,NO,1.0",
                                     "10.22.2.x,1.0,2.0,NO,1.0",
                                     "10.22.2.10,91.0,2.0,NO,1.0"])
    def test_csv_provider_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "geo.csv"
        path.write_text(f"# address,lat,lon,country,error_km\n10.0.0.1,1.0,2.0,SE,3.0\n{row}\n")
        with pytest.raises(ValueError) as info:
            CsvGeoProvider(path)
        assert str(info.value).startswith(f"{path}:3: ")

    def test_http_provider_parses_and_reports_unavailable(self):
        ok = FakeUrlopen(200, {"lat": 1.0, "lon": 2.0, "country": "SE", "error_km": 4.0})
        provider = HttpGeoProvider("http://geo.test/api", urlopen=ok)
        got = provider.locate("10.0.0.1")
        assert got.country == "SE"
        assert ok.requests[0][0] == "http://geo.test/api/10.0.0.1"

        down = FakeUrlopen(503)
        with pytest.raises(ProviderUnavailable):
            HttpGeoProvider("http://geo.test/api", urlopen=down).locate("10.0.0.1")

        missing = FakeUrlopen(404)
        assert HttpGeoProvider("http://geo.test/api",
                               urlopen=missing).locate("10.0.0.1") is None

    def test_http_provider_transport_error_is_unavailable(self):
        def unreachable(request, timeout=None):
            raise urllib.error.URLError("connection refused")

        with pytest.raises(ProviderUnavailable):
            HttpGeoProvider("http://geo.test/api", urlopen=unreachable).locate("10.0.0.1")

    @pytest.mark.parametrize("body", [
        '{}', '[]', '{"lat": 1.0}', '{"lat": "1.0", "lon": 2.0, "country": "SE"}',
        '{"lat": 1.0, "lon": 2.0, "country": 7}', '{"lat": 95.0, "lon": 2.0, "country": "SE"}',
        '{"lat": 1.0, "lon": 2.0, "country": "SE", "error_km": null}', '<html>'])
    def test_http_provider_bad_body_is_unavailable(self, body):
        provider = HttpGeoProvider("http://geo.test/api",
                                   urlopen=FakeUrlopen(200, body=body.encode()))
        with pytest.raises(ProviderUnavailable):
            provider.locate("10.0.0.1")
        fallback = _StubProvider("b", GeoLocation(1.0, 2.0, "NO", 1.0, "b"))
        assert GeoResolver([provider, fallback]).resolve("10.0.0.1").provider == "b"

    def test_http_provider_token_from_env(self, monkeypatch):
        urlopen = FakeUrlopen(404)
        monkeypatch.setenv("MY_GEO_TOKEN", "sekrit")
        HttpGeoProvider("http://x", token_env="MY_GEO_TOKEN",
                        urlopen=urlopen).locate("10.0.0.1")
        assert urlopen.requests[0][1] == {"Authorization": "Bearer sekrit"}

    def test_http_provider_over_a_local_server(self, monkeypatch):
        """The default urlopen against an HTTP server on the loopback: a
        200, a 404 and a 503, each request carrying the token."""
        answers = {"/api/10.0.0.1": (200, b'{"lat": 1.0, "lon": 2.0, "country": "SE"}'),
                   "/api/10.0.0.2": (404, b"not found"), "/api/10.0.0.3": (503, b"busy")}
        seen = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                seen.append((self.path, self.headers["Authorization"]))
                status, body = answers[self.path]
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        monkeypatch.setenv("CONTRACE_GEO_TOKEN", "sekrit")
        for proxy in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(proxy, raising=False)  # reach the loopback directly
        with http.server.HTTPServer(("127.0.0.1", 0), Handler) as server:
            thread = threading.Thread(target=server.serve_forever)
            thread.start()
            try:
                provider = HttpGeoProvider(f"http://127.0.0.1:{server.server_port}/api/")
                assert provider.locate("10.0.0.1") == GeoLocation(1.0, 2.0, "SE", 0.0,
                                                                  "fallback_http")
                assert provider.locate("10.0.0.2") is None
                with pytest.raises(ProviderUnavailable):
                    provider.locate("10.0.0.3")
            finally:
                server.shutdown()
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [(f"/api/10.0.0.{i}", "Bearer sekrit") for i in (1, 2, 3)]


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(59.4, 13.5, 59.4, 13.5) == 0.0

    def test_antipodal_on_equator(self):
        # half circumference: pi * 6371 km
        assert haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(
            math.pi * 6371.0, abs=0.01)

    def test_matches_independent_great_circle(self):
        # Karlstad -> Trondheim fixture coordinates, plus random pairs
        assert haversine_km(59.4022, 13.5115, 63.4305, 10.3951) == pytest.approx(
            great_circle_reference(59.4022, 13.5115, 63.4305, 10.3951), abs=0.01)
        rng = random.Random(6371)
        for _ in range(100):
            lat1, lat2 = rng.uniform(-89, 89), rng.uniform(-89, 89)
            lon1, lon2 = rng.uniform(-180, 180), rng.uniform(-180, 180)
            assert haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(
                great_circle_reference(lat1, lon1, lat2, lon2), abs=0.05)


def _point_at_distance_km(km: float) -> GeoLocation:
    lon = math.degrees(km / enrich.EARTH_RADIUS_KM)
    return GeoLocation(0.0, lon, "XX", 1.0, "test")


ORIGIN = GeoLocation(0.0, 0.0, "YY", 1.0, "test")


class TestPlausibilityFilter:
    def test_round_trip_12500_km_needs_41point7_ms(self):
        # one-way 6250 km -> round trip 12500 km -> at least ~41.7 ms
        far = _point_at_distance_km(6250.0)
        verdict = plausibility_filter(ORIGIN, far, 3_000)
        assert not verdict.plausible
        assert 41_600 <= verdict.min_rtt_us <= 41_800
        assert plausibility_filter(ORIGIN, far, 45_000).plausible

    def test_zero_distance_always_plausible(self):
        assert plausibility_filter(ORIGIN, ORIGIN, 0).plausible

    def test_1000_km_round_trip_with_10_ms(self):
        near = _point_at_distance_km(500.0)
        verdict = plausibility_filter(ORIGIN, near, 10_000)
        assert verdict.plausible
        assert verdict.min_rtt_us == pytest.approx(3_336, abs=10)

    def test_unlocatable_endpoint(self):
        with pytest.raises(Unlocatable):
            plausibility_filter(ORIGIN, None, 1000)

    def test_scaling_preserves_verdict(self):
        rng = random.Random(299)
        for _ in range(50):
            km = rng.uniform(1, 9000)
            observed = rng.uniform(0, 100_000)
            base = plausibility_filter(ORIGIN, _point_at_distance_km(km), observed)
            # scale distance and observation together by 2: same verdict
            scaled = plausibility_filter(ORIGIN, _point_at_distance_km(2 * km),
                                         2 * observed)
            assert base.plausible == scaled.plausible


class TestEnricher:
    def test_invariant_name_iff_asn(self):
        table = AsnTable([entry("10.0.0.0/8", 7, "SEVEN")])
        enricher = enrich.Enricher(table)
        hop = enricher.enrich("10.0.0.1")
        assert (hop.asn is None) == (hop.as_name is None)
        none = enricher.enrich("192.0.2.1")
        assert none.asn is None and none.as_name is None and none.as_group is None

    def test_cache_means_single_provider_call(self):
        provider = _StubProvider("a", GeoLocation(1.0, 2.0, "NO", 1.0, "a"))
        enricher = enrich.Enricher(geo_resolver=GeoResolver([provider]))
        for _ in range(5):
            enricher.enrich("10.0.0.1")
        assert provider.calls == 1

    def test_negative_results_cached_too(self):
        provider = _StubProvider("a", None)
        enricher = enrich.Enricher(geo_resolver=GeoResolver([provider]))
        assert enricher.enrich("10.0.0.1").geo is None
        enricher.enrich("10.0.0.1")
        assert provider.calls == 1
