"""Router address enrichment: AS numbers, geolocation, plausibility checks.

AS mapping is a longest-prefix match over registry-derived CSV snapshots.
Geolocation chains providers in preference order and accepts the first
result whose estimated error is at most 25 km; unlocated hops stay
unlocated and drop out of map and percentage computations downstream.
"""

from __future__ import annotations

import csv
import ipaddress
import math
import os
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence

EARTH_RADIUS_KM = 6371.0
LIGHT_SPEED_KM_S = 299792.458
GEO_ACCEPT_KM = 25.0


class EnrichError(Exception):
    pass


class ProviderUnavailable(EnrichError):
    """A geo provider could not answer; non-fatal, the next one is tried."""


class Unlocatable(EnrichError):
    """Plausibility check asked about an endpoint without a location."""


_SURROGATE = re.compile("[\ud800-\udfff]")


def _read_csv(path: str | Path, fields: int,
              parse: Callable[[list[str]], tuple]) -> Iterator[tuple]:
    """parse(row) for each row of a CSV file that has at least fields columns.

    Blank rows and rows starting with # are skipped. A malformed row, one
    that is not UTF-8 among them, raises ValueError naming the file and the
    line.
    """
    # an undecodable byte reads as a lone surrogate, so the row it is in fails
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fp:
        reader = csv.reader(fp)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                if _SURROGATE.search(",".join(row)):
                    raise ValueError("not UTF-8")
                if len(row) < fields:
                    raise ValueError(f"expected {fields} fields, got {len(row)}")
                value = parse(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            yield value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


class AsEntry(NamedTuple):
    prefix: ipaddress.IPv4Network | ipaddress.IPv6Network
    asn: int
    name: str


class _GeoFields(NamedTuple):
    latitude: float
    longitude: float
    country: str
    estimated_error_km: float
    provider: str


class GeoLocation(_GeoFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (-90.0 <= self.latitude <= 90.0 and -180.0 <= self.longitude <= 180.0):
            raise ValueError("coordinates out of range")
        if self.estimated_error_km < 0:
            raise ValueError("estimated error must be >= 0")
        return self


class EnrichedHop(NamedTuple):
    address: str
    asn: int | None = None
    as_name: str | None = None
    geo: GeoLocation | None = None

    @property
    def as_group(self) -> str | None:
        """Group label used by AS-level tables, e.g. "1653: SUNET"."""
        if self.asn is None:
            return None
        return f"{self.asn}: {self.as_name}"

    @property
    def country(self) -> str | None:
        return self.geo.country if self.geo else None


class AsnTable:
    """Longest-prefix-match table from prefix to (ASN, name).

    Lookup walks prefix lengths from most to least specific, so the result
    is independent of insertion order.
    """

    def __init__(self, entries: Iterable[AsEntry] = ()):
        self._by_len: dict[tuple[int, int], dict[int, AsEntry]] = {}
        self._lengths: dict[int, list[int]] = {4: [], 6: []}
        for entry in entries:
            self.add(entry)

    def add(self, entry: AsEntry) -> None:
        version = entry.prefix.version
        key = (version, entry.prefix.prefixlen)
        bucket = self._by_len.setdefault(key, {})
        bucket[int(entry.prefix.network_address)] = entry
        lengths = self._lengths[version]
        if entry.prefix.prefixlen not in lengths:
            lengths.append(entry.prefix.prefixlen)
            lengths.sort(reverse=True)

    def lookup(self, address: str) -> tuple[int, str] | None:
        addr = ipaddress.ip_address(address)
        value = int(addr)
        bits = addr.max_prefixlen
        for prefixlen in self._lengths[addr.version]:
            network = value >> (bits - prefixlen) << (bits - prefixlen)
            entry = self._by_len[(addr.version, prefixlen)].get(network)
            if entry is not None:
                return entry.asn, entry.name
        return None

    @classmethod
    def from_csv(cls, prefix_path: str | Path,
                 names_path: str | Path | None = None) -> "AsnTable":
        """Load prefix,asn rows plus an optional asn,name table.

        Entries without a name render as "AS<asn>".
        """
        names: dict[int, str] = {}
        if names_path is not None:
            names = dict(_read_csv(names_path, 2,
                                   lambda row: (int(row[0]), row[1].strip())))
        table = cls()
        for prefix, asn in _read_csv(prefix_path, 2, lambda row: (
                ipaddress.ip_network(row[0].strip()), int(row[1]))):
            table.add(AsEntry(prefix, asn, names.get(asn, f"AS{asn}")))
        return table


class GeoProvider(Protocol):
    name: str

    def locate(self, address: str) -> GeoLocation | None: ...


class CsvGeoProvider:
    """Offline fixture provider: address,lat,lon,country,error_km rows."""

    name = "fixture_db"

    def __init__(self, path: str | Path):
        self._table: dict[str, GeoLocation] = dict(_read_csv(path, 5, lambda row: (
            str(ipaddress.ip_address(row[0].strip())),
            GeoLocation(float(row[1]), float(row[2]), row[3].strip(),
                        float(row[4]), self.name))))

    def locate(self, address: str) -> GeoLocation | None:
        return self._table.get(str(ipaddress.ip_address(address)))


class HttpGeoProvider:
    """Online fallback: GET <base_url>/<address> by urlopen (by default
    urllib's) returning a JSON object with numeric lat and lon, a string
    country and an optional numeric error_km. A 404 is no answer; another
    status, a failed request or a 200 without those fields counts as the
    provider being unavailable. The API token comes from an environment
    variable so it never lives in config files."""

    name = "fallback_http"

    def __init__(self, base_url: str, token_env: str = "CONTRACE_GEO_TOKEN", urlopen=None):
        self.base_url = base_url.rstrip("/")
        self.token_env = token_env
        self._urlopen = urlopen

    def locate(self, address: str) -> GeoLocation | None:
        import json
        import urllib.error
        import urllib.request
        headers = {}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(f"{self.base_url}/{address}", headers=headers)
        try:
            with (self._urlopen or urllib.request.urlopen)(request, timeout=10) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status, body = exc.code, b""
        except Exception as exc:
            raise ProviderUnavailable(str(exc)) from exc
        if status == 404:
            return None
        if status != 200:
            raise ProviderUnavailable(f"HTTP {status}")
        try:
            doc = json.loads(body)
            if not isinstance(doc, dict) or not isinstance(doc.get("country"), str):
                raise ValueError("expected an object with lat, lon and country")
            return GeoLocation(_number(doc.get("lat")), _number(doc.get("lon")),
                               doc["country"], _number(doc.get("error_km", 0.0)),
                               self.name)
        except ValueError as exc:
            raise ProviderUnavailable(f"bad response for {address}: {exc}") from exc


class GeoResolver:
    """Chains providers; the first answer whose estimated error is at most
    GEO_ACCEPT_KM wins.

    Every call asks the providers again; Enricher keeps the answers.
    """

    def __init__(self, providers: Sequence[GeoProvider]):
        self.providers = list(providers)

    def resolve(self, address: str) -> GeoLocation | None:
        for provider in self.providers:
            try:
                candidate = provider.locate(address)
            except ProviderUnavailable:
                continue
            if candidate is not None and candidate.estimated_error_km <= GEO_ACCEPT_KM:
                return candidate
        return None


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on a sphere of radius 6371 km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlon = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


class PlausibilityVerdict(NamedTuple):
    plausible: bool
    min_rtt_us: float

    def __bool__(self) -> bool:
        return self.plausible


def plausibility_filter(from_geo: GeoLocation | None, to_geo: GeoLocation | None,
                        observed_rtt_increase_us: float) -> PlausibilityVerdict:
    """Speed-of-light check on an apparent geographic detour.

    The detour adds at least 2 * distance / c0 of round-trip time; an
    observed RTT increase below that physical minimum marks the link
    implausible (a geolocation false positive). Flags, never deletes.
    """
    if from_geo is None or to_geo is None:
        raise Unlocatable("both endpoints need a location")
    distance_km = haversine_km(from_geo.latitude, from_geo.longitude,
                               to_geo.latitude, to_geo.longitude)
    min_rtt_us = 2.0 * distance_km / LIGHT_SPEED_KM_S * 1e6
    return PlausibilityVerdict(observed_rtt_increase_us >= min_rtt_us, min_rtt_us)


class Enricher:
    """Annotates addresses with AS and geo data.

    Every address's result is cached, including one that no table or
    provider knows, so each address reaches the providers at most once
    (keeping runs hermetic and cheap).
    """

    def __init__(self, asn_table: AsnTable | None = None,
                 geo_resolver: GeoResolver | None = None):
        self.asn_table = asn_table
        self.geo_resolver = geo_resolver
        self._cache: dict[str, EnrichedHop] = {}

    def enrich(self, address: str) -> EnrichedHop:
        hop = self._cache.get(address)
        if hop is not None:
            return hop
        asn = name = None
        if self.asn_table is not None:
            found = self.asn_table.lookup(address)
            if found is not None:
                asn, name = found
        geo = self.geo_resolver.resolve(address) if self.geo_resolver else None
        hop = EnrichedHop(address, asn, name, geo)
        self._cache[address] = hop
        return hop
