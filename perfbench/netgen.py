"""Deterministic network model and topology generator for the benchmark.

One model serves both kinds of workload. The simulator workload writes it
as a topology YAML (with its `measurement` block); the archive workloads
draw synthetic records along its paths. Everything is derived from the
seed and the shape parameters, and nothing here imports the package, so
two commits under comparison receive byte-identical inputs.

Shape, modelled on fixtures/inter_continental.yaml:

    source hosts -> src-gw -> src-ecmp =ECMP=> branch b (L + b routers)
                 -> dst-core -> dst-gw -> destination hosts

Branch b crosses a per-branch transit AS, then a shared carrier AS. One
branch router is rate-limited, one sits on an exchange address that no AS
prefix covers, one has a rejected geolocation (error above 25 km) and one
has none at all, so every enrichment outcome occurs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

START_US = 1_609_459_200_000_000  # 2021-01-01T00:00:00Z
GEO_ACCEPT_KM = 25.0
RATE_LIMIT_PER_S = 1  # ICMP errors the rate-limited router sends per second

SRC_AS = (64601, "SRC-NET", "CN", (20.04, 110.34))
DST_AS = (64699, "DST-NET", "NO", (63.43, 10.39))
CARRIER_AS = (64650, "CARRIER-EU")
TRANSIT_COUNTRIES = (("HK", (22.32, 114.17)), ("US", (47.61, -122.33)),
                     ("JP", (35.68, 139.69)), ("SG", (1.35, 103.82)))
CARRIER_COUNTRIES = (("US", (40.71, -74.01)), ("GB", (51.51, -0.13)),
                     ("DK", (55.68, 12.57)))


@dataclass(frozen=True, slots=True)
class Router:
    name: str
    address: str
    asn: int | None        # None: no AS prefix covers the address
    country: str
    lat: float
    lon: float
    geo_error_km: float | None  # None: absent from the geo table

    @property
    def located_country(self) -> str | None:
        """Country an enricher may use: only accepted geolocations count."""
        if self.geo_error_km is None or self.geo_error_km > GEO_ACCEPT_KM:
            return None
        return self.country


@dataclass(slots=True)
class Network:
    routers: dict[str, Router]
    as_names: dict[int, str]
    as_prefixes: list[tuple[str, int]]
    links: dict[tuple[str, str], int]
    sources: list[str]
    destinations: list[str]
    branches: list[list[str]]
    rate_limited: str

    def path(self, src: int, dst: int, branch: int) -> list[tuple[str, int]]:
        """(router, cumulative one-way latency µs) after the source host."""
        nodes = ["src-gw", "src-ecmp", *self.branches[branch],
                 "dst-core", "dst-gw", self.destinations[dst]]
        out, here, total = [], self.sources[src], 0
        for node in nodes:
            total += self.links[(here, node)]
            out.append((node, total))
            here = node
        return out

    def source_label(self, i: int) -> str:
        return f"SRC{i}"

    def destination_label(self, j: int) -> str:
        return f"DST{j}"

    def relations(self) -> list[tuple[int, int]]:
        """(source index, destination index) in the program's config order."""
        return [(i, j) for i in range(len(self.sources))
                for j in range(len(self.destinations))]

    def as_group(self, router: str) -> str | None:
        asn = self.routers[router].asn
        return None if asn is None else f"{asn}: {self.as_names[asn]}"


def _place(rng: random.Random, base: tuple[float, float]) -> tuple[float, float]:
    return (round(base[0] + rng.uniform(-0.5, 0.5), 4),
            round(base[1] + rng.uniform(-0.5, 0.5), 4))


def build_network(seed: int, sources: int, destinations: int, ecmp_width: int,
                  core_length: int) -> Network:
    """The model for one seed; branch b has core_length + b routers."""
    if ecmp_width < 2 or core_length < 2 or ecmp_width > len(TRANSIT_COUNTRIES):
        raise ValueError("need 2..4 ECMP branches of at least 2 routers")
    rng = random.Random(f"perfbench-net:{seed}:{sources}:{destinations}:"
                        f"{ecmp_width}:{core_length}")
    routers: dict[str, Router] = {}
    links: dict[tuple[str, str], int] = {}

    def add(name, address, asn, country, base, error=None):
        lat, lon = _place(rng, base)
        if error is None:
            error = round(rng.uniform(0.5, 12.0), 1)
        routers[name] = Router(name, address, asn, country, lat, lon, error)

    src_asn, src_name, src_cc, src_base = SRC_AS
    dst_asn, dst_name, dst_cc, dst_base = DST_AS
    as_names = {src_asn: src_name, dst_asn: dst_name,
                CARRIER_AS[0]: CARRIER_AS[1]}
    as_prefixes = [("10.80.0.0/16", src_asn), ("10.22.0.0/16", dst_asn),
                   ("10.90.0.0/16", CARRIER_AS[0])]

    source_names = [f"src-host{i}" for i in range(sources)]
    for i, name in enumerate(source_names):
        add(name, f"10.80.1.{10 + i}", src_asn, src_cc, src_base)
        links[(name, "src-gw")] = rng.randrange(150, 900)
    add("src-gw", "10.80.0.1", src_asn, src_cc, src_base)
    add("src-ecmp", "10.80.0.2", src_asn, src_cc, src_base)
    links[("src-gw", "src-ecmp")] = rng.randrange(2_000, 9_000)

    branches = []
    for b in range(ecmp_width):
        transit_asn = 64610 + b
        as_names[transit_asn] = f"TRANSIT-{chr(65 + b)}"
        as_prefixes.append((f"10.{81 + b}.0.0/16", transit_asn))
        cc, base = TRANSIT_COUNTRIES[b]
        length = core_length + b
        split = length // 2
        names = []
        for k in range(length):
            name = f"br{b}-{k}"
            if k < split:
                add(name, f"10.{81 + b}.{k}.1", transit_asn, cc, base)
            else:
                carrier_cc, carrier_base = CARRIER_COUNTRIES[
                    (k - split) * len(CARRIER_COUNTRIES) // (length - split)]
                add(name, f"10.90.{b}.{k}", CARRIER_AS[0], carrier_cc,
                    carrier_base)
            names.append(name)
        branches.append(names)
        previous = "src-ecmp"
        for name in names:
            links[(previous, name)] = rng.randrange(3_000, 30_000)
            previous = name
        links[(previous, "dst-core")] = rng.randrange(2_000, 12_000)

    # Special routers: an exchange hop no AS prefix covers, one rejected
    # and one missing geolocation, and the rate-limited router.
    exchange = branches[-1][1]
    routers[exchange] = replace(routers[exchange], asn=None,
                                address=f"192.0.2.{1 + ecmp_width}")
    rejected = branches[0][-1]
    routers[rejected] = replace(routers[rejected], geo_error_km=40.0)
    missing = branches[1][-2]
    routers[missing] = replace(routers[missing], geo_error_km=None)
    candidates = [n for names in branches for n in names[:-1]
                  if n not in (exchange, missing)]
    rate_limited = rng.choice(candidates)

    add("dst-core", "10.22.0.1", dst_asn, dst_cc, dst_base)
    add("dst-gw", "10.22.0.2", dst_asn, dst_cc, dst_base)
    links[("dst-core", "dst-gw")] = rng.randrange(500, 3_000)
    destination_names = [f"dst-host{j}" for j in range(destinations)]
    for j, name in enumerate(destination_names):
        add(name, f"10.22.1.{10 + j}", dst_asn, dst_cc, dst_base)
        links[("dst-gw", name)] = rng.randrange(150, 900)

    return Network(routers, as_names, as_prefixes, links, source_names,
                   destination_names, branches, rate_limited)


# -- file writers -------------------------------------------------------------

def _endpoints_yaml(net: Network, indent: str) -> list[str]:
    lines = [f"{indent}sources:"]
    for i, name in enumerate(net.sources):
        lines.append(f"{indent}  - {{label: {net.source_label(i)}, "
                     f"address: {net.routers[name].address}}}")
    lines.append(f"{indent}destinations:")
    for j, name in enumerate(net.destinations):
        lines.append(f"{indent}  - {{label: {net.destination_label(j)}, "
                     f"address: {net.routers[name].address}}}")
    return lines


def topology_yaml(net: Network, schedule: dict) -> str:
    lines = [f"start_time: {START_US}", "", "routers:"]
    for r in net.routers.values():
        asn = "" if r.asn is None else f", asn: {r.asn}"
        lines.append(f"  {r.name}: {{address: {r.address}{asn}, "
                     f"country: {r.country}, lat: {r.lat}, lon: {r.lon}}}")
    lines += ["", "links:"]
    for (u, v), latency in net.links.items():
        lines.append(f"  - {{from: {u}, to: {v}, latency_us: {latency}}}")
    lines += ["", "ecmp:", "  src-ecmp:",
              f"    default: [{', '.join(b[0] for b in net.branches)}]",
              "  dst-gw:"]
    for name in net.destinations:
        lines.append(f"    {name}: [{name}]")
    lines += ["", "policies:",
              f"  {net.rate_limited}: {{rate_limit: {RATE_LIMIT_PER_S}}}", "",
              "measurement:"]
    lines += _endpoints_yaml(net, "  ")
    lines.append("  schedule:")
    lines += [f"    {k}: {v}" for k, v in schedule.items()]
    return "\n".join(lines) + "\n"


def config_yaml(net: Network) -> str:
    lines = _endpoints_yaml(net, "")
    lines += ["store: store", "enrichment:",
              "  as_prefixes: as_prefixes.csv", "  as_names: as_names.csv",
              "  geo_fixtures: geo.csv"]
    return "\n".join(lines) + "\n"


def write_inputs(net: Network, directory: Path, *,
                 schedule: dict | None = None) -> None:
    """Config, AS and geo CSVs, plus the topology when a schedule is given."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "config.yaml": config_yaml(net),
        "as_prefixes.csv": "# prefix,asn\n" + "".join(
            f"{prefix},{asn}\n" for prefix, asn in net.as_prefixes),
        "as_names.csv": "# asn,name\n" + "".join(
            f"{asn},{name}\n" for asn, name in sorted(net.as_names.items())),
        "geo.csv": "# address,lat,lon,country,error_km\n" + "".join(
            f"{r.address},{r.lat},{r.lon},{r.country},{r.geo_error_km}\n"
            for r in net.routers.values() if r.geo_error_km is not None),
    }
    if schedule is not None:
        files["topology.yaml"] = topology_yaml(net, schedule)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
