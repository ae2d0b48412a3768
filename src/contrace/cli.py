"""Operator command line: run measurements, move records, produce analyses.

Subcommands: measure (the live network over raw sockets), sim-run (the
simulator; endpoints from --config or the topology's measurement section),
import, export, analyze, upgrade.
Exit codes: 0 ok, 1 generic error or strict-mode rejects, 2 configuration
error, 3 privilege error, 4 transport failure, 5 empty selection.
Modules that only some commands use (yaml, probe, sim, analytics, enrich,
legacy) are imported by those commands, so import, export and analyze
never load the probing code.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

from .config import (Family, MalformedYaml, ProbeSchedule, RelationKey, TransportFailure,
                     family_of, load_yaml)
from .records import KIND_PING, KIND_TRACEROUTE, StoreError, StoreQuery, canonical_address
from .store import RecordStore

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_PRIVILEGE = 3
EXIT_TRANSPORT = 4
EXIT_EMPTY = 5


class ConfigError(Exception):
    pass


class Endpoint(NamedTuple):
    label: str
    address: str
    family: Family


class Config(NamedTuple):
    sources: list[Endpoint]
    destinations: list[Endpoint]
    schedule: ProbeSchedule
    store_path: Path
    relations: list[RelationKey]
    as_prefixes: Path | None = None
    as_names: Path | None = None
    geo_fixtures: Path | None = None
    fallback_url: str | None = None
    fallback_token_env: str = "CONTRACE_GEO_TOKEN"


def _endpoints(raw, what: str) -> list[Endpoint]:
    if raw is not None and not isinstance(raw, list):
        raise ConfigError(f"{what}s must be a list, got {type(raw).__name__}")
    if not raw:
        raise ConfigError(f"config needs at least one {what}")
    endpoints = []
    for entry in raw:
        try:
            label, address = entry["label"], str(entry["address"])
        except (TypeError, KeyError):
            raise ConfigError(f"each {what} needs label and address") from None
        try:
            family = family_of(address)
        except ValueError:
            raise ConfigError(f"{what} {label}: invalid address {address!r}") from None
        declared = entry.get("family")
        try:
            mismatch = declared is not None and Family(declared) is not family
        except ValueError:
            raise ConfigError(f"{what} {label}: unknown family {declared!r}") from None
        if mismatch:
            raise ConfigError(
                f"{what} {label}: family {declared} does not match {address}")
        endpoints.append(Endpoint(label, address, family))
    return endpoints


def build_config(doc: dict, base_dir: Path) -> Config:
    """The Config of a parsed document; ConfigError for a section that is
    missing, of the wrong type or holds a bad value."""
    sources = _endpoints(doc.get("sources"), "source")
    destinations = _endpoints(doc.get("destinations"), "destination")
    try:
        schedule = ProbeSchedule(**(doc.get("schedule") or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad schedule: {exc}") from None
    store_path = base_dir / str(doc.get("store", "store"))
    enrichment = doc.get("enrichment") or {}
    if not isinstance(enrichment, dict):
        raise ConfigError(f"enrichment must be a mapping, got {type(enrichment).__name__}")

    def path_or_none(key):
        if key not in enrichment:
            return None
        if not isinstance(enrichment[key], str):
            raise ConfigError(f"enrichment {key} must be a path, got {enrichment[key]!r}")
        return base_dir / enrichment[key]

    relations = []
    for source in sources:
        matching = [d for d in destinations if d.family is source.family]
        if not matching:
            raise ConfigError(
                f"source {source.label} ({source.family.value}) has no "
                f"destination of the same family")
        for dest in matching:
            relations.append(RelationKey(
                source.family, source.label, dest.label,
                source.address, dest.address))
    return Config(
        sources=sources, destinations=destinations, schedule=schedule,
        store_path=store_path, relations=relations,
        as_prefixes=path_or_none("as_prefixes"),
        as_names=path_or_none("as_names"),
        geo_fixtures=path_or_none("geo_fixtures"),
        fallback_url=enrichment.get("fallback_url"),
        fallback_token_env=enrichment.get("fallback_token_env",
                                          "CONTRACE_GEO_TOKEN"),
    )


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        text = os.path.expandvars(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        doc = load_yaml(text)
    except MalformedYaml as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return build_config(doc, path.parent)


def build_enricher(config: Config) -> Enricher:
    from .enrich import AsnTable, CsvGeoProvider, Enricher, GeoResolver, HttpGeoProvider
    table = None
    if config.as_prefixes is not None:
        table = AsnTable.from_csv(config.as_prefixes, config.as_names)
    providers = []
    if config.geo_fixtures is not None:
        providers.append(CsvGeoProvider(config.geo_fixtures))
    if config.fallback_url:
        providers.append(HttpGeoProvider(config.fallback_url, config.fallback_token_env))
    resolver = GeoResolver(providers) if providers else None
    return Enricher(table, resolver)


# -- measure / sim-run -------------------------------------------------------

def _seconds(text: str) -> float:
    """--duration: seconds, at least 0, finite also in microseconds."""
    try:
        if 0 <= float(text) * 1_000_000 < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number of seconds >= 0, got {text!r}")


def _percent(text: str) -> float:
    """--threshold: a finite percentage from 0 to 100."""
    try:
        if 0 <= float(text) <= 100:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a percentage from 0 to 100, got {text!r}")


def cmd_measure(args, transport_factory=None) -> int:
    import signal
    import threading

    from .probe import LiveClock, RawIcmpTransport, campaign_workers, run_relation_worker
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    transport_factory = transport_factory or RawIcmpTransport
    clock = LiveClock()
    stop = threading.Event()

    def handle(signum, frame):
        stop.set()

    opened = []

    def open_transport(address):
        transport = transport_factory(address, clock)
        opened.append(transport)
        return transport

    start = clock.now_us()
    end = start + int(args.duration * 1_000_000) if args.duration else 2**62
    previous = {}
    try:
        with RecordStore(args.store or config.store_path) as store:
            try:
                workers = campaign_workers(config.relations, config.schedule,
                                           open_transport, store, start_us=start,
                                           end_us=end, seed=args.seed)
            except PermissionError as exc:
                print(f"error: raw ICMP sockets require privileges: {exc}",
                      file=sys.stderr)
                return EXIT_PRIVILEGE
            except (TransportFailure, OSError) as exc:
                print(f"error: transport: {exc}", file=sys.stderr)
                return EXIT_TRANSPORT
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, handle)
            threads = []
            for worker in workers:
                thread = threading.Thread(
                    target=run_relation_worker,
                    args=(worker, clock, stop.is_set),
                    name=f"probe-{worker.source_address}", daemon=True)
                threads.append(thread)
                thread.start()
            for thread in threads:
                while thread.is_alive():
                    thread.join(timeout=0.5)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for transport in opened:
            transport.close()
    return EXIT_OK


def cmd_sim_run(args) -> int:
    """Simulate the campaign of --config, or else of the topology's measurement."""
    from . import sim
    try:
        topology = sim.load_topology(args.topology)
        if args.config:
            config = load_config(args.config)
        elif topology.measurement:
            config = build_config(dict(topology.measurement), Path(args.topology).parent)
        else:
            raise ConfigError("topology has no measurement section; give --config")
        known = {r.address for r in topology.routers.values()}
        for endpoint in config.sources + config.destinations:
            if endpoint.address not in known:
                raise ConfigError(f"address {endpoint.address} ({endpoint.label}) "
                                  f"is not in the topology")
    except (OSError, sim.TopologyError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    store_path = args.store or config.store_path
    with RecordStore(store_path) as store, store.runs() as sink:
        sim.run_scenario(topology, config.relations, config.schedule,
                         args.duration, seed=args.seed, sink=sink)
    print(f"simulated {args.duration:.0f} s: {store.written[KIND_PING]} ping, "
          f"{store.written[KIND_TRACEROUTE]} traceroute records -> {store_path}")
    return EXIT_OK


# -- import / export ----------------------------------------------------------

@contextmanager
def _import_input(name: str):
    """The file to import, or stdin for "-", read as UTF-8 with
    errors="surrogateescape": bytes that are not UTF-8 reach the store's
    import, which rejects their line, instead of failing the read."""
    if name != "-":
        with open(name, encoding="utf-8", errors="surrogateescape") as fp:
            yield fp
        return
    fp = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape")
    try:
        yield fp
    finally:
        fp.detach()  # leaves stdin open


def cmd_import(args) -> int:
    rejected_total = 0
    with RecordStore(args.store) as store:
        for name in args.files:
            try:
                with _import_input(name) as fp:
                    accepted, rejects = store.import_json(fp)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_ERROR
            for index, reason in rejects:
                print(f"{name}:{index + 1}: rejected: {reason}", file=sys.stderr)
            rejected_total += len(rejects)
            print(f"{name}: {accepted} accepted, {len(rejects)} rejected")
    if rejected_total and args.strict:
        return EXIT_ERROR
    return EXIT_OK


@contextmanager
def _output_file(name: str):
    """name open for writing. A regular file, or a new one, is written as
    name.<pid>.tmp and renamed onto name, with its mode, once the block
    succeeds; another path (a device, a FIFO, a symlink) is written as is."""
    try:
        mode = os.lstat(name).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(name, "w", encoding="utf-8") as fp:
            yield fp
        return
    tmp = f"{name}.{os.getpid()}.tmp"
    fp = open(tmp, "x", encoding="utf-8")
    try:
        with fp:
            yield fp
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, name)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_export(args) -> int:
    store = RecordStore(args.store)
    with _output_file(args.out) if args.out else nullcontext(sys.stdout) as fp:
        count = store.export(fp)
    print(f"exported {count} records", file=sys.stderr)
    return EXIT_OK


def cmd_upgrade(args) -> int:
    from . import legacy
    print(legacy.upgrade(args.store))
    return EXIT_OK


# -- analyze ------------------------------------------------------------------

def _parse_relation_filter(spec: str) -> tuple[Family, str, str]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"relation filter must be <v4|v6>:<from-isp>:<to-isp>, got {spec!r}")
    try:
        family = Family(parts[0])
    except ValueError:
        raise ConfigError(f"unknown IP version {parts[0]!r}") from None
    return family, parts[1], parts[2]


def _selected_relations(config: Config, spec: str | None) -> list[RelationKey]:
    if not spec or spec == "all":
        return config.relations
    family, from_isp, to_isp = _parse_relation_filter(spec)
    selected = [r for r in config.relations
                if r.ip_version is family and r.source_id == from_isp
                and r.destination_id == to_isp]
    if not selected:
        raise ConfigError(f"no configured relation matches {spec!r}")
    return selected


def cmd_analyze(args) -> int:
    from . import analytics
    if args.start is not None and args.end is not None and args.start >= args.end:
        print(f"error: --start must be less than --end, got {args.start} and {args.end}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = load_config(args.config)
        relations = _selected_relations(config, args.relation)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    store = RecordStore(args.store or config.store_path)
    fmt = args.format

    if args.artifact in ("rtt-series", "cdf"):
        if len(relations) != 1:
            print("error: rtt-series and cdf need a single --relation",
                  file=sys.stderr)
            return EXIT_CONFIG
        pings = store.ping_columns(StoreQuery(KIND_PING, args.start, args.end,
                                              relations[0].source_address,
                                              relations[0].destination_address))
        if not pings:
            print("error: no ping records match the selection", file=sys.stderr)
            return EXIT_EMPTY
        if args.artifact == "rtt-series":
            document = analytics.format_bucket_series(
                analytics.bucket_rtt_series(pings))
        else:
            document = analytics.format_cdf(analytics.mean_rtt_cdf(pings))
        return _emit(document, args)

    # hop counts read no enrichment file
    enricher = None if args.artifact == "hops" else build_enricher(config)
    pairs = [(canonical_address(r.source_address),
              canonical_address(r.destination_address)) for r in relations]
    query = StoreQuery(KIND_TRACEROUTE, args.start, args.end,
                       *(pairs[0] if len(relations) == 1 else ()))
    runs_by_pair = store.path_runs(query)
    selected = [(relation, runs_by_pair[pair])
                for relation, pair in zip(relations, pairs) if pair in runs_by_pair]
    if not selected:
        print("error: no traceroute records match the selection", file=sys.stderr)
        return EXIT_EMPTY

    if args.artifact == "hops":
        rows = [analytics.hop_count_stats(runs, relation) for relation, runs in selected]
        rows = [r for r in rows if r is not None]
        table_fmt = fmt if fmt in ("csv", "text") else "text"
        return _emit(analytics.format_hop_stats(rows, table_fmt), args)

    observations = [obs for relation, runs in selected
                    for obs in analytics.link_shares(runs, relation, enricher.enrich)]
    if args.artifact in ("inter-as", "inter-country"):
        group_by = analytics.GROUP_BY_AS if args.artifact == "inter-as" \
            else analytics.GROUP_BY_COUNTRY
        rows = analytics.crossing_table(observations, group_by, args.threshold)
        table_fmt = fmt if fmt in ("csv", "text") else "text"
        return _emit(analytics.format_crossing_table(rows, table_fmt), args)

    if args.artifact == "graph":
        graph_fmt = fmt if fmt in ("dot", "geojson", "csv") else "dot"
        export = analytics.export_route_graph(
            observations, args.threshold, graph_fmt,
            dashed_inter_as=not args.dashed_intra_as)
        for address in export.unlocatable:
            print(f"unlocatable: {address}", file=sys.stderr)
        return _emit(export.document, args)

    print(f"error: unknown artifact {args.artifact!r}", file=sys.stderr)
    return EXIT_CONFIG


def _emit(document: str, args) -> int:
    with _output_file(args.out) if args.out else nullcontext(sys.stdout) as fp:
        fp.write(document)
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrace",
        description="Connectivity tracing: ICMP ping/traceroute measurement, "
                    "storage and route analytics.")
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="probe the live network (raw ICMP sockets)")
    measure.add_argument("--config", required=True)
    measure.add_argument("--duration", type=_seconds, default=3600.0,
                         help="seconds to run (default 3600; 0 runs until "
                              "SIGINT or SIGTERM)")
    measure.add_argument("--seed", type=int, default=0)
    measure.add_argument("--store", help="override the config store path")
    measure.set_defaults(func=cmd_measure)

    sim_run = sub.add_parser("sim-run", help="simulate a campaign on a topology")
    sim_run.add_argument("--topology", required=True)
    sim_run.add_argument("--config",
                         help="endpoints, schedule and store (default: the "
                              "topology's measurement section)")
    sim_run.add_argument("--duration", type=_seconds, default=3600.0,
                         help="simulated seconds (default 3600)")
    sim_run.add_argument("--seed", type=int, default=0)
    sim_run.add_argument("--store", help="override the config store path")
    sim_run.set_defaults(func=cmd_sim_run)

    imp = sub.add_parser("import", help="import NDJSON or JSON-array records")
    imp.add_argument("--store", required=True)
    imp.add_argument("--strict", action="store_true",
                     help="exit nonzero if any document is rejected")
    imp.add_argument("files", nargs="+", help="input files ('-' for stdin)")
    imp.set_defaults(func=cmd_import)

    exp = sub.add_parser("export", help="write the canonical NDJSON stream")
    exp.add_argument("--store", required=True)
    exp.add_argument("--out")
    exp.set_defaults(func=cmd_export)

    upgrade = sub.add_parser(
        "upgrade", help="rewrite a store's columnar format version 2 files as version 3")
    upgrade.add_argument("--store", required=True)
    upgrade.set_defaults(func=cmd_upgrade)

    analyze = sub.add_parser("analyze", help="compute tables, series and graphs")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--store", help="override the config store path")
    analyze.add_argument("--artifact", required=True,
                         choices=("rtt-series", "cdf", "inter-as",
                                  "inter-country", "hops", "graph"))
    analyze.add_argument("--relation", default="all",
                         help="<v4|v6>:<from-isp>:<to-isp> or 'all'")
    analyze.add_argument("--threshold", type=_percent, default=0.1,
                         help="minimum observation share in percent "
                              "(paper tables use 0.1, 2.5, 10, 15)")
    analyze.add_argument("--format", default=None,
                         help="csv|text for tables, dot|geojson|csv for graphs")
    analyze.add_argument("--start", type=int, default=None,
                         help="time range start (µs since epoch, inclusive)")
    analyze.add_argument("--end", type=int, default=None,
                         help="time range end (µs since epoch, exclusive)")
    analyze.add_argument("--dashed-intra-as", action="store_true",
                         help="draw intra-AS links dashed instead of inter-AS")
    analyze.add_argument("--out", help="write to a file instead of stdout")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TransportFailure as exc:
        print(f"error: transport: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except PermissionError as exc:
        print(f"error: privileges: {exc}", file=sys.stderr)
        return EXIT_PRIVILEGE
    except (OSError, ValueError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
