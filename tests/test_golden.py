"""Golden digests of `export` and of every `analyze` artifact in every format.

Two 1800 s seed-7 `sim-run`s, of neighbor.yaml and of inter_continental.yaml,
fill one store each; a third store imports both exports, so the analyses
with `--relation all` cover two relations. Three more seed-7 `sim-run`s pin
the simulator alone: intra_continental.yaml (an ECMP group of width 4),
route_events.yaml (latency, link and policy events while probes are in
flight) and neighbor_v6.yaml (neighbor.yaml over IPv6, whose checksums
cover the ICMPv6 pseudo-header); only their exports are digested. Each
output's sha256 is pinned below; any changed byte fails the test named
after that output. Each sim-run is made twice: with the endpoints and
schedule of the topology's measurement section, and with `--config` naming
a file written from that section; both exports have the one digest.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from contrace import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
START_US = 1_609_459_200_000_000  # start_time of both topologies

CONFIG = f"""
sources:
  - {{label: SUNET, address: 10.16.1.10}}
  - {{label: CERNET, address: 10.80.1.10}}
destinations:
  - {{label: Uninett, address: 10.22.2.10}}
enrichment:
  as_prefixes: {FIXTURES / 'as_prefixes.csv'}
  as_names: {FIXTURES / 'as_names.csv'}
  geo_fixtures: {FIXTURES / 'geo.csv'}
"""

WINDOW = ["--start", str(START_US + 300_000_000),
          "--end", str(START_US + 1_200_000_000)]

ANALYSES = {
    **{f"{artifact}-{fmt}": ["--artifact", artifact, "--format", fmt]
       for artifact in ("inter-as", "inter-country", "hops")
       for fmt in ("csv", "text")},
    **{f"graph-{fmt}-{threshold}": ["--artifact", "graph", "--format", fmt,
                                    "--threshold", threshold]
       for fmt in ("dot", "geojson", "csv") for threshold in ("0.1", "40")},
    "graph-dot-dashed-intra-as": ["--artifact", "graph", "--format", "dot",
                                  "--dashed-intra-as"],
    "inter-as-csv-window": ["--artifact", "inter-as", "--format", "csv", *WINDOW],
    **{f"{artifact}-{source}": ["--artifact", artifact,
                                "--relation", f"v4:{source}:Uninett"]
       for artifact in ("rtt-series", "cdf", "inter-as", "hops")
       for source in ("SUNET", "CERNET")},
    "rtt-series-SUNET-window": ["--artifact", "rtt-series",
                                "--relation", "v4:SUNET:Uninett", *WINDOW],
}

GOLDEN = {
    "cdf-CERNET": "bebeece58c1b248dd68f3e17b01d81584a83775500282b39f91d2fea3b90d885",
    "cdf-SUNET": "09a70c8cd61c07385dbce6c97124947fa46ac164633d26b8ee46fc038dfe7532",
    "export-both": "af2647e70e6389f8f7e51734f40d33901e39574a01e2dfdfedc0f0c221578148",
    "export-inter_continental": "9b2a6f187e76acfbaa039b2f4023e4228b350f103f998f6e45d11cc22ba7205c",
    "export-intra_continental": "726d6330963913acc0a03571c17183171393a7099ca9431f1be3e818085fa148",
    "export-neighbor": "f712eeef3a6c0ce6c771681c88b0508bb9cda01fcc56fc006e45bae8a980bc07",
    "export-neighbor_v6": "8fd410962b89ce81aa9d3696d44ef65a3a0e8c130fe4c3d972a9ff801a825036",
    "export-route_events": "3998e5e630bbed8b4677ba46ade063af77e2a05e2cd759bea628dd55247ab530",
    "graph-csv-0.1": "03d71c2bdde4a742b2ac78984e8b23a46680bdc31da7b07c2c40b11dd94d50d9",
    "graph-csv-40": "c9ba4512bfb6f799af302ddf5bbe7af9e8b09e9f397e8ed77f3849e66ac2108c",
    "graph-dot-0.1": "ee6797792768e7d7865c033d505ed6d09301dfd571cddcdcf63c5064a7d0f71b",
    "graph-dot-40": "0338e0e66bedba806fed043ac48960b8343bd647c154a5a07735467fe2aaafe3",
    "graph-dot-dashed-intra-as": "986e08ee4b9aafb5eca30ccb2bf48a05f852dcb840b2fa9778bcc32d26948c50",
    "graph-geojson-0.1": "d7562f0a22995b9e528d1ca17229899754f0ab6dfcd4754a4968ca2582d4226f",
    "graph-geojson-40": "c8b9a6d0094532b82c7f0a1f711e52d44c85d21c8dd27a0f84b50a4a91197c01",
    "hops-CERNET": "e202aac197d2e03a5e5de5bf8975b6ad69812fab39d74186d4f5af69317bd530",
    "hops-SUNET": "f66191ceca7daf7d7a1360081ddfe001df149108f76b1c0581145ffeae827e84",
    "hops-csv": "9442d193f6a6c6fec7707508aecdab5dbb5d778bc3862c13f17a71920ab249d0",
    "hops-text": "b4f3f17817ea31844ca3281f5a089d8c5a57980273fa6ca0397770005b09d51d",
    "inter-as-CERNET": "682e1226e6b74885535eb81f4f044338503a749b8ddf10b6ce4ff1bf5b2da134",
    "inter-as-SUNET": "24e19c82289b10cca2e3d591d23f200803c94d3809fcc07ae2fd498e2e5e2fa8",
    "inter-as-csv": "69d97dd57132055e7e44ecd7b7695b00fdff95719a1e06e021649f6484f1e2a2",
    "inter-as-csv-window": "a2262cd1307a398992b0e4c546eba351bedffd5c689e633a0e9d65620c3eafac",
    "inter-as-text": "c37f010851401af55e19ac74e32bd21ba70d6d39a247786398cbb9e10d07a3d2",
    "inter-country-csv": "065283c84e42b3acd311bda1e8c49bfc4fa59693db94c0a96fe35e2f12d8d309",
    "inter-country-text": "f71f00da531ed422ae833ce4453db01ed487f761aee91d4583843ed9a0f0b3d7",
    "rtt-series-CERNET": "cf2b8e3750623f63fc8a4c057464c68038579df74f666a3a81b3f90ca0b5d66b",
    "rtt-series-SUNET": "78c02e12a9ac6ed6975e1d99eab710665403b95ef2a4152f6e54236e09d7f4fb",
    "rtt-series-SUNET-window": "90059cc9ebc45de855ec06d27dcce2e3e7709f14d52502077069f2fe8cb26ecd",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


SIM_RUNS = ("neighbor", "inter_continental", "intra_continental", "route_events",
            "neighbor_v6")
VIA_CONFIG = "-via-config"  # suffix of the name of a sim-run export made with --config
NAMES = sorted(GOLDEN) + [f"export-{topology}{VIA_CONFIG}" for topology in SIM_RUNS]


def golden_outputs(root: Path) -> dict[str, str]:
    """sha256 of every output named in NAMES, computed under root."""
    digests = {}
    for topology in SIM_RUNS:
        path = FIXTURES / f"{topology}.yaml"
        config = root / f"{topology}-config.yaml"
        config.write_text(yaml.safe_dump(yaml.safe_load(path.read_text())["measurement"]))
        for name, extra in ((f"export-{topology}", []),
                            (f"export-{topology}{VIA_CONFIG}", ["--config", str(config)])):
            store = root / name
            assert cli.main(["sim-run", "--topology", str(path), *extra,
                             "--duration", "1800", "--seed", "7",
                             "--store", str(store)]) == cli.EXIT_OK
            out = root / f"{name}.ndjson"
            assert cli.main(["export", "--store", str(store), "--out", str(out)]) \
                == cli.EXIT_OK
            digests[name] = _sha256(out)
    exports = [str(root / f"export-{topology}.ndjson")
               for topology in ("neighbor", "inter_continental")]
    both = root / "both"
    assert cli.main(["import", "--store", str(both), *exports]) == cli.EXIT_OK
    out = root / "both.ndjson"
    assert cli.main(["export", "--store", str(both), "--out", str(out)]) == cli.EXIT_OK
    digests["export-both"] = _sha256(out)
    config = root / "config.yaml"
    config.write_text(CONFIG)
    for name, argv in ANALYSES.items():
        out = root / f"{name}.out"
        assert cli.main(["analyze", "--config", str(config), "--store", str(both),
                         *argv, "--out", str(out)]) == cli.EXIT_OK, name
        digests[name] = _sha256(out)
    return digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden_digest(outputs, name):
    assert outputs[name] == GOLDEN[name.removesuffix(VIA_CONFIG)]


def test_every_output_has_a_golden_digest(outputs):
    assert sorted(outputs) == sorted(NAMES)
