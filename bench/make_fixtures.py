"""Regenerate the committed surface_analysis fixtures.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/make_fixtures.py

Builds the README demo surface and the second-order ``xx2`` build of the
acceptance battery, writes each function file and certificate gzip-compressed
into ``bench/fixtures/`` and records the sha256 of every decompressed payload
in ``bench/fixtures/manifest.json``.  It also records in
``bench/fixtures/expected.json`` the demo graph's characteristic fraction,
which the benchmark's graph check compares against.  The benchmark refuses
fixtures whose hash does not match, so the certify, graph and CC inputs stay
fixed while the builder changes.  Rerun only on purpose: new fixtures reset
the baseline of the surface_analysis workload.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from lusinkit.core import BoxDomain, PowerModulus
from lusinkit.harness import save_function, write_json
from lusinkit.heisenberg import GraphMap, characteristic_fraction
from lusinkit.lusin import BuildConfig, field_catalog, multi_stage_build

from workloads import GRAPH_TAU

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The README `construct` example and the acceptance battery's SECOND_ORDER_CFG.
BUILDS = {
    "demo": (
        "heisenberg",
        BuildConfig(
            eps=0.05,
            sigma=50.0,
            tau=0.08,
            theta=0.125,
            grid=32,
            stages=3,
            quantile=0.7,
            refine_max=3,
            modulus=PowerModulus(1.0),
        ),
    ),
    "xx2": (
        "xx2",
        BuildConfig(
            tau=1e-3, theta=0.5, grid=32, stages=2, refine_max=2,
            modulus=PowerModulus(0.75),
        ),
    ),
}


def main() -> int:
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    manifest, expected = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (field, cfg) in BUILDS.items():
            g, cert = multi_stage_build(field_catalog(field), dom, cfg)
            lkf = Path(tmp) / f"{name}.lkf"
            certificate = Path(tmp) / f"{name}.certificate.json"
            save_function(g, dom, str(lkf))
            write_json(str(certificate), cert.to_dict(include_cells=True))
            for path in (lkf, certificate):
                payload = path.read_bytes()
                (FIXTURES / (path.name + ".gz")).write_bytes(
                    gzip.compress(payload, compresslevel=9, mtime=0)
                )
                manifest[path.name] = hashlib.sha256(payload).hexdigest()
            print(f"{name}: {cert.term_count} terms, {len(g.blocks)} blocks")
            if name == "demo":
                frac = characteristic_fraction(GraphMap.from_sum(dom, g), GRAPH_TAU)
                expected[name] = {"characteristic_fraction": frac, "tau": GRAPH_TAU}
    (FIXTURES / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    (FIXTURES / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
