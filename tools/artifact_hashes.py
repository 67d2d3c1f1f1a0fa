"""Print the sha256 of the function file, certificate and jet of twelve fixed
builds, and of the certify report of two committed surfaces.

    python3 tools/artifact_hashes.py

Takes no options.  Builds each case below from src/ into a temporary
directory, writes its .lkf with save_function and its certificate with
write_json, and prints one line per build: the name, the .lkf sha256, the
certificate sha256 and the sha256 of the built sum's jet, every multi-index
up to its order at JET_POINTS points drawn uniformly in the box, as the
result's bytes in logical order.  Then, for each surface in CERTIFIED, it
reads the function and certificate from bench/fixtures/ (leaving them as they
are), runs certify_function with all five checks at JET_POINTS pairs and seed
1, writes the report with write_json and prints "certify_<name>" and the
report's sha256.  Last, for each build, it prints "reload_<name>" and the
sha256 of the .lkf that load_function reads and save_function writes again,
which equals the build's own .lkf sha256 when the file round-trips.  Run it
before and after a change that should keep every output, and compare the
two outputs with diff.
"""

import gzip
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "bench" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from lusinkit import harness  # noqa: E402
from lusinkit.core import (  # noqa: E402
    BoxDomain,
    LogModulus,
    PiecewiseLinearModulus,
    PowerModulus,
)
from lusinkit.lusin import (  # noqa: E402
    BuildConfig,
    FieldCollection,
    field_catalog,
    multi_stage_build,
)

# the certify pair count of the benchmark, above one kernel point chunk
JET_POINTS = 100_000
# the committed surfaces that the benchmark certifies
CERTIFIED = ("demo", "xx2")
UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))
# the README demo's construct flags
DEMO = BuildConfig(
    eps=0.05,
    sigma=50.0,
    tau=0.08,
    theta=0.125,
    grid=32,
    stages=3,
    quantile=0.7,
    refine_max=3,
    modulus=PowerModulus(1.0),
)


def _planar_cubic() -> FieldCollection:
    return FieldCollection.from_map(
        "planar_cubic",
        2,
        3,
        {
            (3, 0): lambda p: 0.5 + 0.1 * p[:, 1],
            (1, 2): lambda p: 0.2 * p[:, 0] * p[:, 1],
        },
    )


def _spatial_quadratic() -> FieldCollection:
    return FieldCollection.from_map(
        "spatial_quadratic",
        3,
        2,
        {
            (2, 0, 0): lambda p: np.full(p.shape[0], 0.5),
            (0, 1, 1): lambda p: 0.3 * p[:, 2],
        },
    )


def _heisenberg_cut() -> FieldCollection:
    """The heisenberg data, cut to zero beyond x = 0.37."""

    def cut(fn):
        return lambda p: np.where(p[:, 0] <= 0.37, fn(p), 0.0)

    return FieldCollection.from_map(
        "heisenberg_cut",
        2,
        1,
        {(1, 0): cut(lambda p: 2.0 * p[:, 1]), (0, 1): cut(lambda p: -2.0 * p[:, 0])},
    )


# name: (field, domain, config)
BUILDS = {
    "flagship": (
        field_catalog("heisenberg"),
        UNIT_SQUARE,
        BuildConfig(
            eps=0.05, sigma=0.5, tau=1e-3, theta=0.5, grid=64, stages=6,
            refine_max=4, modulus=LogModulus(),
        ),
    ),
    "pwl_permissive": (
        field_catalog("heisenberg"),
        UNIT_SQUARE,
        BuildConfig(
            eps=0.05, sigma=1e6, tau=10.0, theta=0.5, grid=32, stages=6,
            refine_max=4, modulus=PiecewiseLinearModulus(((0.0, 0.0), (1.0, 1e-12))),
        ),
    ),
    "demo": (field_catalog("heisenberg"), UNIT_SQUARE, DEMO),
    "demo_shifted": (
        field_catalog("heisenberg"), BoxDomain((-0.3, 0.1), (0.7, 1.1)), DEMO
    ),
    "xx2_second_order": (
        field_catalog("xx2"),
        UNIT_SQUARE,
        BuildConfig(
            tau=1e-3, theta=0.5, grid=32, stages=2, refine_max=2,
            modulus=PowerModulus(0.75),
        ),
    ),
    "sigma_0.02": (
        field_catalog("heisenberg"),
        UNIT_SQUARE,
        BuildConfig(
            sigma=0.02, tau=0.5, grid=8, stages=2, refine_max=3,
            modulus=PowerModulus(1.0),
        ),
    ),
    "theta_0.3": (field_catalog("heisenberg"), UNIT_SQUARE, replace(DEMO, theta=0.3)),
    # one stage, whose truncation level is the sampled maximum
    "single_stage_top_quantile": (
        field_catalog("heisenberg"), UNIT_SQUARE, replace(DEMO, stages=1, quantile=1.0)
    ),
    "invx": (
        field_catalog("invx"),
        BoxDomain((0.5,), (2.5,)),
        BuildConfig(
            sigma=50.0, tau=0.05, theta=0.25, grid=16, stages=3, refine_max=3,
            modulus=PowerModulus(1.0),
        ),
    ),
    "planar_cubic": (
        _planar_cubic(),
        UNIT_SQUARE,
        BuildConfig(
            sigma=50.0, tau=0.05, theta=0.25, grid=8, stages=2, refine_max=2,
            modulus=PowerModulus(1.0),
        ),
    ),
    "spatial_quadratic": (
        _spatial_quadratic(),
        BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        BuildConfig(
            sigma=50.0, tau=0.05, theta=0.5, grid=4, stages=2, refine_max=2,
            modulus=PowerModulus(1.0),
        ),
    ),
    # later stages test zero-data cells beside earlier terms, on a lattice
    # whose corners are not dyadic
    "heisenberg_cut": (
        _heisenberg_cut(),
        BoxDomain((0.1, -0.2), (0.8, 0.5)),
        BuildConfig(
            sigma=50.0, tau=0.05, theta=0.25, grid=16, stages=3, refine_max=3,
            modulus=PowerModulus(1.0),
        ),
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    reloaded = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (field, dom, cfg) in BUILDS.items():
            g, cert = multi_stage_build(field, dom, cfg)
            lkf = Path(tmp) / f"{name}.lkf"
            cert_json = Path(tmp) / f"{name}.certificate.json"
            harness.save_function(g, dom, str(lkf))
            harness.write_json(str(cert_json), cert.to_dict())
            rng = np.random.default_rng(0)
            pts = rng.uniform(dom.lower, dom.upper, size=(JET_POINTS, dom.dimension))
            jet = hashlib.sha256(g.jet(pts, g.multiindices).tobytes()).hexdigest()
            print(name, _sha256(lkf), _sha256(cert_json), jet)
            again = Path(tmp) / f"{name}.reloaded.lkf"
            harness.save_function(*harness.load_function(str(lkf)), str(again))
            reloaded.append(f"reload_{name} {_sha256(again)}")
        for name in CERTIFIED:
            lkf, cert_json, report = (
                Path(tmp) / f"{name}{suffix}"
                for suffix in (".lkf", ".certificate.json", ".certify.json")
            )
            for path in (lkf, cert_json):
                packed = (FIXTURES / f"{path.name}.gz").read_bytes()
                path.write_bytes(gzip.decompress(packed))
            g, dom = harness.load_function(str(lkf))
            cert = harness.load_certificate(str(cert_json))
            rep = harness.certify_function(g, dom, cert, pairs=JET_POINTS, seed=1)
            harness.write_json(str(report), rep)
            print(f"certify_{name}", _sha256(report))
    print(*reloaded, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
