"""Acceptance battery: one test per criterion, tolerances pinned.

Criteria the current constructor cannot attain fail RED here with the
measured value in the assertion message; they are not weakened.  The
expected state of this suite is documented in the README.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lusinkit.core import BoxDomain, LogModulus, PowerModulus
from lusinkit.harness import (
    certify_function,
    execute_manifest,
    load_function,
    run_construct,
)
from lusinkit.heisenberg import (
    GraphMap,
    HorizontalPath,
    HPoint,
    cc_dist_bounds,
    characteristic_fraction,
    circulation_counterexample,
    dilate,
    group_inv,
    group_mul,
    holder_transfer_check,
    koranyi_dist,
    koranyi_norm,
)
from lusinkit.lusin import BuildConfig, field_catalog, multi_stage_build, tail_pinch_check

ROOT_PI = math.sqrt(math.pi)

FLAGSHIP_CFG = BuildConfig(
    eps=0.05,
    sigma=0.5,
    tau=1e-3,
    theta=0.5,
    grid=64,
    stages=6,
    refine_max=4,
    modulus=LogModulus(),
)

SECOND_ORDER_CFG = BuildConfig(
    tau=1e-3,
    theta=0.5,
    grid=32,
    stages=2,
    refine_max=2,
    modulus=PowerModulus(0.75),
)

DETERMINISM_CFG = BuildConfig(
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


@pytest.fixture(scope="module")
def flagship():
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    t0 = time.perf_counter()
    g, cert = multi_stage_build(field_catalog("heisenberg"), dom, FLAGSHIP_CFG)
    elapsed = time.perf_counter() - t0
    return g, cert, dom, elapsed


def test_criterion_1_circulation_counterexample():
    t0 = time.perf_counter()
    a, b = circulation_counterexample()
    elapsed = time.perf_counter() - t0
    assert a == pytest.approx(-2.0, abs=1e-10)
    assert b == pytest.approx(2.0, abs=1e-10)
    assert b - a == pytest.approx(4.0, abs=1e-10)
    assert elapsed < 1.0


def test_criterion_2_log_preset_fidelity():
    t0 = time.perf_counter()
    mu = LogModulus()
    assert mu(0.0) == 0.0
    inv_e = math.exp(-1.0)
    # both branch formulas at the seam
    assert -1.0 / math.log(inv_e) == pytest.approx(1.0, abs=1e-12)
    assert math.e * inv_e == pytest.approx(1.0, abs=1e-12)
    assert mu(inv_e) == pytest.approx(1.0, abs=1e-12)
    left = mu(np.nextafter(inv_e, 0.0))
    right = mu(np.nextafter(inv_e, 1.0))
    assert abs(left - right) <= 1e-12
    assert mu(1.0) == pytest.approx(math.e, abs=1e-12)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3a_residual_measure(flagship):
    g, cert, dom, elapsed = flagship
    assert elapsed <= 300.0
    target = FLAGSHIP_CFG.eps * dom.volume()
    assert cert.residual_measure <= target, (
        f"residual measure {cert.residual_measure:.6f} exceeds {target:.3f}: "
        f"the modulus envelope rejects all but {cert.coverage_fraction():.4%} "
        "of the domain at these budgets"
    )


def test_criterion_3b_characteristic_fraction(flagship):
    g, cert, dom, _ = flagship
    frac = characteristic_fraction(GraphMap.from_sum(dom, g), FLAGSHIP_CFG.tau)
    assert frac >= 0.95, (
        f"characteristic fraction {frac:.6f} < 0.95 at tau={FLAGSHIP_CFG.tau}: "
        "follows the residual-measure shortfall of criterion 3a"
    )


def test_criterion_3c_supnorm_ledger(flagship):
    _, cert, _, _ = flagship
    assert all(s < FLAGSHIP_CFG.sigma for s in cert.sup_ledger)
    assert cert.sup_ledger[0] == pytest.approx(0.00041961669921875, rel=1e-12)


def test_criterion_3d_modulus_pairs(flagship):
    g, cert, dom, _ = flagship
    res = certify_function(g, dom, cert, checks=("modulus",), pairs=100_000, seed=0)[
        "checks"
    ]["modulus"]
    assert res["pairs"] == 100_000
    assert res["passed"]
    assert res["worst"] == pytest.approx(0.06853429836613051, rel=1e-9)


def test_criterion_3e_tail_pinch(flagship):
    g, cert, _, _ = flagship
    pinch = tail_pinch_check(g, cert, samples=10_000, seed=0)
    assert pinch["passed"]
    assert pinch["worst_ratio"] <= 1.0
    # only one stage accepted cells, so there is no later tail to pinch
    assert pinch["vacuous"]


def test_criterion_4_second_order_build():
    t0 = time.perf_counter()
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    g, cert = multi_stage_build(field_catalog("xx2"), dom, SECOND_ORDER_CFG)
    checks = certify_function(
        g, dom, cert, checks=("match", "lipschitz", "modulus"), pairs=20_000, seed=0
    )["checks"]
    assert checks["match"]["passed"]
    assert checks["match"]["worst"] == 0.0
    assert checks["lipschitz"]["passed"]
    assert not checks["lipschitz"].get("vacuous", False)
    assert checks["lipschitz"]["worst"] == pytest.approx(0.013518552148348, rel=1e-6)
    assert checks["modulus"]["passed"]
    assert checks["modulus"]["worst"] <= 1.0
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_5_koranyi_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    p, q, r = (rng.uniform(-2, 2, size=(10_000, 3)) for _ in range(3))
    assert np.abs(koranyi_dist(p, q) - koranyi_dist(q, p)).max() <= 1e-10
    slack = koranyi_dist(p, r) + koranyi_dist(r, q) - koranyi_dist(p, q)
    assert slack.min() >= -1e-10
    moved = koranyi_dist(group_mul(r, p), group_mul(r, q))
    assert np.abs(moved - koranyi_dist(p, q)).max() <= 1e-10
    for lam in rng.uniform(0.01, 10.0, size=10):
        drift = koranyi_norm(dilate(p, lam)) - lam * koranyi_norm(p)
        assert np.abs(drift).max() <= 1e-10

    pp, qq = (rng.uniform(-3, 3, size=(100_000, 3)) for _ in range(2))
    w = group_mul(group_inv(qq), pp)
    A = np.hypot(w[:, 0], w[:, 1])
    B = np.sqrt(np.abs(w[:, 2]))
    dk = koranyi_dist(pp, qq)
    assert (dk >= (A + B) / 2.0 - 1e-12).all()
    assert (dk <= 2**0.25 * (A + B) + 1e-12).all()
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_cc_bounds():
    t0 = time.perf_counter()
    lower, upper = cc_dist_bounds(HPoint(0, 0, 0), HPoint(1, 0, 0))
    assert lower == 1.0
    assert upper <= 1.001

    # independent circular-arc oracle first: a regular 256-gon with exact
    # unit lift upper-bounds the vertical distance
    k = 256
    rad = (2.0 * k * math.sin(2.0 * math.pi / k)) ** -0.5
    phi = np.linspace(0.0, 2.0 * math.pi, k + 1)
    loop = np.stack([rad * np.sin(phi), -rad * (1.0 - np.cos(phi))], axis=1)
    loop[-1] = loop[0]
    oracle_path = HorizontalPath(loop)
    assert oracle_path.lift()[-1] == pytest.approx(1.0, rel=1e-12)
    oracle = oracle_path.length()
    assert ROOT_PI < oracle < 1.001 * ROOT_PI

    lower, upper = cc_dist_bounds(HPoint(0, 0, 0), HPoint(0, 0, 1))
    assert lower == pytest.approx(ROOT_PI, rel=1e-12)
    assert upper <= oracle + 1e-9
    assert abs(upper - ROOT_PI) <= 0.02 * ROOT_PI

    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = HPoint(*rng.uniform(-1, 1, 3))
        b = HPoint(*rng.uniform(-1, 1, 3))
        res = cc_dist_bounds(a, b)
        assert res.lower <= res.upper + 1e-12
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_7a_linear_height_transfer():
    t0 = time.perf_counter()
    R = 256
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    xs = (np.arange(R) + 0.5) / R
    G = GraphMap.from_samples(dom, np.repeat(xs[:, None], R, axis=1))
    report = holder_transfer_check(G, seed=0)
    assert 0.95 <= report["alpha_u"] <= 1.05
    assert 0.45 <= report["alpha_graph"] <= 0.55
    assert report["passed"]
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_7b_flagship_transfer(flagship):
    g, cert, dom, _ = flagship
    report = holder_transfer_check(GraphMap.from_sum(dom, g), seed=0)
    assert report["alpha_u"] >= 0.9, (
        f"alpha_u {report['alpha_u']:.4f} < 0.9 "
        f"(fit r^2 {report['r_squared_u']:.3f}): the surface vanishes on "
        f"{1 - cert.coverage_fraction():.2%} of the domain, so displacement "
        "maxima saturate instead of scaling"
    )
    assert report["gap"] <= 0.1, f"transfer gap {report['gap']:.4f} > 0.1"


def test_criterion_8_determinism(tmp_path):
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    paths1, g, _ = run_construct(
        "heisenberg", dom, DETERMINISM_CFG, str(tmp_path / "a")
    )
    paths2, _, _ = execute_manifest(paths1["manifest"], str(tmp_path / "b"))
    for key in ("function", "certificate"):
        assert Path(paths1[key]).read_bytes() == Path(paths2[key]).read_bytes()
    loaded, _ = load_function(paths1["function"])
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, size=(1000, 2))
    for gamma in [(0, 0), (1, 0), (0, 1)]:
        np.testing.assert_array_equal(
            g.derivative(pts, gamma), loaded.derivative(pts, gamma)
        )
