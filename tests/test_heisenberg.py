import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import lusinkit

from lusinkit.core import BoxDomain, BumpPolySum, PowerModulus
from lusinkit.heisenberg import (
    GraphMap,
    HorizontalPath,
    HPoint,
    cc_dist_bounds,
    characteristic_fraction,
    circulation_counterexample,
    dilate,
    euclidean_graph_sampler,
    group_inv,
    group_mul,
    holder_exponent,
    holder_transfer_check,
    horizontality_residual,
    koranyi_dist,
    koranyi_graph_sampler,
    koranyi_norm,
)
from lusinkit.lusin import BuildConfig, field_catalog, multi_stage_build

IDENTITY = HPoint(0.0, 0.0, 0.0)


def _random_points(rng, count, span=2.0):
    return rng.uniform(-span, span, size=(count, 3))


class TestGroupOps:
    def test_identity(self):
        p = HPoint(0.3, -1.2, 0.7)
        assert group_mul(p, IDENTITY) == p
        assert group_mul(IDENTITY, p) == p

    def test_product_example(self):
        out = group_mul(HPoint(1, 0, 0), HPoint(0, 1, 0))
        assert out == HPoint(1.0, 1.0, -2.0)

    def test_inverse(self):
        p = HPoint(1, 1, 5)
        q = group_inv(p)
        assert q == HPoint(-1.0, -1.0, -5.0)
        assert group_mul(p, q) == IDENTITY
        assert group_mul(q, p) == IDENTITY

    def test_inverse_involution(self):
        rng = np.random.default_rng(1)
        pts = _random_points(rng, 100)
        npt.assert_array_equal(group_inv(group_inv(pts)), pts)

    def test_associativity_battery(self):
        rng = np.random.default_rng(2)
        p, q, r = (_random_points(rng, 10_000) for _ in range(3))
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_array_shapes(self):
        rng = np.random.default_rng(3)
        p = _random_points(rng, 5)
        out = group_mul(p, group_inv(p))
        assert out.shape == (5, 3)
        npt.assert_allclose(out, 0.0, atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            HPoint(0.0, math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            group_mul(np.array([0.0, 0.0, math.inf]), np.zeros(3))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="coordinates"):
            koranyi_norm(np.zeros((4, 2)))


class TestKoranyi:
    def test_gauge_examples(self):
        assert koranyi_dist(IDENTITY, HPoint(1, 0, 0)) == 1.0
        assert koranyi_dist(IDENTITY, HPoint(0, 0, 4)) == pytest.approx(2.0, rel=1e-15)

    def test_symmetry_battery(self):
        rng = np.random.default_rng(4)
        p, q = _random_points(rng, 10_000), _random_points(rng, 10_000)
        assert np.abs(koranyi_dist(p, q) - koranyi_dist(q, p)).max() <= 1e-12

    def test_triangle_battery(self):
        rng = np.random.default_rng(5)
        p, q, r = (_random_points(rng, 10_000) for _ in range(3))
        slack = koranyi_dist(p, r) + koranyi_dist(r, q) - koranyi_dist(p, q)
        assert slack.min() >= -1e-10

    def test_positivity_off_diagonal(self):
        rng = np.random.default_rng(6)
        p, q = _random_points(rng, 10_000), _random_points(rng, 10_000)
        assert koranyi_dist(p, q).min() > 0.0

    def test_left_invariance_battery(self):
        rng = np.random.default_rng(7)
        p, q, r = (_random_points(rng, 10_000) for _ in range(3))
        moved = koranyi_dist(group_mul(r, p), group_mul(r, q))
        assert np.abs(moved - koranyi_dist(p, q)).max() <= 1e-10

    def test_dilation_homogeneity(self):
        rng = np.random.default_rng(8)
        p = _random_points(rng, 1000)
        for lam in rng.uniform(0.01, 10.0, size=20):
            drift = koranyi_norm(dilate(p, lam)) - lam * koranyi_norm(p)
            assert np.abs(drift).max() <= 1e-10

    def test_dilate_validation(self):
        with pytest.raises(ValueError, match="positive"):
            dilate(HPoint(1, 0, 0), 0.0)

    def test_kor_comparison_battery(self):
        # with A = |z - z'| and B the square root of the vertical part,
        # (A + B)/2 <= d_K <= 2^(1/4) (A + B)
        rng = np.random.default_rng(9)
        p, q = (rng.uniform(-3, 3, size=(100_000, 3)) for _ in range(2))
        w = group_mul(group_inv(q), p)
        A = np.hypot(w[:, 0], w[:, 1])
        B = np.sqrt(np.abs(w[:, 2]))
        dk = koranyi_dist(p, q)
        assert (dk >= (A + B) / 2.0 - 1e-12).all()
        assert (dk <= 2**0.25 * (A + B) + 1e-12).all()

    def test_empirical_euclidean_comparison(self):
        # on [-1,1]^3 the gauge sits between c1 |p-q| and c2 |p-q|^(1/2)
        rng = np.random.default_rng(10)
        p, q = (rng.uniform(-1, 1, size=(100_000, 3)) for _ in range(2))
        dk = koranyi_dist(p, q)
        eu = np.linalg.norm(p - q, axis=1)
        c1 = float((dk / eu).min())
        c2 = float((dk / np.sqrt(eu)).max())
        assert 0.2 < c1 < 1.2
        assert 1.0 < c2 < 2.5
        assert (c1 * eu <= dk + 1e-12).all()
        assert (dk <= c2 * np.sqrt(eu) + 1e-12).all()


class TestHorizontalPath:
    def test_lift_midpoint_rule(self):
        path = HorizontalPath(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        npt.assert_allclose(path.lift(), [0.0, 0.0, -2.0], atol=1e-15)
        assert path.length() == pytest.approx(2.0)
        assert path.lift()[-1] == -2.0
        npt.assert_array_equal(path.waypoints[-1], [1.0, 1.0])

    def test_radial_segments_do_not_climb(self):
        # a straight segment leaving the origin sweeps no area
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            path = HorizontalPath(np.array([[0.0, 0.0], [a, b]]))
            assert path.lift()[-1] == 0.0

    def test_start_offset(self):
        path = HorizontalPath(np.array([[0.0, 0.0], [1.0, 0.0]]), t0=7.5)
        assert path.lift()[0] == 7.5
        assert path.lift()[-1] == 7.5

    def test_waypoint_validation(self):
        with pytest.raises(ValueError, match="waypoints"):
            HorizontalPath(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            HorizontalPath(np.array([[0.0, 0.0], [math.nan, 1.0]]))


def _arc_points(chord: float, area: float, count: int) -> np.ndarray:
    """Points on a circular arc from (0,0) to (chord,0) with given signed
    area between arc and chord (positive = above the axis)."""
    if abs(area) < 1e-15 * max(chord, 1.0) ** 2:
        s = np.linspace(0.0, 1.0, count + 2)[1:-1]
        return np.stack([chord * s, np.zeros_like(s)], axis=1)
    if chord < 1e-15:
        # closed loop: a full circle through the origin, oriented so the
        # lift gains 4*area like the arc branch below
        r = math.sqrt(abs(area) / math.pi)
        phi = np.linspace(0.0, 2.0 * math.pi, count + 2)[1:-1]
        sgn = -1.0 if area > 0 else 1.0
        return np.stack([r * np.sin(phi), sgn * r * (1.0 - np.cos(phi))], axis=1)
    # circular segment area r^2 (phi - sin phi) / 2 with chord 2 r sin(phi/2)
    # grows monotonically in the opening angle phi; bisect for it
    target = abs(area)

    def seg_area(phi):
        r = chord / (2.0 * math.sin(phi / 2.0))
        return 0.5 * r * r * (phi - math.sin(phi))

    lo, hi = 1e-9, 2.0 * math.pi - 1e-9
    if seg_area(hi) < target:
        phi = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if seg_area(mid) < target:
                lo = mid
            else:
                hi = mid
        phi = 0.5 * (lo + hi)
    r = chord / (2.0 * math.sin(phi / 2.0))
    cx, cy = chord / 2.0, -r * math.cos(phi / 2.0)
    base = math.atan2(-cy, -cx)
    ang = base + np.linspace(0.0, phi, count + 2)[1:-1] * (-1.0)
    pts = np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)
    if area < 0:
        pts[:, 1] = -pts[:, 1]
    return pts


def _arc_path_length(w: HPoint, count: int = 4096) -> float:
    """Length of a genuine horizontal path from the identity to w.

    The arc ansatz over the chord is rotated onto it and lifted exactly;
    a circle of length sqrt(pi |gap|) then closes the t-gap the polygon
    leaves, so the length is an upper bound on the CC distance.
    """
    ang = math.atan2(w.y, w.x)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    inner = _arc_points(math.hypot(w.x, w.y), w.t / 4.0, count) @ rot.T
    path = HorizontalPath(np.concatenate([[[0.0, 0.0]], inner, [[w.x, w.y]]]))
    gap = w.t - path.lift()[-1]
    return path.length() + math.sqrt(math.pi * abs(gap))


class TestCcBounds:
    def test_same_point(self):
        p = HPoint(0.3, -0.2, 0.5)
        assert tuple(cc_dist_bounds(p, p)) == (0.0, 0.0)

    def test_horizontal_segment(self):
        lower, upper = cc_dist_bounds(IDENTITY, HPoint(1, 0, 0))
        assert lower == 1.0
        assert upper <= 1.0 + 1e-3

    def test_vertical_against_arc_oracle(self):
        # oracle first: a regular polygon whose exact lift reaches t = 1;
        # its perimeter upper-bounds the distance and shrinks to sqrt(pi)
        k = 256
        r = (2.0 * k * math.sin(2.0 * math.pi / k)) ** -0.5
        phi = np.linspace(0.0, 2.0 * math.pi, k + 1)
        loop = np.stack([r * np.sin(phi), -r * (1.0 - np.cos(phi))], axis=1)
        loop[-1] = loop[0]
        oracle_path = HorizontalPath(loop)
        assert oracle_path.lift()[-1] == pytest.approx(1.0, rel=1e-12)
        oracle = oracle_path.length()
        root_pi = math.sqrt(math.pi)
        assert root_pi < oracle < root_pi * 1.001

        lower, upper = cc_dist_bounds(IDENTITY, HPoint(0, 0, 1))
        assert lower <= upper <= oracle + 1e-9
        assert abs(upper - root_pi) <= 0.02 * root_pi
        assert lower == pytest.approx(root_pi, rel=1e-12)

    def test_sandwich_battery(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = HPoint(*rng.uniform(-1, 1, 3))
            q = HPoint(*rng.uniform(-1, 1, 3))
            b = cc_dist_bounds(p, q)
            assert b.lower <= b.upper + 1e-12

    def test_against_arc_path_oracle(self):
        rng = np.random.default_rng(29)
        pairs = [
            (HPoint(*rng.uniform(-1, 1, 3)), HPoint(*rng.uniform(-1, 1, 3)))
            for _ in range(200)
        ]
        pairs += [
            (IDENTITY, q)
            for q in (
                HPoint(1.0, 0.0, 1e-12),  # |t| <= 1e-12 c^2
                HPoint(0.3, -0.4, -2e-13),
                HPoint(1e-6, 0.0, 1.0),  # c <= 1e-6
                HPoint(0.0, -3e-7, -0.5),
                HPoint(1e-3, 0.0, 1.0),  # phi near 2 pi
                HPoint(1.0, 0.0, 1e-40),  # |t| / c^2 beyond the bisection
                HPoint(1e-200, 0.0, 1.0),
            )
        ]
        root_pi = math.sqrt(math.pi)
        for p, q in pairs:
            w = group_mul(group_inv(p), q)
            A, B = math.hypot(w.x, w.y), math.sqrt(abs(w.t))
            lower, upper = cc_dist_bounds(p, q)
            assert max(A, root_pi * B - A) <= lower <= upper <= A + root_pi * B
            assert (upper - lower) / upper <= 1e-9
            oracle = _arc_path_length(w)
            assert lower <= oracle <= upper * (1.0 + 1e-3)
            r = HPoint(*rng.uniform(-1, 1, 3))
            lo2, up2 = cc_dist_bounds(group_mul(r, p), group_mul(r, q))
            assert max(lower, lo2) <= min(upper, up2)


class TestGraphMap:
    def test_sample_validation(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="square"):
            GraphMap.from_samples(dom, np.zeros((4, 5)))
        with pytest.raises(ValueError, match="at least 3"):
            GraphMap.from_samples(dom, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="planar"):
            GraphMap.from_samples(BoxDomain((0.0,), (1.0,)), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="exactly one"):
            GraphMap(dom)

    def test_affine_height_and_gradient(self):
        # bilinear interpolation and central differences are exact on
        # affine data
        R = 64
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        xs = (np.arange(R) + 0.5) / R
        samples = 2.0 * xs[:, None] - 3.0 * xs[None, :] + 0.25
        G = GraphMap.from_samples(dom, samples)
        rng = np.random.default_rng(14)
        pts = rng.uniform(1.0 / R, 1.0 - 1.0 / R, size=(500, 2))
        npt.assert_allclose(
            G.height(pts), 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.25, atol=1e-12
        )
        grad, valid = G.gradient(pts)
        assert valid.all()
        npt.assert_allclose(grad[:, 0], 2.0, atol=1e-9)
        npt.assert_allclose(grad[:, 1], -3.0, atol=1e-9)

    def test_lift_shape(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        G = GraphMap.from_sum(dom, BumpPolySum(2, 1))
        out = G.lift(np.array([[0.2, 0.3], [0.4, 0.9]]))
        assert out.shape == (2, 3)
        npt.assert_array_equal(out[:, 2], 0.0)


class TestResidual:
    def test_plane_is_characteristic_at_origin(self):
        dom = BoxDomain((-0.5, -0.5), (0.5, 0.5))
        G = GraphMap.from_samples(dom, np.zeros((32, 32)))
        npt.assert_allclose(horizontality_residual(G, np.array([0.0, 0.0])), 0.0)

    def test_zero_surface_residual_is_minus_field(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        G = GraphMap.from_sum(dom, BumpPolySum(2, 1))
        pts = np.array([[0.3, 0.7], [0.1, 0.2]])
        r = horizontality_residual(G, pts)
        assert isinstance(r, np.ndarray) and not isinstance(r, np.ma.MaskedArray)
        npt.assert_allclose(r, np.stack([-2 * pts[:, 1], 2 * pts[:, 0]], axis=1))

    def test_2xy_residual_at_centers(self):
        R = 128
        dom = BoxDomain((-0.5, -0.5), (0.5, 0.5))
        xs = (np.arange(R) + 0.5) / R - 0.5
        G = GraphMap.from_samples(dom, 2.0 * xs[:, None] * xs[None, :])
        centers = np.stack([xs[5:20], xs[60:75]], axis=1)
        r = horizontality_residual(G, centers)
        npt.assert_allclose(r[:, 0], 0.0, atol=1e-12)
        npt.assert_allclose(r[:, 1], 4.0 * xs[5:20], atol=1e-12)

    def test_boundary_points_masked(self):
        R = 64
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        xs = (np.arange(R) + 0.5) / R
        G = GraphMap.from_samples(dom, 2.0 * xs[:, None] * xs[None, :])
        r = horizontality_residual(G, np.array([[0.001, 0.5], [0.5, 0.5]]))
        assert isinstance(r, np.ma.MaskedArray)
        assert r.mask[0].all() and not r.mask[1].any()


class TestCharacteristicFraction:
    def test_2xy_two_center_columns(self):
        # the residual is (0, 4x); at tau just above 2h only the two
        # columns straddling x = 0 qualify, minus the masked boundary rows
        R = 128
        dom = BoxDomain((-0.5, -0.5), (0.5, 0.5))
        xs = (np.arange(R) + 0.5) / R - 0.5
        G = GraphMap.from_samples(dom, 2.0 * xs[:, None] * xs[None, :])
        frac = characteristic_fraction(G, 2.0001 / R)
        assert frac == pytest.approx((2 * R - 4) / R**2, abs=1e-12)
        assert characteristic_fraction(G, 1e-9) == 0.0

    def test_flat_plane_band_near_origin(self):
        # u = 0 leaves residual (-2y, 2x); the characteristic cells form
        # the square |x|, |y| <= tau/2 around the origin
        R = 100
        dom = BoxDomain((-0.5, -0.5), (0.5, 0.5))
        G = GraphMap.from_samples(dom, np.zeros((R, R)))
        assert characteristic_fraction(G, 0.1) == pytest.approx(100 / R**2, abs=1e-12)

    def test_tau_validation(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        G = GraphMap.from_sum(dom, BumpPolySum(2, 1))
        with pytest.raises(ValueError, match="tau"):
            characteristic_fraction(G, 0.0)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_validation(self, grid):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        G = GraphMap.from_sum(dom, BumpPolySum(2, 1))
        with pytest.raises(ValueError, match="grid"):
            characteristic_fraction(G, 1e-3, grid=grid)


class TestHolderExponent:
    @staticmethod
    def _planar_sampler(fn, lo=-0.4, hi=0.4):
        def sampler(scale, count, rng):
            x = rng.uniform(lo + scale, hi - scale, size=(count, 2))
            ang = rng.uniform(0.0, 2.0 * math.pi, size=count)
            y = x + scale * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            return np.full(count, scale), fn(x) - fn(y)

        return sampler

    def test_linear_is_lipschitz(self):
        sampler = self._planar_sampler(lambda p: p[:, 0])
        alpha, diag = holder_exponent(
            sampler, np.geomspace(1e-3, 0.2, 10), seed=3, pairs_per_bin=200
        )
        assert 0.95 <= alpha <= 1.05
        assert diag["r_squared"] >= 0.999

    def test_square_root_exponent(self):
        # pairs concentrated near the |x|^(1/2) kink keep the worst-case
        # statistic scale-free
        def sampler(scale, count, rng):
            x0 = rng.uniform(-scale, scale, size=count)
            x1 = rng.uniform(-0.4, 0.4, size=count)
            ang = rng.uniform(0.0, 2.0 * math.pi, size=count)
            x = np.stack([x0, x1], axis=1)
            y = x + scale * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            return np.full(count, scale), np.sqrt(np.abs(x[:, 0])) - np.sqrt(
                np.abs(y[:, 0])
            )

        alpha, diag = holder_exponent(
            sampler, np.geomspace(1e-3, 0.2, 12), seed=1, pairs_per_bin=400
        )
        assert 0.45 <= alpha <= 0.55
        assert diag["r_squared"] >= 0.99

    def test_flat_graph_transfers_at_half(self):
        # u = 0: the Koranyi cross term alone scales as sqrt(separation)
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        G = GraphMap.from_sum(dom, BumpPolySum(2, 1))
        alpha, _ = holder_exponent(
            koranyi_graph_sampler(G), np.geomspace(1e-3, 0.2, 12), seed=5,
            pairs_per_bin=200,
        )
        assert 0.45 <= alpha <= 0.55

    def test_degenerate_sampler_sentinel(self):
        sampler = self._planar_sampler(lambda p: np.zeros(p.shape[0]))
        alpha, diag = holder_exponent(
            sampler, np.geomspace(1e-3, 0.2, 8), seed=0, pairs_per_bin=100
        )
        assert math.isinf(alpha)
        assert diag["degenerate"]

    def test_preconditions(self):
        sampler = self._planar_sampler(lambda p: p[:, 0])
        scales = np.geomspace(1e-3, 0.2, 8)
        with pytest.raises(ValueError, match="8 scale bins"):
            holder_exponent(sampler, scales[:7], pairs_per_bin=100)
        with pytest.raises(ValueError, match="100 pairs"):
            holder_exponent(sampler, scales, pairs_per_bin=99)
        with pytest.raises(ValueError, match="positive"):
            holder_exponent(sampler, np.concatenate([[0.0], scales[1:]]))

    def test_short_sampler_rejected(self):
        def sampler(scale, count, rng):
            return np.full(count - 1, scale), np.zeros(count - 1)

        with pytest.raises(ValueError, match="fewer pairs"):
            holder_exponent(sampler, np.geomspace(1e-3, 0.2, 8), pairs_per_bin=100)


class TestHolderTransfer:
    def test_linear_height(self):
        R = 256
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        xs = (np.arange(R) + 0.5) / R
        G = GraphMap.from_samples(dom, np.repeat(xs[:, None], R, axis=1))
        report = holder_transfer_check(G, seed=0)
        assert report["status"] == "ok"
        assert 0.95 <= report["alpha_u"] <= 1.05
        assert 0.45 <= report["alpha_graph"] <= 0.55
        assert report["passed"]

    def test_constant_height_degenerates(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        G = GraphMap.from_samples(dom, np.full((64, 64), 3.25))
        report = holder_transfer_check(G, seed=2)
        assert report["status"] == "degenerate"
        assert math.isinf(report["alpha_u"])
        assert not report["passed"]


class TestCirculation:
    def test_two_paths_disagree(self):
        a, b = circulation_counterexample()
        assert a == pytest.approx(-2.0, abs=1e-10)
        assert b == pytest.approx(2.0, abs=1e-10)
        assert b - a == pytest.approx(4.0, abs=1e-10)


@pytest.fixture(scope="module")
def built():
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    cfg = BuildConfig(
        eps=0.05,
        sigma=0.5,
        tau=5e-3,
        theta=0.5,
        grid=32,
        stages=4,
        refine_max=3,
        modulus=PowerModulus(1.0),
    )
    g, cert = multi_stage_build(field_catalog("heisenberg"), dom, cfg)
    return (GraphMap.from_sum(dom, g), cert), cfg


class TestBuildHorizontalGraph:
    def test_returns_analytic_graph(self, built):
        (G, cert), _ = built
        assert G.surface is not None
        assert cert.field_name == "heisenberg"
        assert cert.order == 1

    def test_characteristic_fraction_tracks_coverage(self, built):
        (G, cert), cfg = built
        frac = characteristic_fraction(G, cfg.tau)
        assert frac == pytest.approx(0.2445, abs=2e-3)
        assert frac >= cert.coverage_fraction() - 0.01

    def test_budget_ledgers_transfer(self, built):
        (G, cert), cfg = built
        assert cert.budgets_ok()
        assert cert.modulus_ledger <= 1.0

    def test_rejects_non_planar_domain(self):
        with pytest.raises(ValueError, match="planar"):
            GraphMap.from_sum(BoxDomain((0.0,), (1.0,)), BumpPolySum(1, 1))


def test_import_leaves_the_builder_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lusinkit.__file__)))
    probe = "import sys, lusinkit.heisenberg; print('lusinkit.lusin' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
