"""The first Heisenberg group: algebra, gauges, horizontal paths, graphs.

Points are (x, y, t) with z = x + iy, multiplied by the law in `group`;
the left-invariant horizontal frame is X = d/dx + 2y d/dt and
Y = d/dy - 2x d/dt, and the metric making X, Y orthonormal gives
horizontal curves planar speed.  A planar polyline lifts to a horizontal
path by the midpoint rule, which is exact because the lift integrand is
affine along each segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoxDomain, BumpPolySum, _fold_columns, _uniform_in_box
from .group import CcBounds, HPoint, cc_dist_bounds, dilation, gauge, inverse, product

__all__ = [
    "HPoint",
    "HorizontalPath",
    "GraphMap",
    "CcBounds",
    "group_mul",
    "group_inv",
    "koranyi_norm",
    "koranyi_dist",
    "dilate",
    "cc_dist_bounds",
    "horizontality_residual",
    "characteristic_fraction",
    "holder_exponent",
    "holder_transfer_check",
    "circulation_counterexample",
]


# ---------------------------------------------------------------------------
# the group operations


def _columns(p) -> tuple:
    a = np.array(tuple(p)) if isinstance(p, HPoint) else np.asarray(p, float)
    if a.shape[-1] != 3:
        raise ValueError("a point needs 3 coordinates (x, y, t)")
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite")
    return a[..., 0], a[..., 1], a[..., 2]


def _apply(op, *points):
    """op on HPoints, as floats; otherwise on the points' coordinate columns,
    stacked back into an array shaped (..., 3)."""
    if all(isinstance(p, HPoint) for p in points):
        return HPoint(*op(*points))
    return np.stack(op(*map(_columns, points)), axis=-1)


def group_mul(p, q):
    """Group product; accepts HPoint or arrays shaped (..., 3)."""
    return _apply(product, p, q)


def group_inv(p):
    """Group inverse (-z, -t)."""
    return _apply(inverse, p)


def koranyi_norm(p):
    out = gauge(p if isinstance(p, HPoint) else _columns(p))
    return float(out) if np.ndim(out) == 0 else out


def koranyi_dist(p, q):
    """Gauge distance ||q^{-1} * p||; symmetric and left-invariant."""
    return koranyi_norm(group_mul(group_inv(q), p))


def dilate(p, lam: float):
    """The automorphism (z, t) -> (lam z, lam^2 t)."""
    if lam <= 0 or not math.isfinite(lam):
        raise ValueError("dilation factor must be positive and finite")
    return _apply(lambda w: dilation(w, lam), p)


# ---------------------------------------------------------------------------
# horizontal paths


@dataclass(frozen=True)
class HorizontalPath:
    """A planar polyline lifted horizontally.

    The t coordinate along the lift satisfies, per segment,
    dt_i = 2 ybar_i dx_i - 2 xbar_i dy_i with bars the segment midpoints;
    this is the exact integral of 2(y dx - x dy) along the segment.
    """

    waypoints: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.waypoints, float)
        if w.ndim != 2 or w.shape[1] != 2 or w.shape[0] < 2:
            raise ValueError("waypoints must be an (N+1, 2) array with N >= 1")
        if not np.isfinite(w).all() or not math.isfinite(self.t0):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "waypoints", w)

    def lift(self) -> np.ndarray:
        """t at every waypoint, starting from t0."""
        w = self.waypoints
        d = np.diff(w, axis=0)
        mid = 0.5 * (w[:-1] + w[1:])
        dt = 2.0 * (mid[:, 1] * d[:, 0] - mid[:, 0] * d[:, 1])
        return self.t0 + np.concatenate([[0.0], np.cumsum(dt)])

    def length(self) -> float:
        d = np.diff(self.waypoints, axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum())


# ---------------------------------------------------------------------------
# graphs over the plane


@dataclass(frozen=True)
class GraphMap:
    """The surface (x, y, u(x, y)) over a planar box.

    The height u is an exact cutoff-polynomial sum, such as a planar
    first-order build, so u and its gradient are evaluated in closed form
    at every point of the box.
    """

    domain: BoxDomain
    surface: BumpPolySum

    def __post_init__(self):
        if self.domain.dimension != 2:
            raise ValueError("graphs live over a planar box")
        if self.surface.dimension != 2:
            raise ValueError("surface must be a planar function sum")

    @classmethod
    def from_sum(cls, domain: BoxDomain, surface: BumpPolySum) -> "GraphMap":
        return cls(domain, surface)

    def height(self, pts) -> np.ndarray:
        return self.surface.derivative(np.atleast_2d(np.asarray(pts, float)))

    def gradient(self, pts) -> np.ndarray:
        """(du/dx, du/dy) at planar points, as an (M, 2) array."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return self.surface.jet(pts, [(1, 0), (0, 1)])

    def lift(self, pts) -> np.ndarray:
        """Phi(x, y) = (x, y, u(x, y)) as an (M, 3) array."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return np.concatenate([pts, self.height(pts)[:, None]], axis=1)


def horizontality_residual(G: GraphMap, at):
    """r = (du/dx - 2y, du/dy + 2x) at planar points.

    Zero exactly where the tangent plane is horizontal.
    """
    at = np.asarray(at, float)
    pts = np.atleast_2d(at)
    grad = G.gradient(pts)
    r = np.stack([grad[:, 0] - 2.0 * pts[:, 1], grad[:, 1] + 2.0 * pts[:, 0]], axis=1)
    return r[0] if at.ndim == 1 else r


# characteristic_fraction evaluates whole grid rows, about this many cell
# centers at a time, so its memory does not grow with the grid
_FRACTION_BLOCK = 1 << 16


def characteristic_fraction(G: GraphMap, tau: float, grid: int = 255) -> float:
    """Fraction of grid cells whose center residual stays within tau.

    The residual norm is the componentwise maximum, matching the
    per-component tolerance certified by the constructor.  The default
    grid, 255 cells per axis, aliases against a constructed surface's
    dyadic lattice: on the flagship surface, whose finest lattice has 1024
    cells per axis, it gives 0.0019 where uniform sampling gives 0.0069.
    Hits are counted one block of grid rows at a time.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if grid < 1:
        raise ValueError("grid must be at least 1")
    lo = np.asarray(G.domain.lower)
    h = G.domain.side_lengths() / grid
    ax = [lo[i] + h[i] * (np.arange(grid) + 0.5) for i in range(2)]
    step = max(1, _FRACTION_BLOCK // grid)
    hits = 0
    for r in range(0, grid, step):
        mesh = np.meshgrid(ax[0][r : r + step], ax[1], indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=1)
        worst = _fold_columns(np.maximum, np.abs(horizontality_residual(G, centers)))
        hits += int(np.count_nonzero(worst <= tau))
    # a count over grid**2 has the bits of the boolean mean
    return hits / grid**2


# ---------------------------------------------------------------------------
# Holder exponent estimation


def holder_exponent(dist, disp, zero_tol: float = 0.0):
    """Worst-case log-log slope of displacement against separation.

    dist and disp are arrays of one shape, one row per scale bin: the
    separations of the bin's pairs and the displacements across them.  Each
    bin is represented by its maximum displacement (a Holder bound is a
    worst-case statement).  Returns (exponent, {"degenerate", "r_squared"});
    fewer than two bins whose maxima exceed zero_tol yield the +inf sentinel
    (callers set zero_tol above the rounding floor of their displacements so
    constant data registers as constant).
    """
    dist = np.asarray(dist, float)
    disp = np.abs(np.asarray(disp, float))
    if dist.ndim != 2 or dist.shape != disp.shape:
        raise ValueError("dist and disp must be 2-D arrays of one shape")
    if dist.shape[0] < 8:
        raise ValueError("need at least 8 scale bins")
    if dist.shape[1] < 100:
        raise ValueError("need at least 100 pairs per bin")
    if not (dist > 0).all():
        raise ValueError("separations must be positive")
    reps = np.exp(np.log(dist).mean(axis=1))
    maxima = disp.max(axis=1)
    keep = maxima > zero_tol
    if keep.sum() < 2:
        return math.inf, {"degenerate": True, "r_squared": math.nan}
    lx, ly = np.log(reps[keep]), np.log(maxima[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    ss_res = float(((ly - fitted) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), {"degenerate": False, "r_squared": r_squared}


def _pair_points(dom: BoxDomain, scales, count: int, seed: int) -> tuple:
    """count pairs per scale, drawn scale by scale from default_rng(seed):
    every x, then every y, and the separations with one row per scale."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(dom.lower, float)
    hi = np.asarray(dom.upper, float)
    if 2.0 * max(scales) >= (hi - lo).min():
        raise ValueError("pair separation exceeds the domain")
    xs, ys = [], []
    for scale in scales:
        x = _uniform_in_box(rng, lo + scale, hi - scale, count)
        ang = rng.uniform(0.0, 2.0 * math.pi, size=count)
        xs.append(x)
        ys.append(x + scale * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    dist = np.repeat(np.asarray(scales, float), count).reshape(-1, count)
    return np.concatenate(xs + ys), dist


# holder_transfer_check's separation bins, as fractions of the domain's
# shorter side, and the pairs it draws per bin
_HOLDER_SCALES = tuple(np.geomspace(1e-3, 0.2, 12))
_HOLDER_PAIRS = 200


def holder_transfer_check(G: GraphMap, seed: int = 0) -> dict:
    """Estimate alpha_u (Euclidean) and alpha_Phi (Koranyi) and compare.

    An alpha-Holder height transfers to an alpha/2-Holder graph map, so
    the check asserts |alpha_Phi - alpha_u / 2| <= 0.1.  A degenerate
    height estimator (constant u) propagates its +inf sentinel and the
    comparison is reported as degenerate rather than passed.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    scales = float(G.domain.side_lengths().min()) * np.asarray(_HOLDER_SCALES)
    # probe the height range so evaluation rounding on constant data
    # cannot masquerade as displacement
    lo = np.asarray(G.domain.lower)
    ax = [lo[i] + G.domain.side_lengths()[i] * (np.arange(64) + 0.5) / 64 for i in (0, 1)]
    mesh = np.meshgrid(*ax, indexing="ij")
    probe = np.abs(G.height(np.stack([m.ravel() for m in mesh], axis=1))).max()
    zero_tol = 1e-10 * max(1.0, float(probe))
    # |u(x) - u(y)| and d_K(Phi(x), Phi(y)), each against |x - y|
    pts, dist = _pair_points(G.domain, scales, _HOLDER_PAIRS, seed)
    u = G.height(pts)
    disp = (u[: dist.size] - u[dist.size :]).reshape(dist.shape)
    alpha_u, diag_u = holder_exponent(dist, disp, zero_tol)
    pts, dist = _pair_points(G.domain, scales, _HOLDER_PAIRS, seed + 1)
    lifted = G.lift(pts)
    disp = koranyi_dist(lifted[: dist.size], lifted[dist.size :]).reshape(dist.shape)
    alpha_graph, diag_graph = holder_exponent(dist, disp)
    degenerate = diag_u["degenerate"] or diag_graph["degenerate"]
    gap = math.inf if degenerate else abs(alpha_graph - alpha_u / 2.0)
    return {
        "alpha_u": alpha_u,
        "alpha_graph": alpha_graph,
        "gap": gap,
        "passed": (not degenerate) and gap <= 0.1,
        "status": "degenerate" if degenerate else "ok",
        "r_squared_u": diag_u["r_squared"],
        "r_squared_graph": diag_graph["r_squared"],
    }


# ---------------------------------------------------------------------------
# the two anchor computations


def circulation_counterexample() -> tuple:
    """Line integrals of (2y, -2x) along the two L-shaped paths from
    (0,0) to (1,1); they disagree, so no function has this gradient.

    The midpoint rule is exact on segments (the integrand is affine), so
    the returned values carry no quadrature error.
    """
    path_a = HorizontalPath(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    path_b = HorizontalPath(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return float(path_a.lift()[-1]), float(path_b.lift()[-1])
