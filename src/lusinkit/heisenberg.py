"""The first Heisenberg group: algebra, gauges, horizontal paths, graphs.

Points are (x, y, t) with z = x + iy.  The group law is

    (z, t) * (z', t') = (z + z', t + t' + 2 Im(z conj(z'))),

the left-invariant horizontal frame is X = d/dx + 2y d/dt and
Y = d/dy - 2x d/dt, and the metric making X, Y orthonormal gives
horizontal curves planar speed.  A planar polyline lifts to a horizontal
path by the midpoint rule, which is exact because the lift integrand is
affine along each segment.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import BoxDomain, BumpPolySum

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
    "euclidean_graph_sampler",
    "koranyi_graph_sampler",
    "holder_transfer_check",
    "circulation_counterexample",
]


# ---------------------------------------------------------------------------
# points and the group operations


@dataclass(frozen=True)
class HPoint:
    """A point (x, y, t); the identity element is (0, 0, 0)."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        for name in ("x", "y", "t"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t])


def _xyz(p) -> np.ndarray:
    if isinstance(p, HPoint):
        return p.as_array()
    a = np.asarray(p, float)
    if a.shape[-1] != 3:
        raise ValueError("a point needs 3 coordinates (x, y, t)")
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite")
    return a


def group_mul(p, q):
    """Group product; accepts HPoint or arrays shaped (..., 3)."""
    a, b = _xyz(p), _xyz(q)
    t = a[..., 2] + b[..., 2] + 2.0 * (b[..., 0] * a[..., 1] - a[..., 0] * b[..., 1])
    out = np.stack([a[..., 0] + b[..., 0], a[..., 1] + b[..., 1], t], axis=-1)
    if isinstance(p, HPoint) and isinstance(q, HPoint):
        return HPoint(*out)
    return out


def group_inv(p):
    """Group inverse (-z, -t)."""
    a = _xyz(p)
    if isinstance(p, HPoint):
        return HPoint(-p.x, -p.y, -p.t)
    return -a


def koranyi_norm(p):
    a = _xyz(p)
    z2 = a[..., 0] ** 2 + a[..., 1] ** 2
    out = (z2**2 + a[..., 2] ** 2) ** 0.25
    return float(out) if out.ndim == 0 else out


def koranyi_dist(p, q):
    """Gauge distance ||q^{-1} * p||; symmetric and left-invariant."""
    return koranyi_norm(group_mul(group_inv(q), p))


def dilate(p, lam: float):
    """The automorphism (z, t) -> (lam z, lam^2 t)."""
    if lam <= 0 or not math.isfinite(lam):
        raise ValueError("dilation factor must be positive and finite")
    a = _xyz(p)
    out = np.stack([lam * a[..., 0], lam * a[..., 1], lam**2 * a[..., 2]], axis=-1)
    if isinstance(p, HPoint):
        return HPoint(*out)
    return out


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
# Carnot-Caratheodory bounds


@dataclass(frozen=True)
class CcBounds:
    """Certified sandwich for the CC distance; unpacks as (lower, upper).

    loose is always False; `heis dist` prints it to keep its four columns.
    """

    lower: float
    upper: float
    loose: bool = False

    def __iter__(self):
        return iter((self.lower, self.upper))


# outward rounding of both bracket ends, relative; covers the evaluation
# error of the bisection and of the length at its ends
_PAD = 16.0 * sys.float_info.epsilon
# for |t| / c^2 outside [1 / _TIGHT, _TIGHT] the analytic sandwich is
# narrower than _PAD, and the bisection would under- or overflow
_TIGHT = 1e32


def _phi_minus_sin(phi: float) -> float:
    """phi - sin(phi), by its Taylor series up to phi = 1 to avoid cancellation."""
    if phi > 1.0:
        return phi - math.sin(phi)
    x2 = phi * phi
    term = total = phi * x2 / 6.0
    for k in range(4, 20, 2):
        term *= -x2 / (k * (k + 1))
        total += term
    return total


def cc_dist_bounds(p, q) -> CcBounds:
    """The CC distance as a bracket (lower, upper) a few ulps wide.

    Geodesics of H^1 project to circular arcs (Dido's problem).  With
    (z, t) = p^-1 * q and chord c = |z|, the arc encloses area |t| / 4
    with the chord, so its opening angle phi in (0, 2 pi) is the root of

        (phi - sin phi) / (2 sin^2(phi / 2)) = |t| / c^2,

    whose left side increases in phi, and the distance is the arc length
    d = c phi / (2 sin(phi / 2)), which increases in phi too.  Bisection
    narrows phi until the bracket stops shrinking in floating point; past
    phi = pi it runs on 2 pi - phi, so angles near a full turn keep their
    relative precision.  d at the bracket ends, rounded outwards by
    16 ulps, gives the bounds, clipped to the analytic sandwich
    max(c, sqrt(pi |t|) - c) <= d <= c + sqrt(pi |t|); where |t| / c^2
    is below 1e-32 or above 1e32 that sandwich is the narrower bracket
    and is returned as is.  t = 0 is exact at (c, c), the straight
    segment, and c = 0 at sqrt(pi |t|), a full circle.  The analytic
    bounds are evaluated in floating point, so where one is tight it can
    differ from d by an ulp of rounding.
    """
    w = _xyz(group_mul(group_inv(p), q))
    c = math.hypot(float(w[0]), float(w[1]))
    T = abs(float(w[2]))
    if T == 0.0:
        return CcBounds(c, c)
    # the length of a circle enclosing area |t| / 4
    circle = math.sqrt(math.pi) * math.sqrt(T)
    if c == 0.0:
        return CcBounds(circle, circle)
    # a path to (z, t) is no shorter than the chord, nor than that circle
    # less the chord; the chord followed by the circle is a path
    floor = max(c, circle - c)
    ceiling = c + circle
    ratio = T / c / c
    if not 1.0 / _TIGHT <= ratio <= _TIGHT:
        return CcBounds(floor, ceiling)
    # x is phi up to pi, where the left side equals pi / 2, and 2 pi - phi beyond
    wide = ratio > 0.5 * math.pi

    def area_ratio(x):
        s = math.sin(0.5 * x)
        excess = 2.0 * math.pi - x + math.sin(x) if wide else _phi_minus_sin(x)
        return excess / (2.0 * s * s)

    def length(x):
        phi = 2.0 * math.pi - x if wide else x
        return c * phi / (2.0 * math.sin(0.5 * x))

    lo, hi = 0.0, math.pi
    mid = 0.5 * math.pi
    while lo < mid < hi:
        # the area ratio grows with phi, so it falls with x = 2 pi - phi
        if (area_ratio(mid) < ratio) != wide:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    lower, upper = sorted((length(lo), length(hi)))
    lower = max(floor, lower * (1.0 - _PAD))
    return CcBounds(lower, min(ceiling, upper * (1.0 + _PAD)))


# ---------------------------------------------------------------------------
# graphs over the plane


@dataclass(frozen=True)
class GraphMap:
    """A surface (x, y, u(x, y)) over a planar box.

    Backed either by an exact cutoff-polynomial sum (differentiable
    everywhere) or by grid samples at cell centers (differentiable, via
    central differences, away from the boundary ring).
    """

    domain: BoxDomain
    surface: BumpPolySum | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.domain.dimension != 2:
            raise ValueError("graphs live over a planar box")
        if (self.surface is None) == (self.samples is None):
            raise ValueError("provide exactly one of surface or samples")
        if self.surface is not None and self.surface.dimension != 2:
            raise ValueError("surface must be a planar function sum")
        if self.samples is not None:
            s = np.asarray(self.samples, float)
            if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 3:
                raise ValueError("samples must be a square grid, at least 3 per axis")
            object.__setattr__(self, "samples", s)

    @classmethod
    def from_sum(cls, domain: BoxDomain, surface: BumpPolySum) -> "GraphMap":
        return cls(domain, surface=surface)

    @classmethod
    def from_samples(cls, domain: BoxDomain, values) -> "GraphMap":
        return cls(domain, samples=np.asarray(values, float))

    @property
    def grid(self) -> int | None:
        return None if self.samples is None else self.samples.shape[0]

    def _cell_steps(self):
        R = self.samples.shape[0]
        return self.domain.side_lengths() / R

    def height(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.surface is not None:
            return self.surface.value(pts)
        # bilinear interpolation between cell-center samples
        R = self.samples.shape[0]
        h = self._cell_steps()
        u = (pts - np.asarray(self.domain.lower)) / h - 0.5
        u = np.clip(u, 0.0, R - 1.0)
        i0 = np.minimum(u.astype(int), R - 2)
        f = u - i0
        s = self.samples
        return (
            s[i0[:, 0], i0[:, 1]] * (1 - f[:, 0]) * (1 - f[:, 1])
            + s[i0[:, 0] + 1, i0[:, 1]] * f[:, 0] * (1 - f[:, 1])
            + s[i0[:, 0], i0[:, 1] + 1] * (1 - f[:, 0]) * f[:, 1]
            + s[i0[:, 0] + 1, i0[:, 1] + 1] * f[:, 0] * f[:, 1]
        )

    def gradient(self, pts):
        """(gradient (M, 2), valid mask (M,)); grid-backed graphs use the
        central difference at the nearest cell center, undefined on the
        boundary ring."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.surface is not None:
            grad = self.surface.jet(pts, [(1, 0), (0, 1)])
            return grad, np.ones(pts.shape[0], bool)
        R = self.samples.shape[0]
        h = self._cell_steps()
        idx = ((pts - np.asarray(self.domain.lower)) / h - 0.5).round().astype(int)
        idx = np.clip(idx, 0, R - 1)
        valid = ((idx >= 1) & (idx <= R - 2)).all(axis=1)
        i = np.clip(idx, 1, R - 2)
        gx = (self.samples[i[:, 0] + 1, i[:, 1]] - self.samples[i[:, 0] - 1, i[:, 1]]) / (
            2.0 * h[0]
        )
        gy = (self.samples[i[:, 0], i[:, 1] + 1] - self.samples[i[:, 0], i[:, 1] - 1]) / (
            2.0 * h[1]
        )
        return np.stack([gx, gy], axis=1), valid

    def lift(self, pts) -> np.ndarray:
        """Phi(x, y) = (x, y, u(x, y)) as an (M, 3) array."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return np.concatenate([pts, self.height(pts)[:, None]], axis=1)


def horizontality_residual(G: GraphMap, at):
    """r = (du/dx - 2y, du/dy + 2x) at planar points.

    Zero exactly where the tangent plane is horizontal.  For grid-backed
    graphs the boundary ring is non-differentiable and the result is a
    masked array there; analytic graphs return a plain array.
    """
    at = np.asarray(at, float)
    single = at.ndim == 1
    pts = np.atleast_2d(at)
    grad, valid = G.gradient(pts)
    r = np.stack([grad[:, 0] - 2.0 * pts[:, 1], grad[:, 1] + 2.0 * pts[:, 0]], axis=1)
    if not valid.all():
        r = np.ma.masked_array(r, mask=np.repeat(~valid[:, None], 2, axis=1))
    return r[0] if single else r


def characteristic_fraction(G: GraphMap, tau: float, grid: int | None = None) -> float:
    """Fraction of grid cells whose center residual stays within tau.

    The residual norm is the componentwise maximum, matching the
    per-component tolerance certified by the constructor.  Masked
    (non-differentiable) centers count as failing.  The default analytic
    resolution is odd so the probe centers never align with the dyadic
    plateau boundaries of constructed surfaces, where the residual is
    atypically small.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    R = grid if grid is not None else (G.grid or 255)
    if R < 1:
        raise ValueError("grid must be at least 1")
    lo = np.asarray(G.domain.lower)
    h = G.domain.side_lengths() / R
    ax = [lo[i] + h[i] * (np.arange(R) + 0.5) for i in range(2)]
    mesh = np.meshgrid(*ax, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    r = horizontality_residual(G, centers)
    worst = np.abs(np.ma.filled(r, np.inf)).max(axis=1)
    return float((worst <= tau).mean())


# ---------------------------------------------------------------------------
# Holder exponent estimation


def holder_exponent(
    sampler, scales, seed: int = 0, pairs_per_bin: int = 128, zero_tol: float = 0.0
):
    """Worst-case log-log slope of displacement against separation.

    sampler(scale, count, rng) returns (separations, displacements) for
    count pairs at the requested separation scale.  Each scale is one
    regression bin represented by its maximum displacement (a Holder
    bound is a worst-case statement).  Returns (exponent, diagnostics);
    a sampler whose displacements never exceed zero_tol yields the +inf
    sentinel (callers working through interpolation set zero_tol above
    the rounding floor so constant data registers as constant).
    """
    scales = np.asarray(scales, float)
    if scales.size < 8:
        raise ValueError("need at least 8 scale bins")
    if pairs_per_bin < 100:
        raise ValueError("need at least 100 pairs per bin")
    if (scales <= 0).any():
        raise ValueError("scales must be positive")
    rng = np.random.default_rng(seed)
    reps = np.empty(scales.size)
    maxima = np.empty(scales.size)
    for j, s in enumerate(np.sort(scales)):
        dist, disp = sampler(float(s), pairs_per_bin, rng)
        dist = np.asarray(dist, float)
        disp = np.abs(np.asarray(disp, float))
        if dist.size < pairs_per_bin:
            raise ValueError("sampler returned fewer pairs than requested")
        reps[j] = np.exp(np.log(dist).mean())
        maxima[j] = disp.max()
    keep = maxima > zero_tol
    diagnostics = {
        "scales": reps.tolist(),
        "max_displacement": maxima.tolist(),
        "bins_used": int(keep.sum()),
        "degenerate": False,
        "r_squared": float("nan"),
    }
    if keep.sum() < 2:
        diagnostics["degenerate"] = True
        return math.inf, diagnostics
    lx, ly = np.log(reps[keep]), np.log(maxima[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    ss_res = float(((ly - fitted) ** 2).sum())
    diagnostics["r_squared"] = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), diagnostics


def _pair_points(dom: BoxDomain, scale: float, count: int, rng) -> tuple:
    lo = np.asarray(dom.lower, float)
    hi = np.asarray(dom.upper, float)
    if 2.0 * scale >= (hi - lo).min():
        raise ValueError("pair separation exceeds the domain")
    x = rng.uniform(lo + scale, hi - scale, size=(count, 2))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=count)
    y = x + scale * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return x, y


def euclidean_graph_sampler(G: GraphMap):
    """Pairs measured as |u(x) - u(y)| against Euclidean separation."""

    def sampler(scale, count, rng):
        x, y = _pair_points(G.domain, scale, count, rng)
        return np.full(count, scale), G.height(x) - G.height(y)

    return sampler


def koranyi_graph_sampler(G: GraphMap):
    """Pairs measured as d_K(Phi(x), Phi(y)) against Euclidean separation."""

    def sampler(scale, count, rng):
        x, y = _pair_points(G.domain, scale, count, rng)
        return np.full(count, scale), koranyi_dist(G.lift(x), G.lift(y))

    return sampler


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
    scales = float(G.domain.side_lengths().min()) * np.asarray(_HOLDER_SCALES)
    # probe the height range so interpolation rounding on constant data
    # cannot masquerade as displacement
    lo = np.asarray(G.domain.lower)
    ax = [lo[i] + G.domain.side_lengths()[i] * (np.arange(64) + 0.5) / 64 for i in (0, 1)]
    mesh = np.meshgrid(*ax, indexing="ij")
    probe = np.abs(G.height(np.stack([m.ravel() for m in mesh], axis=1))).max()
    zero_tol = 1e-10 * max(1.0, float(probe))
    alpha_u, diag_u = holder_exponent(
        euclidean_graph_sampler(G),
        scales,
        seed=seed,
        pairs_per_bin=_HOLDER_PAIRS,
        zero_tol=zero_tol,
    )
    alpha_graph, diag_graph = holder_exponent(
        koranyi_graph_sampler(G), scales, seed=seed + 1, pairs_per_bin=_HOLDER_PAIRS
    )
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
