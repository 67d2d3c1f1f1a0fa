"""Points of the first Heisenberg group, its law and Koranyi gauge, and the
exact Carnot-Caratheodory distance.

Points are (x, y, t) with z = x + iy, and the group law is

    (z, t) * (z', t') = (z + z', t + t' + 2 Im(z conj(z'))).

The law and the gauge take (x, y, t) triples of floats or of equally shaped
numpy arrays, with the same expressions for both.  Only the standard library
is imported, so `lusinkit heis dist` runs without numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "HPoint", "CcBounds", "product", "inverse", "dilation", "gauge", "cc_dist_bounds"
]


@dataclass(frozen=True)
class HPoint:
    """A point (x, y, t); the identity element is (0, 0, 0).  Unpacks as
    (x, y, t)."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        for name in ("x", "y", "t"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")
            object.__setattr__(self, name, v)

    def __iter__(self):
        return iter((self.x, self.y, self.t))


def product(p, q):
    """The group product p * q of two triples."""
    x, y, t = p
    u, v, s = q
    return x + u, y + v, t + s + 2.0 * (u * y - x * v)


def inverse(p):
    """The group inverse (-z, -t) of a triple."""
    x, y, t = p
    return -x, -y, -t


def dilation(p, lam):
    """The automorphism (z, t) -> (lam z, lam^2 t) of a triple."""
    x, y, t = p
    return lam * x, lam * y, lam * lam * t


def gauge(p):
    """The Koranyi gauge (|z|^4 + t^2)^(1/4) of a triple."""
    x, y, t = p
    # squares are x * x here and in dilation: numpy squares by multiplying,
    # and a float's x ** 2 can differ in the last bit or raise OverflowError
    z2 = x * x + y * y
    return _sqrt(_sqrt(z2 * z2 + t * t))


def _sqrt(v):
    # correctly rounded on both paths, which pow(v, 0.25) is not: math.sqrt
    # for floats, and numpy's power by 0.5, which is its sqrt, for arrays
    return math.sqrt(v) if isinstance(v, float) else v ** 0.5


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

    p and q are HPoints or (x, y, t) triples.  Geodesics of H^1 project to
    circular arcs (Dido's problem).  With (z, t) = p^-1 * q and chord
    c = |z|, the arc encloses area |t| / 4 with the chord, so its opening
    angle phi in (0, 2 pi) is the root of

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
    w = HPoint(*product(inverse(p), q))
    c = math.hypot(w.x, w.y)
    T = abs(w.t)
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
