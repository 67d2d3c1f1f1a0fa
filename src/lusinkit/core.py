"""Shared value types for the derivative-prescribing constructor and the
Heisenberg geometry module.

The central representation is :class:`BumpPolySum`: a finite sum of cell
terms, each a compactly supported tensor cutoff multiplied by a polynomial.
Terms live on uniform lattices (one lattice per construction stage and
refinement level), so locating the cell containing a query point is an index
computation rather than a scan over terms: one gather from a row table over
the block's bounding lattice, padded by an empty border that catches every
point outside it, non-finite ones included.  A block too sparse for such a
table (more than 64 entries per cell) binary-searches its sorted cell keys.

All derivative evaluation here is exact, by the Leibniz rule applied to the
closed forms of the cutoff and the polynomial.  Tests check the closed forms
against finite differences, never the other way around, and the certification
harness relies on that exactness.

Everything in this module is immutable after construction and safe to read
concurrently.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

INV_E = math.exp(-1.0)


class InfeasibleBudgetError(ValueError):
    """A scale or budget selection has no representable solution.

    The message names the binding constraint; callers must not silently
    substitute a different budget.
    """


# ---------------------------------------------------------------------------
# multi-indices


def enumerate_multiindices(n: int, m: int) -> list[tuple[int, ...]]:
    """All exponent tuples alpha of length n with |alpha| = m.

    Sorted lexicographically ascending, e.g. (n=2, m=2) gives
    [(0, 2), (1, 1), (2, 0)].  The count is C(n + m - 1, m).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if m < 0:
        raise ValueError("order must be non-negative")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), m, n)
    return out


def multiindices_upto(n: int, m: int) -> list[tuple[int, ...]]:
    """All alpha with |alpha| <= m, in plain lexicographic order.

    This is the coefficient ordering used by BumpPolySum and by the on-disk
    function format.
    """
    out: list[tuple[int, ...]] = []
    for k in range(m + 1):
        out.extend(enumerate_multiindices(n, k))
    out.sort()
    return out


def multiindex_factorial(alpha: tuple[int, ...]) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def dominates(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    """True when alpha >= beta componentwise."""
    return all(a >= b for a, b in zip(alpha, beta))


@lru_cache(maxsize=None)
def _index_table(n: int, m: int):
    idx = tuple(multiindices_upto(n, m))
    pos = {a: i for i, a in enumerate(idx)}
    return idx, pos


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """An axis-aligned open box."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower must be strictly below upper componentwise")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def side_lengths(self) -> np.ndarray:
        return np.asarray(self.upper, float) - np.asarray(self.lower, float)

    def volume(self) -> float:
        return float(np.prod(self.side_lengths()))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.side_lengths()))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((x >= lo) & (x <= hi), axis=-1)


# ---------------------------------------------------------------------------
# moduli of continuity


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("separations must be non-negative")
    return arr


def _positive_array(delta):
    arr = np.asarray(delta, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("delta must be positive")
    return arr


def _match_shape(out, t):
    if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
        return float(out)
    return out


class Modulus:
    """Common interface of the modulus-of-continuity variants.

    A modulus mu satisfies mu(0) = 0, is continuous and non-decreasing, and
    is O(t) at infinity.  The increment bounds of the constructor have the form
    |Dg(x) - Dg(y)| <= |x - y| / mu(|x - y|), so a smaller mu near zero is a
    weaker requirement.
    """

    def __call__(self, t):
        raise NotImplementedError

    def sup_ratio(self, delta):
        """M(delta) = sup of mu(t)/t over t >= delta; finite for delta > 0.

        delta is a float or an array; the result has the same shape.
        """
        raise NotImplementedError

    def scale_cut(self, bound: float) -> float:
        """Largest delta with mu(t) <= bound for all t in [0, delta].

        Returns math.inf when mu never exceeds the bound.  Raises
        InfeasibleBudgetError when no delta of normal float size exists.
        """
        raise NotImplementedError

    def spec_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LogModulus(Modulus):
    """mu = 0 at 0, 1/|log t| on (0, 1/e], e*t beyond.

    Continuous at t = 1/e where both branches give 1, and super-Lipschitz:
    mu(t)/t tends to infinity as t -> 0.
    """

    def __call__(self, t):
        arr = _as_float_array(t)
        out = np.empty_like(arr)
        zero = arr == 0.0
        small = (arr > 0.0) & (arr <= INV_E)
        big = arr > INV_E
        out[zero] = 0.0
        out[small] = -1.0 / np.log(arr[small])
        out[big] = math.e * arr[big]
        return _match_shape(out, t)

    def sup_ratio(self, delta):
        arr = _positive_array(delta)
        out = np.full(arr.shape, math.e)
        # mu(t)/t = 1/(t log(1/t)) is decreasing up to 1/e, constant e after
        small = arr < INV_E
        t = arr[small]
        with np.errstate(over="ignore"):
            inv = 1.0 / t
        # 1/t overflows below about 5.6e-309, where the ratio passes 1e305
        out[small] = np.where(np.isinf(inv), math.inf, 1.0 / (t * np.log(inv)))
        return _match_shape(out, delta)

    def scale_cut(self, bound: float) -> float:
        if bound <= 0:
            raise InfeasibleBudgetError(
                "modulus scale cut needs a positive bound, got %g" % bound
            )
        if bound > 1.0:
            return bound / math.e
        delta = math.exp(-1.0 / bound)
        if delta < sys.float_info.min:
            raise InfeasibleBudgetError(
                "log-modulus scale cut exp(-1/%.6g) is subnormal or zero" % bound
            )
        return delta

    def spec_dict(self) -> dict:
        return {"kind": "log"}


@dataclass(frozen=True)
class PowerModulus(Modulus):
    """mu(t) = t**beta with 0 < beta <= 1."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")

    def __call__(self, t):
        arr = _as_float_array(t)
        return _match_shape(arr**self.beta, t)

    def sup_ratio(self, delta):
        arr = _positive_array(delta)
        return _match_shape(arr ** (self.beta - 1.0), delta)

    def scale_cut(self, bound: float) -> float:
        if bound <= 0:
            raise InfeasibleBudgetError(
                "modulus scale cut needs a positive bound, got %g" % bound
            )
        delta = float(bound ** (1.0 / self.beta))
        if delta < sys.float_info.min:
            raise InfeasibleBudgetError(
                "power-modulus scale cut %g**(1/%g) is subnormal or zero"
                % (bound, self.beta)
            )
        return delta

    def spec_dict(self) -> dict:
        return {"kind": "power", "beta": self.beta}


@dataclass(frozen=True)
class PiecewiseLinearModulus(Modulus):
    """Linear interpolation through user knots, linear extrapolation beyond.

    Knots must start at (0, 0), have strictly increasing t, non-decreasing
    values, and a positive final value.  This variant need not be
    super-Lipschitz; it exists so measured moduli can be certified against.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        k = self.knots
        if len(k) < 2:
            raise ValueError("need the origin knot plus at least one more")
        if k[0] != (0.0, 0.0):
            raise ValueError("first knot must be (0, 0)")
        ts = [p[0] for p in k]
        vs = [p[1] for p in k]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("knot abscissae must strictly increase")
        if any(v < 0 for v in vs) or any(b < a for a, b in zip(vs, vs[1:])):
            raise ValueError("knot values must be non-negative and non-decreasing")
        if vs[-1] <= 0:
            raise ValueError("modulus must be positive somewhere")

    @cached_property
    def _arrays(self):
        ts = np.asarray([p[0] for p in self.knots], float)
        vs = np.asarray([p[1] for p in self.knots], float)
        tail = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
        return ts, vs, float(tail)

    @cached_property
    def _knot_ratio_suffix(self) -> np.ndarray:
        """Entry j is the largest v/t over knots j.. with t > 0 (-inf if none)."""
        ts, vs, _ = self._arrays
        ratios = np.full(ts.size + 1, -np.inf)
        ratios[1:-1] = vs[1:] / ts[1:]
        return np.maximum.accumulate(ratios[::-1])[::-1]

    def __call__(self, t):
        ts, vs, tail = self._arrays
        arr = _as_float_array(t)
        out = np.interp(arr, ts, vs)
        over = arr > ts[-1]
        if np.any(over):
            out = np.where(over, vs[-1] + tail * (arr - ts[-1]), out)
        return _match_shape(out, t)

    def sup_ratio(self, delta):
        arr = _positive_array(delta)
        ts, vs, tail = self._arrays
        # mu(t)/t is monotone between knots, so the sup over t >= delta is
        # taken at delta, at a knot beyond it, or along the extrapolated ray
        beyond = self._knot_ratio_suffix[np.searchsorted(ts, arr)]
        out = np.maximum(self(arr) / arr, beyond)
        # ratio on the extrapolated ray tends monotonically to the tail slope
        if vs[-1] - tail * ts[-1] < 0:
            out = np.maximum(out, tail)
        return _match_shape(out, delta)

    def scale_cut(self, bound: float) -> float:
        if bound < 0:
            raise InfeasibleBudgetError(
                "modulus scale cut needs a non-negative bound, got %g" % bound
            )
        ts, vs, tail = self._arrays
        if bound >= vs[-1]:
            if tail <= 0:
                return math.inf
            return float(ts[-1] + (bound - vs[-1]) / tail)
        j = int(np.searchsorted(vs, bound, side="right"))
        # vs[j] > bound >= vs[j-1], slope over that segment is positive
        slope = (vs[j] - vs[j - 1]) / (ts[j] - ts[j - 1])
        delta = float(ts[j - 1] + (bound - vs[j - 1]) / slope)
        if delta < sys.float_info.min:
            raise InfeasibleBudgetError(
                "piecewise modulus exceeds %g at every normal-float scale" % bound
            )
        return delta

    def spec_dict(self) -> dict:
        return {"kind": "pwl", "knots": [[float(t), float(v)] for t, v in self.knots]}


def modulus_from_dict(spec: dict) -> Modulus:
    """Build a modulus from its spec_dict() form."""
    kind = spec.get("kind")
    if kind == "log":
        return LogModulus()
    if kind == "power":
        return PowerModulus(float(spec["beta"]))
    if kind == "pwl":
        return PiecewiseLinearModulus(
            tuple((float(t), float(v)) for t, v in spec["knots"])
        )
    raise ValueError("unknown modulus kind: %r" % (kind,))


# ---------------------------------------------------------------------------
# cutoff profiles


@dataclass(frozen=True)
class CutoffProfile:
    """One-dimensional profile for tensor-product cutoffs.

    As a function of the scaled radial coordinate s = |x_i - c_i|/w_i
    (w_i the cell half-width), the profile is 1 on [0, 1 - theta], descends
    through a polynomial of degree 2*order + 1 on [1 - theta, 1], and is 0
    beyond.  Both joins match derivatives up to `order`, so a cutoff built
    from this profile is C^order on all of R^n.  theta is the fraction of the
    half-width occupied by the descent band.
    """

    order: int
    theta: float

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("profile order must be at least 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")

    @cached_property
    def _step_coeffs(self) -> np.ndarray:
        # S(u) = sum_k (-1)^k C(m+k, k) C(2m+1, m-k) u^{m+1+k}: the unique
        # degree-(2m+1) polynomial with S(0)=0, S(1)=1 and m flat derivatives
        # at both ends.
        m = self.order
        c = np.zeros(2 * m + 2)
        for k in range(m + 1):
            c[m + 1 + k] = (-1) ** k * math.comb(m + k, k) * math.comb(2 * m + 1, m - k)
        return c

    @cached_property
    def _step_derivs(self) -> tuple[np.ndarray, ...]:
        from numpy.polynomial import polynomial as npoly

        out = [self._step_coeffs]
        for _ in range(self.order):
            out.append(npoly.polyder(out[-1]))
        return tuple(out)

    @cached_property
    def derivative_maxima(self) -> tuple[float, ...]:
        """A_k = max over [0, 1] of |S^(k)| for k = 0..order (A_0 = 1)."""
        from numpy.polynomial import polynomial as npoly

        vals = [1.0]
        for k in range(1, self.order + 1):
            dk = self._step_derivs[k]
            crit = [0.0, 1.0]
            for r in npoly.polyroots(npoly.polyder(dk)):
                if abs(r.imag) < 1e-12 and -1e-12 < r.real < 1 + 1e-12:
                    crit.append(min(max(float(r.real), 0.0), 1.0))
            vals.append(max(abs(float(npoly.polyval(u, dk))) for u in crit))
        return tuple(vals)

    def profile_derivatives(self, s, kmax: int) -> np.ndarray:
        """d^k/ds^k of the profile for k = 0..kmax, shape (kmax+1,) + s.shape."""
        from numpy.polynomial import polynomial as npoly

        if kmax > self.order:
            raise ValueError("profile is only C^%d" % self.order)
        s = np.asarray(s, float)
        out = np.zeros((kmax + 1,) + s.shape)
        out[0][s <= 1.0 - self.theta] = 1.0
        band = (s > 1.0 - self.theta) & (s < 1.0)
        if np.any(band):
            u = (s[band] - (1.0 - self.theta)) / self.theta
            out[0][band] = 1.0 - npoly.polyval(u, self._step_coeffs)
            for k in range(1, kmax + 1):
                out[k][band] = -npoly.polyval(u, self._step_derivs[k]) / self.theta**k
        return out

    def bound_constant(self, n: int) -> float:
        """Worst-case constant C(n, m) of this profile.

        For any cell term cutoff(x) * P(x - c) with P homogeneous of degree
        m = order and coefficients |c_alpha| <= F (in the c_alpha/alpha!
        normalization used by BumpPolySum), every order-m derivative of the
        term is bounded by C(n, m) * F on the cell, independently of the cell
        size.  Used by the scale-selection formula and reported in
        certificates.  It is the largest top-order row of
        cell_derivative_bounds for unit top-order coefficients: there the
        cell size cancels, so half-width 1 gives it.
        """
        m = self.order
        _, pos = _index_table(n, m)
        top = [pos[a] for a in enumerate_multiindices(n, m)]
        coeffs = np.zeros((1, len(pos)))
        coeffs[0, top] = 1.0
        return float(cell_derivative_bounds(self, n, m, coeffs, 1.0)[top].max())


def _subindices(gamma: tuple[int, ...]):
    return itertools.product(*(range(g + 1) for g in gamma))


# ---------------------------------------------------------------------------
# rigorous per-cell derivative bounds


@lru_cache(maxsize=None)
def _bound_plan(n: int, m: int):
    """Static combinatorics shared by cell_derivative_bounds."""
    idx, pos = _index_table(n, m)
    poly_terms = {}
    for gp in idx:
        rows = []
        for alpha in idx:
            if dominates(alpha, gp):
                diff = tuple(a - g for a, g in zip(alpha, gp))
                rows.append(
                    (pos[alpha], sum(diff), 1.0 / multiindex_factorial(diff), diff)
                )
        poly_terms[gp] = tuple(rows)
    leibniz = {}
    for gamma in idx:
        rows = []
        for beta in _subindices(gamma):
            comb = 1.0
            for g, b in zip(gamma, beta):
                comb *= math.comb(g, b)
            gp = tuple(g - b for g, b in zip(gamma, beta))
            rows.append((tuple(beta), comb, gp))
        leibniz[gamma] = tuple(rows)
    return idx, pos, poly_terms, leibniz


def cell_derivative_bounds(
    profile: CutoffProfile, n: int, m: int, coeffs: np.ndarray, half_width: float
) -> np.ndarray:
    """Sup bounds over the cell for every derivative of a batch of cell terms.

    coeffs has shape (N, K) with K = len(multiindices_upto(n, m)); row j holds
    the c_alpha of term_j = cutoff(x) * sum_alpha c_alpha (x-c)^alpha / alpha!.
    Returns an array (K, N): entry [g, j] bounds sup |D^gamma term_j| over the
    cell, gamma the g-th multi-index.  The bound combines the Leibniz rule,
    the profile's derivative maxima, and coefficientwise polynomial bounds
    |D^g' P| <= sum_{alpha >= g'} |c_alpha| w^{|alpha|-|g'|} / (alpha-g')!,
    so it is a true sup bound, not an estimate.
    """
    idx, pos, poly_terms, leibniz = _bound_plan(n, m)
    if coeffs.ndim != 2 or coeffs.shape[1] != len(idx):
        raise ValueError("coeffs must have shape (N, %d)" % len(idx))
    ac = np.abs(coeffs)
    A = profile.derivative_maxima
    theta = profile.theta
    ub: dict[tuple[int, ...], np.ndarray] = {}
    for gp in idx:
        tot = np.zeros(coeffs.shape[0])
        for col, deg, invfact, _ in poly_terms[gp]:
            tot += ac[:, col] * (half_width**deg * invfact)
        ub[gp] = tot
    out = np.zeros((len(idx), coeffs.shape[0]))
    for g, gamma in enumerate(idx):
        tot = np.zeros(coeffs.shape[0])
        for beta, comb, gp in leibniz[gamma]:
            afac = 1.0
            for b in beta:
                afac *= A[b]
            k = sum(beta)
            tot += (comb * afac / (theta * half_width) ** k) * ub[gp]
        out[g] = tot
    return out


# ---------------------------------------------------------------------------
# bump-polynomial sums


# a block whose padded bounding lattice would hold more table entries than
# this per cell keeps a sorted key search instead of the dense row table
_DENSE_FILL = 64
# how far, in lattice steps, a cell corner may sit from the block's lattice
_LATTICE_TOL = 1e-6


class _Block:
    """Congruent cubic cells on one uniform lattice (one stage, one level).

    The lattice is the cells' own: its origin is the per-axis minimum of
    their lower corners and its step their side, so every corner must lie on
    it.  Cells are located through a row table over the block's bounding
    lattice, padded by one empty entry (-1) on every side: a point's floored
    lattice index, shifted by one onto that padding and clamped to it, reads
    its cell row in one gather.  Where the padded lattice would hold more
    than _DENSE_FILL entries per cell (a sparse refinement, or an arbitrary
    function file), the block keeps its cells' lattice keys sorted and
    binary-searches them instead.
    """

    __slots__ = (
        "n",
        "origin",
        "spacing",
        "theta",
        "weight",
        "stage",
        "lows",
        "coeffs",
        "profile",
        "_top",
        "_strides",
        "_table",
        "_keys",
        "_rows",
    )

    def __init__(self, n, m, spacing, theta, weight, stage, lows, coeffs):
        self.n = n
        self.spacing = float(spacing)
        self.theta = float(theta)
        self.weight = float(weight)
        self.stage = int(stage)
        self.lows = np.asarray(lows, float)
        self.coeffs = np.asarray(coeffs, float)
        if self.lows.ndim != 2 or self.lows.shape[1] != n:
            raise ValueError("lows must have shape (N, n)")
        if self.coeffs.shape[0] != self.lows.shape[0]:
            raise ValueError("one coefficient row per cell required")
        self.profile = CutoffProfile(m, self.theta)
        self.origin = self.lows.min(axis=0)
        rel = (self.lows - self.origin) / self.spacing
        idx = np.rint(rel)
        if not np.all(np.abs(rel - idx) <= _LATTICE_TOL):
            raise ValueError("cell corners off the block's lattice")
        # on the padded lattice, index 0 and _top are the empty border
        idx += 1.0
        shape = [int(d) + 2 for d in idx.max(axis=0)]
        self._top = np.asarray(shape, float) - 1.0
        size = math.prod(shape)
        if size >= 2**63:
            raise ValueError("block lattice too large to index")
        self._strides = np.asarray(
            [math.prod(shape[i + 1 :]) for i in range(n)], np.int64
        )
        key = idx.astype(np.int64) @ self._strides
        count = key.size
        if size <= _DENSE_FILL * count:
            self._table = np.full(size, -1, np.int32)
            self._table[key] = np.arange(count, dtype=np.int32)
            self._keys = self._rows = None
            filled = np.count_nonzero(self._table >= 0)
        else:
            self._table = None
            self._rows = np.argsort(key, kind="stable")
            self._keys = key[self._rows]
            filled = 1 + np.count_nonzero(np.diff(self._keys))
        if filled != count:
            raise ValueError("overlapping cells within one block")

    @property
    def half_width(self) -> float:
        return self.spacing / 2.0

    def locate(self, x: np.ndarray):
        """Indices (into x) and cell rows for points inside some cell."""
        with np.errstate(over="ignore"):
            # far-out finite points may overflow to +-inf: the border holds them
            rel = (x - self.origin) / self.spacing
        np.floor(rel, out=rel)
        rel += 1.0
        # NaN and +-inf land on the empty border too
        np.fmax(rel, 0.0, out=rel)
        np.fmin(rel, self._top, out=rel)
        if self._table is not None:
            # the flat index is an integer below 2**53, so the float dot is exact
            rows = self._table[(rel @ self._strides).astype(np.intp)]
            pts = np.flatnonzero(rows >= 0)
            return pts, rows[pts]
        # border keys match no cell; int64 keeps keys above 2**53 exact
        key = rel.astype(np.int64) @ self._strides
        posn = np.searchsorted(self._keys, key)
        posn[posn == len(self._keys)] = 0
        pts = np.flatnonzero(self._keys[posn] == key)
        return pts, self._rows[posn[pts]]

    def add_jet(self, x: np.ndarray, gammas, out: np.ndarray):
        """Add this block's D^gammas[j] at the points x to out[:, j]."""
        pts, rows = self.locate(x)
        if pts.size == 0:
            return
        _, _, poly_terms, leibniz = _bound_plan(self.n, self.profile.order)
        hw = self.half_width
        centers = self.lows[rows] + hw
        dx = x[pts] - centers
        # per-axis tables of cutoff-factor derivatives in the x variable
        fac = []
        for i in range(self.n):
            k_i = max((gamma[i] for gamma in gammas), default=0)
            s = np.abs(dx[:, i]) / hw
            tab = self.profile.profile_derivatives(s, k_i)
            axis = [tab[0]]
            if k_i:
                sgn = np.sign(dx[:, i])
                for k in range(1, k_i + 1):
                    axis.append(tab[k] * sgn**k / hw**k)
            fac.append(axis)
        crows = self.coeffs[rows]
        # D^gp of the cell polynomials, shared by every gamma that needs it
        poly = {}
        for j, gamma in enumerate(gammas):
            total = np.zeros(pts.size)
            for beta, comb, gp in leibniz[gamma]:
                cut = np.full(pts.size, comb)
                for i, b in enumerate(beta):
                    cut = cut * fac[i][b]
                if gp not in poly:
                    pv = np.zeros(pts.size)
                    for col, _deg, invfact, expo in poly_terms[gp]:
                        mono = np.full(pts.size, invfact)
                        for i, e in enumerate(expo):
                            if e:
                                mono = mono * dx[:, i] ** e
                        pv += crows[:, col] * mono
                    poly[gp] = pv
                total += cut * poly[gp]
            out[pts, j] += total


class BumpPolySum:
    """A finite sum of cutoff-times-polynomial cell terms.

    Terms are grouped into blocks of congruent cells on uniform lattices.
    Supports within one block are pairwise disjoint; supports of different
    blocks may overlap (later stages re-enter earlier collars), and
    evaluation sums everything.  Exact partial derivatives up to total
    order m are available everywhere in R^n; the function vanishes outside
    the union of the cells.
    """

    def __init__(self, n: int, m: int, blocks=()):
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        self._n = n
        self._m = m
        self._blocks = tuple(blocks)
        for b in self._blocks:
            if b.n != n or b.profile.order != m:
                raise ValueError("block shape does not match the sum")

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def order(self) -> int:
        return self._m

    @property
    def blocks(self):
        return self._blocks

    @property
    def term_count(self) -> int:
        return sum(b.lows.shape[0] for b in self._blocks)

    @property
    def stage_ids(self) -> tuple[int, ...]:
        return tuple(sorted({b.stage for b in self._blocks}))

    @cached_property
    def multiindices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(multiindices_upto(self._n, self._m))

    def with_block(self, lows, spacing, theta, weight, stage, coeffs) -> "BumpPolySum":
        """A new sum extended by one lattice block (self is unchanged)."""
        blk = _Block(self._n, self._m, spacing, theta, weight, stage, lows, coeffs)
        return BumpPolySum(self._n, self._m, self._blocks + (blk,))

    def jet(self, x, gammas, stages=None) -> np.ndarray:
        """Exact derivatives at the points x (M, n), one column per multi-index.

        Column j of the (M, len(gammas)) result is D^gammas[j] of the sum;
        stages, when given, restricts the sum to the blocks of those stages.
        """
        gammas = [tuple(int(g) for g in gamma) for gamma in gammas]
        for gamma in gammas:
            if len(gamma) != self._n or any(g < 0 for g in gamma):
                raise ValueError("gamma must be a length-%d multi-index" % self._n)
            if sum(gamma) > self._m:
                raise ValueError(
                    "derivatives above order %d are not defined" % self._m
                )
        pts = np.asarray(x, float)
        out = np.zeros((pts.shape[0], len(gammas)))
        for b in self._blocks:
            if stages is None or b.stage in stages:
                b.add_jet(pts, gammas, out)
        return out

    def derivative(self, x, gamma=None, stages=None):
        """Exact D^gamma of the sum at x ((M, n) array or a single point)."""
        if gamma is None:
            gamma = (0,) * self._n
        x = np.asarray(x, float)
        single = x.ndim == 1
        out = self.jet(x[None, :] if single else x, [gamma], stages)[:, 0]
        return float(out[0]) if single else out

    def value(self, x, stages=None):
        return self.derivative(x, None, stages)


# ---------------------------------------------------------------------------
# certificates


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        # keep certificates valid strict JSON
        return repr(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# how StageReport.from_dict reads each declared field type back from JSON;
# float() also reads the "inf" spelling of non-finite values
_FROM_JSON = {
    "int": int,
    "float": float,
    "dict[str, int]": lambda v: {str(k): int(x) for k, x in v.items()},
    "tuple[float, ...]": lambda v: tuple(float(x) for x in v),
}


@dataclass(frozen=True)
class StageReport:
    """Budget ledger of one construction stage."""

    stage: int
    sup_budget: float
    modulus_weight: float
    measure_target: float
    truncation_bound: float
    delta: float
    sup_ratio: float
    active_measure: float
    covered_measure: float
    residual_measure: float
    cells_considered: int
    cells_accepted: int
    reject_counts: dict[str, int]
    sup_bounds: tuple[float, ...]
    lipschitz_bound: float
    modulus_coefficient: float
    slack: float

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_dict(cls, d: dict) -> "StageReport":
        """Inverse of to_dict."""
        return cls(**{f.name: _FROM_JSON[f.type](d[f.name]) for f in fields(cls)})


@dataclass(frozen=True, eq=False)
class BuildCertificate:
    """Coverage, tolerances, and budget ledgers of a finished construction.

    covered_cells[k] is an (N_k, 2n) array of certified closed boxes
    (low then high per axis) for stage k+1; boxes of distinct stages are
    pairwise disjoint.  The ledgers accumulate the per-stage sup, Lipschitz
    and modulus budgets whose sums realize the global budgets sigma (orders
    <= m-1), sigma (orders <= m-2) and 1 (order m-1).
    """

    dimension: int
    order: int
    domain_lower: tuple
    domain_upper: tuple
    field_name: str
    modulus: dict
    theta: float
    sigma: float
    eps: float
    tau: float
    quantile: float
    stages_requested: int
    grid: tuple
    refine_max: int
    seed: int
    profile_constant: float
    stage_reports: tuple
    covered_cells: tuple
    sup_ledger: tuple
    lipschitz_ledger: float
    modulus_ledger: float
    coverage_measure: float
    residual_measure: float
    term_count: int
    partial_cover: bool

    def coverage_fraction(self) -> float:
        dom = float(
            np.prod(np.asarray(self.domain_upper) - np.asarray(self.domain_lower))
        )
        return self.coverage_measure / dom

    def residual_fraction(self) -> float:
        dom = float(
            np.prod(np.asarray(self.domain_upper) - np.asarray(self.domain_lower))
        )
        return self.residual_measure / dom

    def budgets_ok(self) -> bool:
        return (
            all(s < self.sigma for s in self.sup_ledger)
            and self.lipschitz_ledger <= self.sigma
            and self.modulus_ledger <= 1.0
        )

    def to_dict(self, include_cells: bool = True) -> dict:
        out = {
            "dimension": self.dimension,
            "order": self.order,
            "domain": {
                "lower": _jsonable(self.domain_lower),
                "upper": _jsonable(self.domain_upper),
            },
            "field": self.field_name,
            "modulus": _jsonable(self.modulus),
            "config": {
                "theta": self.theta,
                "sigma": self.sigma,
                "eps": self.eps,
                "tau": self.tau,
                "quantile": self.quantile,
                "stages_requested": self.stages_requested,
                "grid": _jsonable(self.grid),
                "refine_max": self.refine_max,
                "seed": self.seed,
            },
            "profile_constant": self.profile_constant,
            "stages": [r.to_dict() for r in self.stage_reports],
            "ledgers": {
                "supnorm_per_order": _jsonable(self.sup_ledger),
                "lipschitz": self.lipschitz_ledger,
                "modulus": self.modulus_ledger,
            },
            "coverage_measure": self.coverage_measure,
            "residual_measure": self.residual_measure,
            "coverage_fraction": self.coverage_fraction(),
            "residual_fraction": self.residual_fraction(),
            "term_count": self.term_count,
            "partial_cover": self.partial_cover,
            "budgets_ok": self.budgets_ok(),
        }
        if include_cells:
            out["covered_cells"] = [_jsonable(c) for c in self.covered_cells]
        else:
            out["covered_cells_counts"] = [int(c.shape[0]) for c in self.covered_cells]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "BuildCertificate":
        """Rebuild a certificate from its to_dict(include_cells=True) form.

        Raises ValueError for a missing field or a field of the wrong shape.
        """
        try:
            n = int(d["dimension"])
            if "covered_cells" not in d:
                raise ValueError("certificate was saved without cell lists")
            cfg = d["config"]
            ledgers = d["ledgers"]
            return cls(
                dimension=n,
                order=int(d["order"]),
                domain_lower=tuple(float(v) for v in d["domain"]["lower"]),
                domain_upper=tuple(float(v) for v in d["domain"]["upper"]),
                field_name=str(d["field"]),
                modulus=dict(d["modulus"]),
                theta=float(cfg["theta"]),
                sigma=float(cfg["sigma"]),
                eps=float(cfg["eps"]),
                tau=float(cfg["tau"]),
                quantile=float(cfg["quantile"]),
                stages_requested=int(cfg["stages_requested"]),
                grid=tuple(int(v) for v in cfg["grid"]),
                refine_max=int(cfg["refine_max"]),
                seed=int(cfg["seed"]),
                profile_constant=float(d["profile_constant"]),
                stage_reports=tuple(StageReport.from_dict(r) for r in d["stages"]),
                covered_cells=tuple(
                    np.asarray(c, float).reshape(-1, 2 * n) for c in d["covered_cells"]
                ),
                sup_ledger=tuple(float(v) for v in ledgers["supnorm_per_order"]),
                lipschitz_ledger=float(ledgers["lipschitz"]),
                modulus_ledger=float(ledgers["modulus"]),
                coverage_measure=float(d["coverage_measure"]),
                residual_measure=float(d["residual_measure"]),
                term_count=int(d["term_count"]),
                partial_cover=bool(d["partial_cover"]),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from exc
