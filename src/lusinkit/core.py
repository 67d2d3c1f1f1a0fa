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
The one evaluation kernel takes product grids, one row of coordinates per
axis (:meth:`BumpPolySum.grid_jet`), such as the builder's 3^n stencils;
:meth:`BumpPolySum.jet` hands it points (M, n) as 1-point rows, so a grid
point gets the bits the same single point gets, and
:meth:`BumpPolySum.derivative` takes one multi-index, the value by default.
jet's output, one column per multi-index, is column-major (Fortran-ordered).
Every entry point sums all blocks: a part of the sum, such as the later
stages' tail, is the sum of those blocks, BumpPolySum(n, m, blocks).  The
kernel touches only live coefficient columns, those with a nonzero entry; the
cell bounds take the top-order columns, the only ones the builder writes.
Blocks store their lower corners and coefficients column-major, as the
kernel reads them one axis or one column at a time: each gather at the
located cells then reads contiguous memory.

All derivative evaluation here is exact, by the Leibniz rule applied to the
closed forms of the cutoff and the polynomial.  Tests check the closed forms
against finite differences, never the other way around, and the certification
harness relies on that exactness.

The build settings (:class:`BuildConfig`) live here too, beside the
certificate of a finished build, which holds its build's config and domain.

Everything in this module is immutable after construction and safe to read
concurrently.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field, fields
from functools import cached_property, lru_cache

import numpy as np

INV_E = math.exp(-1.0)


class InfeasibleBudgetError(ValueError):
    """An infeasible request: stage 1 certifies no cell; the message names
    the failing check."""


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
def _order_rows(n: int, m: int):
    """Coefficient rows, in _bound_plan's index order, of each order q <= m,
    and for each index of order q < m the rows of its n first-order raises."""
    idx, pos = _bound_plan(n, m)[:2]
    orders = np.array([sum(a) for a in idx])
    by_order = tuple(np.flatnonzero(orders == q) for q in range(m + 1))
    # the row of a + e_i for each index a and axis i, -1 past order m
    up = np.array(
        [[pos.get(a[:i] + (a[i] + 1,) + a[i + 1 :], -1) for i in range(n)] for a in idx]
    )
    return by_order, tuple(up[rows] for rows in by_order[:m])


def _fold_columns(ufunc, a, out=None):
    """ufunc folded left to right across the last axis of the array a, or
    over a sequence a of equal-shape arrays, written to out if given.

    One pass per column: numpy reduces a trailing axis only a few entries
    wide one short row at a time, many times slower.  The result equals
    ufunc.reduce(a, axis=-1) bit for bit for maximum and the logical ufuncs,
    and for add over fewer than 8 columns, where numpy sums left to right.
    """
    if isinstance(a, np.ndarray):
        a = [a[..., k] for k in range(a.shape[-1])]
    acc = a[0]
    for col in a[1:]:
        acc = ufunc(acc, col, out=out)
    if out is not None and len(a) == 1:
        np.copyto(out, acc)
        acc = out
    return acc[()]


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """An axis-aligned box, closed: contains counts its faces as inside."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if not all(map(math.isfinite, (*self.lower, *self.upper))):
            raise ValueError("domain corners must be finite")
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
        inside = np.empty(x.shape, bool)
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            inside[..., i] = (x[..., i] >= lo) & (x[..., i] <= hi)
        return _fold_columns(np.logical_and, inside)

    def to_dict(self) -> dict:
        """The corners as float lists: the certificate's and manifest's form."""
        return {k: [float(v) for v in getattr(self, k)] for k in ("lower", "upper")}

    @classmethod
    def from_dict(cls, d: dict) -> "BoxDomain":
        """Inverse of to_dict; ValueError for a corner that is no number list."""
        corner = _FROM_JSON["tuple[float, ...]"]
        return cls(corner(_json_is(d, dict)["lower"]), corner(d["upper"]))


def _uniform_in_box(rng, lower, upper, count: int) -> np.ndarray:
    """rng.uniform(lower, upper, size=(count, n)) bit for bit, without its
    per-element broadcast: numpy draws lo + (hi - lo) * random row by row.
    A column's bounds may be scalars or (count,) arrays."""
    r = rng.random((count, len(lower)))
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        col = r[:, i]
        col *= hi - lo
        col += lo
    return r


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
        # mu(t)/t = 1/(t log(1/t)) is decreasing up to 1/e, constant e after:
        # computed everywhere in one array, then patched
        out = np.empty_like(arr)
        with np.errstate(over="ignore", divide="ignore"):
            np.divide(1.0, arr, out=out)
            np.log(out, out=out)
            out *= arr
            np.divide(1.0, out, out=out)
        # 1/t overflows below about 5.6e-309, where the ratio passes 1e305:
        # the only place below 1/e where the quotient reads 0
        if not out.all():
            np.copyto(out, math.inf, where=out == 0.0)
        np.copyto(out, math.e, where=~(arr < INV_E))
        return _match_shape(out, delta)

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
        if any(len(p) != 2 for p in k):
            raise ValueError("knots must be (t, v) pairs")
        if len(k) < 2:
            raise ValueError("need the origin knot plus at least one more")
        if not all(map(math.isfinite, itertools.chain(*k))):
            raise ValueError("knots must be finite")
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

    def spec_dict(self) -> dict:
        return {"kind": "pwl", "knots": [[float(t), float(v)] for t, v in self.knots]}


def modulus_from_dict(spec: dict) -> Modulus:
    """Build a modulus from its spec_dict() form.

    Raises ValueError for a spec of the wrong JSON types, never coercing: a
    beta must be a number, the knots a list of [t, v] number pairs.
    """
    kind = _json_is(spec, dict).get("kind")
    try:
        if kind == "log":
            return LogModulus()
        if kind == "power":
            return PowerModulus(_json_is(spec.get("beta"), int, float))
        if kind == "pwl":
            pair = _FROM_JSON["tuple[float, ...]"]
            knots = tuple(pair(k) for k in _json_is(spec.get("knots"), list))
            return PiecewiseLinearModulus(knots)
    except ValueError as exc:
        raise ValueError(f"modulus spec {spec}: {exc}") from None
    raise ValueError(f"unknown modulus kind: {kind!r}")


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
        if kmax > self.order:
            raise ValueError("profile is only C^%d" % self.order)
        s = np.asarray(s, float)
        out = np.zeros((kmax + 1,) + s.shape)
        np.less_equal(s, 1.0 - self.theta, out=out[0, ...])
        flat = s.reshape(-1)
        band = np.flatnonzero((flat > 1.0 - self.theta) & (flat < 1.0))
        if band.size:
            rows = out.reshape(kmax + 1, -1)
            u = flat[band]
            u -= 1.0 - self.theta
            u /= self.theta
            for k in range(kmax + 1):
                # numpy's polyval recurrence, zero terms included: its bits.
                # Every derivative up to the order has two coefficients or more
                coeffs = self._step_derivs[k]
                acc = u * coeffs[-1]
                acc += coeffs[-2]
                for c in coeffs[-3::-1]:
                    acc *= u
                    acc += c
                if k == 0:
                    np.subtract(1.0, acc, out=acc)
                else:
                    np.negative(acc, out=acc)
                    acc /= self.theta**k
                rows[k, band] = acc
        return out

    def bound_constant(self, n: int) -> float:
        """Worst-case constant C(n, m) of this profile.

        For any cell term cutoff(x) * P(x - c) with P homogeneous of degree
        m = order and coefficients |c_alpha| <= F (in the c_alpha/alpha!
        normalization used by BumpPolySum), every order-m derivative of the
        term is bounded by C(n, m) * F on the cell, independently of the cell
        size.  Certificates report it.  It is the largest top-order row of
        cell_derivative_bounds for unit top-order coefficients: there the
        cell size cancels, so half-width 1 gives it.
        """
        top = _order_rows(n, self.order)[0][self.order]
        bounds = cell_derivative_bounds(self, n, np.ones((top.size, 1)), 1.0)
        return float(bounds[top].max())


def _subindices(gamma: tuple[int, ...]):
    return itertools.product(*(range(g + 1) for g in gamma))


# ---------------------------------------------------------------------------
# rigorous per-cell derivative bounds


@lru_cache(maxsize=None)
def _bound_plan(n: int, m: int):
    """Static combinatorics of the multi-indices of order <= m, shared by
    cell_derivative_bounds, the evaluation kernel and _order_rows: the
    indices, their positions, and the polynomial and Leibniz sum terms."""
    idx = tuple(multiindices_upto(n, m))
    pos = {a: i for i, a in enumerate(idx)}
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
    profile: CutoffProfile, n: int, top: np.ndarray, half_width: float
) -> np.ndarray:
    """Sup bounds over the cell for every derivative of a batch of cell terms.

    With m = profile.order, top has shape (K_m, N), K_m the number of order-m
    multi-indices: row r holds the |c_alpha| of the r-th of them, in
    _order_rows order, and column j those of term_j = cutoff(x) *
    sum_{|alpha| = m} c_alpha (x-c)^alpha / alpha!, centered on its cell.
    Returns an array (K, N) with K = len(multiindices_upto(n, m)): entry
    [g, j] bounds sup |D^gamma term_j| over the cell, gamma the g-th
    multi-index.  The bound combines the Leibniz rule, the profile's
    derivative maxima, and coefficientwise polynomial bounds
    |D^g' P| <= sum_{alpha >= g'} |c_alpha| w^{|alpha|-|g'|} / (alpha-g')!,
    so it is a true sup bound, not an estimate.

    For a positive half width every addend is +0 or more (or NaN).  A
    lower-order column, or a sum with no top-order term, adds +0 unless its
    factor is not finite, so sums start at their first top-order term,
    exactly as from zero.  Each sum is accumulated in place, in the plan's
    order, the output rows included; an output row whose first addend has
    weight 1.0 starts from its second addend and adds the first to it,
    which gives the same bits, as addition commutes.
    """
    m = profile.order
    rows = _order_rows(n, m)[0][m]
    if np.ndim(top) != 2 or len(top) != rows.size:
        raise ValueError("top must have shape (%d, N)" % rows.size)
    # each top-order coefficient column's row of top
    cols = dict(zip(rows.tolist(), top))
    N = top.shape[1]
    idx, _, poly_terms, leibniz = _bound_plan(n, m)
    A = profile.derivative_maxima
    theta = profile.theta
    nil = np.zeros(N)
    ub: dict[tuple[int, ...], np.ndarray | None] = {}
    for gp in idx:
        # a column of factor 1.0 is used as it is, and copied before an add
        tot, own = None, False
        for col, deg, invfact, _ in poly_terms[gp]:
            w = half_width**deg * invfact
            if col in cols or not math.isfinite(w):
                term = cols.get(col, nil)
                if w != 1.0:
                    term = term * w
                if tot is None:
                    tot, own = term, w != 1.0
                elif own:
                    tot += term
                else:
                    tot, own = tot + term, True
        ub[gp] = tot
    out = np.empty((len(idx), N))
    tmp = np.empty(N)
    for g, gamma in enumerate(idx):
        addends = []
        for beta, comb, gp in leibniz[gamma]:
            afac = 1.0
            for b in beta:
                afac *= A[b]
            w = comb * afac / (theta * half_width) ** sum(beta)
            if ub[gp] is not None or not math.isfinite(w):
                addends.append((w, nil if ub[gp] is None else ub[gp]))
        row = out[g]
        if not addends:
            row[...] = nil
            continue
        if len(addends) > 1 and addends[0][0] == 1.0:
            np.multiply(addends[1][0], addends[1][1], out=row)
            row += addends[0][1]
            rest = addends[2:]
        else:
            np.multiply(addends[0][0], addends[0][1], out=row)
            rest = addends[1:]
        for w, u in rest:
            row += np.multiply(w, u, out=tmp)
    return out


# ---------------------------------------------------------------------------
# bump-polynomial sums


# a block whose padded bounding lattice would hold more table entries than
# this per cell keeps a sorted key search instead of the dense row table
_DENSE_FILL = 64
# how far, in lattice steps, a cell corner may sit from the block's lattice
_LATTICE_TOL = 1e-6
# located single points per kernel call: each temporary then stays small
# enough for the heap to reuse, where a point-sized one takes fresh pages
_POINT_CHUNK = 16384


def _column_major(a) -> np.ndarray:
    """a as a float array whose columns are contiguous: a itself where they
    already are, as in a column-major array or a run of its rows, else a
    column-major (np.asfortranarray) copy."""
    a = np.asarray(a, float)
    if a.ndim != 2 or a.strides[0] == a.itemsize:
        return a
    return np.asfortranarray(a)


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

    add_jet, the one evaluation kernel, takes product grids: rows of k
    coordinates per axis, each row located once, by its middle point, with
    the cutoff profile evaluated per axis and combined by broadcasting.  A
    single point is a row with k = 1; a row whose coordinates do not all
    floor to its middle point's lattice cell is split into single points.
    Single points are located all at once and evaluated in slices of at most
    _POINT_CHUNK, so the kernel's temporaries stay small enough for the heap
    to reuse; product grids are evaluated whole.

    lows (N, n) and coeffs (N, K) are stored column-major, or as views whose
    columns are contiguous (the rows of a column-major function file): the
    kernel gathers the cells' centres one axis at a time and their
    coefficients one column at a time, and each gather then reads one
    contiguous column rather than every n-th or K-th value.
    """

    __slots__ = (
        "n",
        "origin",
        "spacing",
        "theta",
        "stage",
        "lows",
        "coeffs",
        "profile",
        "_top",
        "_strides",
        "_table",
        "_keys",
        "_rows",
        "_live",
        "_reach",
    )

    def __init__(self, n, m, spacing, theta, stage, lows, coeffs):
        self.n = n
        self.spacing = float(spacing)
        self.theta = float(theta)
        self.stage = int(stage)
        if self.stage < 1:
            raise ValueError("stages are numbered from 1")
        self.lows = _column_major(lows)
        self.coeffs = _column_major(coeffs)
        if self.lows.ndim != 2 or self.lows.shape[1] != n:
            raise ValueError("lows must have shape (N, n)")
        if self.coeffs.shape[0] != self.lows.shape[0]:
            raise ValueError("one coefficient row per cell required")
        self.profile = CutoffProfile(m, self.theta)
        # the coefficient columns with a nonzero entry: the others add nothing
        self._live = frozenset(np.flatnonzero(self.coeffs.any(axis=0)).tolist())
        self.origin = self.lows.min(axis=0)
        # per axis, the bounding lattice grown by one cell on every side: no
        # point outside it floors into one of the cells
        self._reach = list(
            zip(
                (self.origin - self.spacing).tolist(),
                (self.lows.max(axis=0) + 2.0 * self.spacing).tolist(),
            )
        )
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

    def _axis_keys(self, xi: np.ndarray, i: int) -> np.ndarray:
        """Axis i's share of the lattice key of the coordinates xi (any shape):
        the floored lattice index, shifted by one onto the padded lattice and
        clamped to it, times the axis stride; int64 keeps it exact."""
        with np.errstate(over="ignore"):
            # far-out finite points may overflow to +-inf: the border holds them
            rel = xi - self.origin[i]
            rel /= self.spacing
            np.floor(rel, out=rel)
            rel += 1.0
            # NaN and +-inf land on the empty border too
            np.fmax(rel, 0.0, out=rel)
            np.fmin(rel, self._top[i], out=rel)
        key = rel.astype(np.int64)
        key *= self._strides[i]
        return key

    def _rows_at(self, key: np.ndarray):
        """Indices (into key) and cell rows of the keys naming some cell."""
        if self._table is not None:
            rows = self._table[key]
            pts = np.flatnonzero(rows >= 0)
            return pts, rows[pts]
        # border keys match no cell
        posn = np.searchsorted(self._keys, key)
        posn[posn == len(self._keys)] = 0
        pts = np.flatnonzero(self._keys[posn] == key)
        return pts, self._rows[posn[pts]]

    def locate(self, x):
        """Indices and cell rows of the points inside some cell; x holds one
        1-D coordinate array per axis, such as the columns of an (M, n) array
        (its transpose)."""
        key = self._axis_keys(x[0], 0)
        for i in range(1, self.n):
            key += self._axis_keys(x[i], i)
        return self._rows_at(key)

    def add_jet(self, x, gammas, out: np.ndarray):
        """Add this block's D^gammas[j] on product grids to out[j].

        x holds one (k, P) array per axis: row p's grid is the product over
        the axes i of its k coordinates x[i][:, p], and out is a C-ordered
        (J, k, ..., k, P) array, the cell axis last.  Each row is located
        once, by its middle coordinates x[i][k // 2, p].  It is evaluated on
        its grid only if each of its coordinates floors, axis by axis, to the
        lattice index of that middle coordinate, as every 1-point row (k = 1)
        does: then every grid point lies in the middle point's cell, or all
        in none.  Any other row straddles cells and goes through as k^n
        1-point rows.  Either way each grid point gets the bits a 1-point row
        gives it.
        """
        k, P = x[0].shape
        n = self.n
        # out[j] flat, grid-major: grid point s of row p at s P + p
        flat = out.reshape(len(gammas), k**n * P)
        if k == 1:
            self._add_points([xi[0] for xi in x], None, gammas, flat)
            return
        mid = k // 2
        key = 0
        exact = True
        for i, xi in enumerate(x):
            ax = self._axis_keys(xi, i)
            exact = exact & (ax == ax[mid]).all(axis=0)
            key = key + ax[mid]
        pts, rows = self._rows_at(key)
        on = exact[pts]
        pts, rows = pts[on], rows[on]
        if pts.size:
            whole = pts.size == P
            # axis i's coordinates along grid axis i, the cell axis last
            grid = [
                (xi if whole else xi.take(pts, axis=1)).reshape(
                    (1,) * i + (k,) + (1,) * (n - 1 - i) + (-1,)
                )
                for i, xi in enumerate(x)
            ]
            # with every row on its grid in a cell, out takes the totals
            # whole: a fancy-indexed add costs about ten times more
            at = np.s_[:] if whole else (np.arange(k**n)[:, None] * P + pts).ravel()
            self._add_terms(grid, None, rows, gammas, flat, at)
        cut = np.flatnonzero(~exact)
        if cut.size:
            # the straddling rows' grid points, grid-major as in out
            ref = np.indices((k,) * n).reshape(n, -1)
            pt = [xi[:, cut][ref[i]].reshape(-1) for i, xi in enumerate(x)]
            pos = (np.arange(k**n)[:, None] * P + cut).reshape(-1)
            self._add_points(pt, pos, gammas, flat)

    def _add_points(self, x, pos, gammas, flat):
        """Add this block's D^gammas[j] at single points to flat[j]: x holds
        one 1-D coordinate array per axis, and point q goes to position
        pos[q], or q where pos is None.  The located points go to _add_terms
        in slices of _POINT_CHUNK: point-sized temporaries (800 KB at 100k
        points) would come from fresh pages on every call."""
        pts, rows = self.locate(x)
        at = pts if pos is None else pos[pts]
        for s in range(0, pts.size, _POINT_CHUNK):
            c = np.s_[s : s + _POINT_CHUNK]
            self._add_terms(x, pts[c], rows[c], gammas, flat, at[c])

    def _add_terms(self, x, pts, rows, gammas, flat, at):
        """Add this block's D^gammas[j] at the coordinates x to flat[j][at].

        x holds one array per axis, broadcasting with the others, whose last
        axis runs over the cell rows; pts, unless None, picks the entries of
        1-D coordinates that lie in them.  Each axis is gathered only as its
        offsets are taken, and each total is added before the next is
        computed, so few point-sized arrays are alive at once.
        """
        _, _, poly_terms, leibniz = _bound_plan(self.n, self.profile.order)
        hw = self.half_width
        # offsets from the cell centers, one array per axis
        dx = []
        for i, xi in enumerate(x):
            center = self.lows[:, i].take(rows)
            center += hw
            if pts is None:
                dx.append(xi - center)
            else:
                xi = xi[pts]
                xi -= center
                dx.append(xi)
        # per-axis tables of cutoff-factor derivatives in the x variable
        fac = []
        for i in range(self.n):
            k_i = max((gamma[i] for gamma in gammas), default=0)
            s = np.abs(dx[i])
            s /= hw
            tab = self.profile.profile_derivatives(s, k_i)
            axis = [tab[0]]
            if k_i:
                sgn = np.sign(dx[i])
                for k in range(1, k_i + 1):
                    row = tab[k]
                    row *= sgn if k == 1 else sgn**k
                    row /= hw**k
                    axis.append(row)
            fac.append(axis)
        # D^gp of the cell polynomials over the live columns, shared by every
        # gamma that needs it; None where no live column enters.  Every
        # product and sum keeps its left-to-right order, and broadcasting
        # across the axes computes each point as on its own, so results stay
        # bit for bit those of a gather of all columns at single points.  A
        # power 1 and a factor 1.0 are skipped: the product is the other
        # operand, bit for bit
        poly = {}
        for j, gamma in enumerate(gammas):
            total = None
            for beta, comb, gp in leibniz[gamma]:
                if gp not in poly:
                    pv = None
                    for col, _deg, invfact, expo in poly_terms[gp]:
                        if col not in self._live:
                            continue
                        mono = None if invfact == 1.0 else invfact
                        for i, e in enumerate(expo):
                            if e:
                                p = dx[i] if e == 1 else dx[i] ** e
                                mono = p if mono is None else mono * p
                        term = self.coeffs[:, col].take(rows)
                        if mono is not None:
                            term = term * mono
                        pv = term if pv is None else pv + term
                    poly[gp] = pv
                if poly[gp] is None:
                    continue
                cut = fac[0][beta[0]] if comb == 1.0 else comb * fac[0][beta[0]]
                for i in range(1, self.n):
                    cut = cut * fac[i][beta[i]]
                term = cut * poly[gp]
                total = term if total is None else total + term
            if total is not None:
                flat[j][at] += total.reshape(-1)


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

    def with_block(self, lows, spacing, theta, stage, coeffs) -> "BumpPolySum":
        """A new sum extended by one lattice block of stage >= 1 (self is unchanged)."""
        blk = _Block(self._n, self._m, spacing, theta, stage, lows, coeffs)
        return BumpPolySum(self._n, self._m, self._blocks + (blk,))

    def jet(self, x, gammas) -> np.ndarray:
        """Exact derivatives at the points x (M, n), one column per multi-index.

        Column j of the (M, len(gammas)) result is D^gammas[j] of the sum.
        This is grid_jet with each point a 1-point row, transposed: the
        result is column-major (Fortran-ordered).
        """
        pts = np.asarray(x, float)
        if pts.ndim != 2 or pts.shape[1] != self._n:
            raise ValueError(f"points must be (M, {self._n}) for dimension {self._n}")
        rows = [pts[:, i][None, :] for i in range(self._n)]
        out = self.grid_jet(rows, gammas)
        return out.reshape(out.shape[0], pts.shape[0]).T

    def grid_jet(self, x, gammas) -> np.ndarray:
        """Exact derivatives on product grids, shape (J, k, ..., k, P).

        x holds one (k, P) array per axis, and row p's grid is the product of
        its columns x[0][:, p], ..., x[n-1][:, p]: entry [j, a_1, ..., a_n, p]
        is D^gammas[j] of the sum at (x[0][a_1, p], ..., x[n-1][a_n, p]), the
        one evaluation kernel (_Block.add_jet) summed over the blocks.  A
        block is skipped when the box of all the coordinates misses its
        bounding lattice grown by one cell, as no point then lies in its
        cells.  A 1-point row (k = 1) is a single point, and every grid point
        gets the bits it gets as one.
        """
        gammas = self._check_gammas(gammas)
        x = [np.asarray(xi, float) for xi in x]
        shape = x[0].shape if x else ()
        if len(x) != self._n or len(shape) != 2 or any(xi.shape != shape for xi in x):
            raise ValueError(f"need {self._n} grid rows (k, P) for dimension {self._n}")
        k, P = shape
        out = np.zeros((len(gammas),) + (k,) * self._n + (P,))
        if not out.size:
            return out
        # a NaN bound compares false, so it misses no block
        lo = [xi.min() for xi in x]
        hi = [xi.max() for xi in x]
        for b in self._blocks:
            if not any(h < a or l > z for (a, z), l, h in zip(b._reach, lo, hi)):
                b.add_jet(x, gammas, out)
        return out

    def _check_gammas(self, gammas) -> list:
        gammas = [tuple(int(g) for g in gamma) for gamma in gammas]
        for gamma in gammas:
            if len(gamma) != self._n or any(g < 0 for g in gamma):
                raise ValueError("gamma must be a length-%d multi-index" % self._n)
            if sum(gamma) > self._m:
                raise ValueError(
                    "derivatives above order %d are not defined" % self._m
                )
        return gammas

    def derivative(self, x, gamma=None):
        """Exact D^gamma of the sum at x ((M, n) array or a single point);
        gamma None is the value."""
        if gamma is None:
            gamma = (0,) * self._n
        x = np.asarray(x, float)
        single = x.ndim == 1
        out = self.jet(x[None, :] if single else x, [gamma])[:, 0]
        return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# certificates


def _jsonable(v):
    if isinstance(v, np.ndarray):
        # nested lists, walked below, or the scalar of a 0-d array
        v = v.tolist()
    elif isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        # keep certificates valid strict JSON
        return repr(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _json_is(v, *kinds: type):
    # exact types, so a bool is not an int
    if type(v) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"expected {names}, got {v!r}")
    return v


def _json_float(v) -> float:
    # a number, or one of the spellings _jsonable gives non-finite floats
    if type(v) in (int, float) or v in ("inf", "-inf", "nan"):
        return float(v)
    raise ValueError(f"expected a number, got {v!r}")


# how from_dict reads a field of each declared type back from JSON: a value
# whose JSON type does not match the field's is refused, never coerced
_FROM_JSON = {
    "int": lambda v: _json_is(v, int),
    "float": _json_float,
    "str": lambda v: _json_is(v, str),
    "dict[str, int]": lambda v: {
        k: _json_is(x, int) for k, x in _json_is(v, dict).items()
    },
    "tuple[int, ...]": lambda v: tuple(_json_is(x, int) for x in _json_is(v, list)),
    "tuple[float, ...]": lambda v: tuple(map(_json_float, _json_is(v, list))),
}


def _read_fields(cls, d: dict) -> dict:
    """d's value of each field of cls that _FROM_JSON reads, by field name."""
    out = {}
    for f in fields(cls):
        if f.type in _FROM_JSON:
            try:
                out[f.name] = _FROM_JSON[f.type](d[f.name])
            except ValueError as exc:
                raise ValueError(f"{f.name}: {exc}") from None
    return out


# BuildConfig's accepted types per field type; a bool is not a stage count
_SETTING_TYPES = {"int": int, "float": (int, float), "Modulus": Modulus}


@dataclass(frozen=True)
class BuildConfig:
    """Settings of a construction run.

    construct's flags, the run manifest's config and the certificate's
    config all derive from these fields.  Each value's type and range is
    checked, and nothing is coerced.
    """

    eps: float = 0.05
    sigma: float = 0.5
    tau: float = 1e-3
    theta: float = 0.5
    grid: int = 64
    stages: int = 4
    quantile: float = 0.995
    refine_max: int = 3
    seed: int = 0
    modulus: Modulus = dataclass_field(default_factory=LogModulus)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, _SETTING_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {v!r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        for name in ("sigma", "tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.grid < 2:
            raise ValueError("grid must be at least 2")
        if self.stages < 1:
            raise ValueError("stages must be at least 1")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must lie in (0, 1]")
        if not 0 <= self.refine_max <= 6:
            raise ValueError("refine_max must lie in 0..6")

    def to_dict(self) -> dict:
        """The fields by name, with the modulus as its spec_dict()."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["modulus"] = self.modulus.spec_dict()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "BuildConfig":
        """Inverse of to_dict; ValueError for a missing, unknown or mistyped key."""
        keys, names = set(_json_is(d, dict)), {f.name for f in fields(cls)}
        if keys != names:
            raise ValueError(f"config keys missing or unknown: {sorted(keys ^ names)}")
        return cls(**{**d, "modulus": modulus_from_dict(d["modulus"])})


def stage_weight(k: int) -> float:
    """Stage k's share 2^-k of every global budget; the shares sum below 1."""
    return 2.0**-k


@dataclass(frozen=True)
class StageReport:
    """What one construction stage measured; the certificate derives the rest."""

    stage: int
    truncation_bound: float
    covered_measure: float
    cells_considered: int
    cells_accepted: int
    reject_counts: dict[str, int]
    sup_bounds: tuple[float, ...]
    lipschitz_bound: float
    modulus_coefficient: float

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_dict(cls, d: dict) -> "StageReport":
        """Inverse of to_dict; ValueError for a value of the wrong JSON type.
        Keys of no field, such as the entries the certificate derives and the
        delta and sup_ratio of older certificates, are ignored."""
        return cls(**_read_fields(cls, d))


@dataclass(frozen=True, eq=False)
class BuildCertificate:
    """Coverage, settings and budget ledgers of a finished construction.

    domain and config are the build's own; the JSON form writes the config's
    modulus at the top level, its stages as stages_requested and its grid
    once per axis.  covered_cells[k] is an (N_k, 2n) array of certified
    closed boxes (low then high per axis) for stage k+1; boxes of distinct
    stages are pairwise disjoint.  The ledgers accumulate the per-stage sup,
    Lipschitz and modulus budgets whose sums realize the global budgets
    sigma (orders <= m-1), sigma (orders <= m-2) and 1 (order m-1).  They,
    the measures, partial_cover, profile_constant and each stage's budgets
    and measures are computed from the stage reports, config and domain.
    Construction raises ValueError unless the stage reports are numbered
    1, 2, ..., K, each holds order sup bounds, and covered_cells holds one
    array per stage.
    """

    order: int
    domain: BoxDomain
    field_name: str
    config: BuildConfig
    stage_reports: tuple
    covered_cells: tuple
    term_count: int

    def __post_init__(self):
        lists, k = len(self.covered_cells), len(self.stage_reports)
        if [r.stage for r in self.stage_reports] != list(range(1, k + 1)):
            raise ValueError("stages are not numbered 1, 2, ... in order")
        if lists != k:
            raise ValueError(f"covered_cells holds {lists} lists for {k} stages")
        if any(len(r.sup_bounds) != self.order for r in self.stage_reports):
            raise ValueError(f"a stage does not hold {self.order} sup bounds")

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def profile_constant(self) -> float:
        profile = CutoffProfile(self.order, self.config.theta)
        return profile.bound_constant(self.dimension)

    @property
    def sup_ledger(self) -> tuple[float, ...]:
        reports = self.stage_reports
        return tuple(
            float(sum(r.sup_bounds[q] for r in reports)) for q in range(self.order)
        )

    @property
    def lipschitz_ledger(self) -> float:
        return float(sum(r.lipschitz_bound for r in self.stage_reports))

    @property
    def modulus_ledger(self) -> float:
        return float(sum(r.modulus_coefficient for r in self.stage_reports))

    @property
    def coverage_measure(self) -> float:
        return float(sum(r.covered_measure for r in self.stage_reports))

    @property
    def residual_measure(self) -> float:
        return self.domain.volume() - self.coverage_measure

    @property
    def partial_cover(self) -> bool:
        cap = self.config.eps * self.domain.volume() * (1 + 1e-12)
        return self.residual_measure > cap

    def coverage_fraction(self) -> float:
        return self.coverage_measure / self.domain.volume()

    def residual_fraction(self) -> float:
        return self.residual_measure / self.domain.volume()

    def budgets_ok(self) -> bool:
        return (
            all(s < self.config.sigma for s in self.sup_ledger)
            and self.lipschitz_ledger <= self.config.sigma
            and self.modulus_ledger <= 1.0
        )

    def _stage_derived(self):
        """Per stage, the JSON entries its number, config and earlier stages give."""
        cfg, volume, earlier = self.config, self.domain.volume(), 0.0
        for r in self.stage_reports:
            w = stage_weight(r.stage)
            target = cfg.eps * volume * w
            residual = volume - earlier - r.covered_measure
            yield {
                "sup_budget": cfg.sigma * w,
                "modulus_weight": w,
                "measure_target": target,
                "active_measure": volume - earlier,
                "residual_measure": residual,
                "slack": max(0.0, residual - target),
            }
            earlier += r.covered_measure

    def _derived(self) -> dict:
        """The JSON form's entries that the stage reports, config and domain give."""
        return {
            "profile_constant": self.profile_constant,
            "ledgers": {
                "supnorm_per_order": _jsonable(self.sup_ledger),
                "lipschitz": self.lipschitz_ledger,
                "modulus": self.modulus_ledger,
            },
            "coverage_measure": self.coverage_measure,
            "residual_measure": self.residual_measure,
            "coverage_fraction": self.coverage_fraction(),
            "residual_fraction": self.residual_fraction(),
            "partial_cover": self.partial_cover,
            "budgets_ok": self.budgets_ok(),
        }

    def to_dict(self, include_cells: bool = True) -> dict:
        config = self.config.to_dict()
        modulus = config.pop("modulus")
        config["stages_requested"] = config.pop("stages")
        config["grid"] = [config["grid"]] * self.dimension
        stages = zip(self.stage_reports, self._stage_derived())
        out = {
            "dimension": self.dimension,
            "order": self.order,
            "domain": self.domain.to_dict(),
            "field": self.field_name,
            "modulus": modulus,
            "config": config,
            "stages": [{**r.to_dict(), **s} for r, s in stages],
            "term_count": self.term_count,
            **self._derived(),
        }
        if include_cells:
            out["covered_cells"] = [_jsonable(c) for c in self.covered_cells]
        else:
            out["covered_cells_counts"] = [int(c.shape[0]) for c in self.covered_cells]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "BuildCertificate":
        """Rebuild a certificate from its to_dict(include_cells=True) form.

        Raises ValueError for a missing field, a field of the wrong shape, a
        value whose JSON type does not match its field's, a config that
        BuildConfig refuses, stages not numbered 1, 2, ..., a stage not
        holding order sup bounds, covered_cells with a list count other than
        the stage count, or a written ledger, measure, fraction, flag,
        profile constant or stage budget or measure other than the one the
        stage reports, config and domain give.
        Config keys of no BuildConfig field are ignored, as are other keys.
        """
        try:
            domain = BoxDomain.from_dict(d["domain"])
            n = domain.dimension
            if _json_is(d["dimension"], int) != n:
                raise ValueError("dimension does not match the domain")
            config = _json_is(d["config"], dict)
            grid = _FROM_JSON["tuple[int, ...]"](config["grid"])
            if len(grid) != n or len(set(grid)) != 1:
                raise ValueError(f"grid: expected one count for all {n} axes")
            config = {**config, "stages": config["stages_requested"], "grid": grid[0]}
            config["modulus"] = d["modulus"]
            settings = {f.name: config[f.name] for f in fields(BuildConfig)}
            read = _read_fields(cls, {**d, "field_name": d["field"]})
            cells = [np.asarray(c) for c in d["covered_cells"]]
            if any(c.size and c.dtype.kind not in "if" for c in cells):
                raise ValueError("covered_cells: expected numbers")
            reports = tuple(StageReport.from_dict(r) for r in d["stages"])
            cert = cls(
                domain=domain,
                config=BuildConfig.from_dict(settings),
                stage_reports=reports,
                covered_cells=tuple(c.astype(float).reshape(-1, 2 * n) for c in cells),
                **read,
            )
            pairs = zip([d, *d["stages"]], [cert._derived(), *cert._stage_derived()])
            # compared as JSON text, so 1 never matches true
            for written, derived in pairs:
                for key, value in derived.items():
                    if _json_text(written[key]) != _json_text(value):
                        raise ValueError(f"{key} {written[key]!r} != derived {value!r}")
            return cert
        except ValueError as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from exc


def _json_text(v) -> str:
    return json.dumps(_jsonable(v), sort_keys=True)
