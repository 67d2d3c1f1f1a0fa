"""Stagewise constructions of smooth functions with prescribed derivatives.

Given measurable top-order data on a box, the builders assemble a sum of
cutoff-polynomial cell terms whose sup, Lipschitz and modulus-of-continuity
ledgers stay inside explicit per-stage budgets, and report the uncovered
remainder honestly instead of forcing full coverage.  All derivative
budgets are certified through rigorous per-cell bounds; only the pointwise
match tolerance relies on stencil sampling, and the certification harness
re-checks that afterwards at random points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoxDomain,
    BuildCertificate,
    BuildConfig,
    BumpPolySum,
    CutoffProfile,
    StageReport,
    _fold_columns,
    _order_rows,
    cell_derivative_bounds,
    enumerate_multiindices,
    stage_weight,
)

__all__ = [
    "BuildConfig",
    "FieldCollection",
    "field_catalog",
    "multi_stage_build",
]


@dataclass(frozen=True)
class FieldCollection:
    """Measurable top-order data: one component per multi-index of the order.

    sources is a tuple of (multi_index, callable) pairs aligned with
    enumerate_multiindices(dimension, order); a None callable means the
    component vanishes identically.  Callables receive points of shape
    (M, dimension) and return (M,) values.
    """

    name: str
    dimension: int
    order: int
    sources: tuple

    @classmethod
    def from_map(cls, name, dimension, order, mapping):
        alphas = enumerate_multiindices(dimension, order)
        unknown = set(mapping) - set(alphas)
        if unknown:
            raise ValueError(f"components {sorted(unknown)} do not have order {order}")
        return cls(name, dimension, order, tuple((a, mapping.get(a)) for a in alphas))

    @property
    def alphas(self) -> tuple:
        return tuple(a for a, _ in self.sources)

    def evaluate(self, x) -> np.ndarray:
        """Stack every component at points (M, n) into an (M, K) array."""
        pts = np.atleast_2d(np.asarray(x, float))
        if pts.shape[1] != self.dimension:
            raise ValueError("points do not match the field dimension")
        # each component's values contiguous: the transpose of a (K, M) array
        out = np.zeros((len(self.sources), pts.shape[0]))
        for j, (_, fn) in enumerate(self.sources):
            if fn is not None:
                out[j] = np.asarray(fn(pts), float)
        return out.T

    def residual(self, g: BumpPolySum, rows) -> np.ndarray:
        """The residual data self - g on product grids, as a (K, k^n, P) table.

        rows holds one (k, P) array per axis, row p's grid being the product of
        the columns rows[i][:, p], as BumpPolySum.grid_jet takes them: entry
        [j, s, p] is component j at grid point s of row p, grid-major.  The
        callables get the grid points flat, and g gets the rows, so the values
        are bit for bit self.evaluate(x) - g.jet(x, self.alphas) at the flat
        points x.  A single point is a row with k = 1.
        """
        n = len(rows)
        k, P = rows[0].shape
        # the grid points, axis by axis, broadcast into one array
        pts = np.empty((n,) + (k,) * n + (P,))
        for i, xi in enumerate(rows):
            pts[i] = xi.reshape((1,) * i + (k,) + (1,) * (n - 1 - i) + (P,))
        res = self.evaluate(pts.reshape(n, -1).T).T.reshape(len(self.sources), k**n, P)
        if g.term_count:
            res -= g.grid_jet(rows, self.alphas).reshape(res.shape)
        return res


def field_catalog(name: str) -> FieldCollection:
    """Named example fields used by the command line tools and tests."""
    if name == "heisenberg":
        return FieldCollection.from_map(
            "heisenberg",
            2,
            1,
            {(1, 0): lambda p: 2.0 * p[:, 1], (0, 1): lambda p: -2.0 * p[:, 0]},
        )
    if name == "zero":
        return FieldCollection.from_map("zero", 2, 1, {})
    if name == "xx2":
        return FieldCollection.from_map(
            "xx2", 2, 2, {(2, 0): lambda p: np.full(p.shape[0], 2.0)}
        )
    if name == "invx":
        return FieldCollection.from_map(
            "invx", 1, 1, {(1,): lambda p: 1.0 / p[:, 0]}
        )
    raise ValueError(
        f"unknown field {name!r}; available: heisenberg, invx, xx2, zero"
    )


# Cells a stage tests in one vectorised pass, and stencil points one call of
# FieldCollection.residual takes (a center's 3^n points count whole, as one
# grid row): no array of a stage grows with the cells of a level.
_BATCH = 2**15
# Consecutive cells of a pinch test that one grown box reads at a time (see
# _pinch_fails): fewer cells than a batch, so that a box misses coverage
# that lies near only some of the batch's cells.
_GROUP = 2**8


def _square_side(dom: BoxDomain) -> float:
    sides = dom.side_lengths()
    if np.ptp(sides) > 1e-9 * sides.max():
        raise ValueError("builders tile with congruent cubes; use a cubic box")
    return float(sides[0])


def _truncation_level(residuals, quantile: float) -> float:
    """Smallest level T with max|field - g| <= T at the requested fraction
    of the seed cells' centers; quantile 1 gives the sampled maximum.

    residuals lists the residual data at the centers as (K, B) arrays, one
    column per cell.  A NaN center counts as +inf, so data NaN at more than
    the spared fraction give T = +inf, and never T = NaN.
    """
    vals = np.concatenate([np.abs(v).max(axis=0) for v in residuals])
    vals[np.isnan(vals)] = np.inf
    k = min(vals.size - 1, max(0, math.ceil(quantile * vals.size) - 1))
    return float(np.partition(vals, k)[k])


def _stencil_osc(field: FieldCollection, g: BumpPolySum, centers, center_vals, reach):
    """Max deviation of the residual data field - g from its center value over
    a 3^n stencil: each center c, a column of centers (n, B), and its reach r
    give the points c + {-r, 0, r}^n, one grid row of field.residual, whose
    center values are the columns of center_vals (K, B).  At most _BATCH
    points go to each call, or one center's 3^n if more.
    """
    n = centers.shape[0]
    unit = np.array([-1.0, 0.0, 1.0])
    out = np.empty(centers.shape[1])
    step = max(1, _BATCH // 3**n)
    for s in range(0, out.size, step):
        r = reach[s : s + step]
        rows = [c + unit[:, None] * r for c in centers[:, s : s + step]]
        dev = np.abs(field.residual(g, rows) - center_vals[:, None, s : s + step])
        out[s : s + step] = dev.reshape(-1, r.size).max(axis=0)
    return out


def _bound_maxima(profile: CutoffProfile, n: int, top: np.ndarray, hw: float, modulus):
    """The per-cell reductions the bound checks read, for cells of
    half-width hw whose data are the rows of top: one per order-m index, in
    _order_rows order, one column per cell.  top is overwritten.

    Returns (bmax, lip, env), each reduced over cell_derivative_bounds's
    rows: for each order q < m, bmax[q] is the cell's largest order-q sup
    bound and lip[q] its largest order-q Lipschitz norm, the root sum of
    squares of the bounds of a derivative's n raises; env is the modulus
    envelope 2 S M(S/L) with S = bmax[m - 1] and L = lip[m - 1].  Every
    reduction runs in place, left to right in row order, which gives the
    bits of numpy's max and sum over the gathered rows.
    """
    m = profile.order
    by_order, raises = _order_rows(n, m)
    N = top.shape[1]
    bounds = cell_derivative_bounds(profile, n, np.abs(top, out=top), hw)
    bmax = np.empty((m, N))
    for q in range(m):
        _fold_columns(np.maximum, [bounds[r] for r in by_order[q]], bmax[q])
    # past the maxima only squares are read, and row 0, of order 0, is no raise
    np.square(bounds[1:], out=bounds[1:])
    lip = np.empty((m, N))
    norm = np.empty(N)
    for q in range(m):
        for j, ups in enumerate(raises[q]):
            acc = norm if j else lip[q]
            _fold_columns(np.add, [bounds[u] for u in ups], acc)
            np.sqrt(acc, out=acc)
            if j:
                np.maximum(lip[q], acc, out=lip[q])
    S, L = bmax[m - 1], lip[m - 1]
    # infinite data give inf / inf: NaN, whose ratio is e
    with np.errstate(invalid="ignore"):
        ratio = S / L
    return bmax, lip, 2.0 * S * modulus.sup_ratio(ratio)


def _batches(parents, scale: int, shifts):
    """A queue entry's cells scale * parent + shift, parent-major, as (n, B)
    arrays of whole parents, at most _BATCH cells each unless one parent
    has more.  parents lists (n, P) arrays, walked in order as one."""
    n, S = shifts.shape
    step = max(1, _BATCH // S)
    total = sum(part.shape[1] for part in parents)
    parts = iter(parents)
    part, at = np.zeros((n, 0), np.int64), 0
    for s in range(0, total, step):
        kids = np.empty((n, min(step, total - s), S), np.int64)
        # the batch's parents, run by run of one part
        done = 0
        while done < kids.shape[1]:
            while at == part.shape[1]:
                part, at = next(parts), 0
            k = min(kids.shape[1] - done, part.shape[1] - at)
            par = scale * part[:, at : at + k]
            # one shift at a time: numpy broadcasts over a short last axis slowly
            for j in range(S):
                np.add(par, shifts[:, j : j + 1], out=kids[:, done : done + k, j])
            done += k
            at += k
        yield kids.reshape(n, -1)


def _run_stage(
    field: FieldCollection,
    g: BumpPolySum,
    dom: BoxDomain,
    cfg: BuildConfig,
    profile: CutoffProfile,
    stage: int,
    *,
    seeds: list,
    h0: float,
    sat: np.ndarray | None = None,
):
    """One certification pass over the free cells, with dyadic refinement.

    The residual data are field - g, g the sum of the earlier blocks that
    reach the stage's free cells (see multi_stage_build), as every centre
    and stencil point lies in a free cell or on its faces.
    Returns (accepted, report): accepted lists (level, idx, coeffs) per
    queue entry, idx the cells (n, B) of the level-r lattice, grid 2^r cells
    per axis, and coeffs None for zero-data cells, which are certified whole;
    report is the StageReport; w_mod = stage_weight(stage), b_sup = sigma
    w_mod.  seeds lists (level, idx) pairs.  Checks per cell, cheapest
    first: truncation of the center data, the per-order sup caps (pinched
    in later stages), the Lipschitz caps, the modulus envelope
    2 S M(S/L) <= w_mod, and last the sampled oscillation against tau: over
    the plateau c +- (1 - theta) hw of a term, and over the whole cell of a
    zero-data cell.  The truncation and oscillation tests read
    not(value <= bound), so a NaN center fails truncation and a NaN stencil
    point fails oscillation.  Failing cells split into 2^n children until
    refine_max.  Each queue entry (level, parents, scale, shifts, res)
    holds one level's cells, scale * parent + shift for each parent column
    and each shift column, parent-major, parents a list of (n, P) arrays
    read in order as one: a seed entry has its seeds, scale 1 and one zero
    shift, a refined entry the failing cells of the level above, one array
    per batch that found them, scale 2 and the 2^n child shifts.  An entry
    is tested in the batches of _batches; each cell's checks are its own
    and results are merged once per entry, so the outcome does not depend
    on _BATCH.
    A batch's cells and centers are (n, B) arrays, its residual values at
    the centers (K, B), one column per cell.  A seed entry's res lists
    these values per batch: they are evaluated once, before any cell is
    tested, as T is read off them.  A refined entry's res is None, and each
    batch evaluates its own.  Each batch cell keeps one
    code: 0 while it passes, k + 1 once the first check it fails is
    reasons[k]; the bound checks run on compact arrays of the cells past
    truncation, ti, and write their codes into one int8 array over ti,
    later checks first, so the earliest failed check's code is the one
    left; it is scattered into the batch's codes once.  Cells of code 0 go
    on to the oscillation check, the others split, and at refine_max the
    codes are tallied.  In later stages sat is the build's coverage table
    (see _paint), and _pinch_fails reads a cell's pinch off it: below
    refine_max only for cells passing the other bound checks, at refine_max
    for all, as the pinch counts first.
    """
    n, m = dom.dimension, profile.order
    lower = np.asarray(dom.lower)
    by_order = _order_rows(n, m)[0]
    K = sum(b.size for b in by_order)
    w_mod = stage_weight(stage)
    b_sup = cfg.sigma * w_mod

    def centers_of(idx, h):
        # in place; float addition commutes, so the sum is lower + idx h + h/2
        c = idx * h
        c += lower[:, None]
        c += h / 2.0
        return c

    def residual(centers):
        return field.residual(g, list(centers[:, None]))[:, 0]

    children = np.indices((2,) * n).reshape(n, -1)
    queue = []
    for r, idx in seeds:
        shift = np.zeros((n, 1), np.int64)
        res = [residual(centers_of(b, h0 / 2**r)) for b in _batches([idx], 1, shift)]
        queue.append((r, [idx], 1, shift, res))
    T = _truncation_level([v for *_, res in queue for v in res], cfg.quantile)
    # stage 1 counts both sup checks as supnorm
    reasons = (
        "truncation",
        "pinch" if sat is not None else "supnorm",
        "supnorm",
        "lipschitz",
        "modulus",
        "oscillation",
    )
    # refine_max cells per code
    tally = np.zeros(len(reasons) + 1, np.int64)
    accepted = []
    covered = 0.0
    considered = 0
    accepted_count = 0
    sup_acc = np.zeros(m)
    lip_acc = 0.0
    env_acc = 0.0
    sqrt_n = math.sqrt(n)
    h_rm = h0 / 2**cfg.refine_max

    while queue:
        level, parents, scale, shifts, res = queue.pop(0)
        N = sum(part.shape[1] for part in parents) * shifts.shape[1]
        if N == 0:
            continue
        considered += N
        h = h0 / 2**level
        hw = h / 2.0
        p = (1.0 - cfg.theta) * hw
        zero_idx, term_idx, term_vals, failed = [], [], [], []

        for b, idx in enumerate(_batches(parents, scale, shifts)):
            centers = centers_of(idx, h)
            vals = residual(centers) if res is None else res[b]
            amax = np.abs(vals).max(axis=0)
            zero = amax == 0.0
            code = (~(amax <= T)).view(np.int8)
            ti = np.flatnonzero(~zero & (code == 0))

            if ti.size:
                top = vals.take(ti, axis=1)
                bmax, lip, env_t = _bound_maxima(profile, n, top, hw, cfg.modulus)
                # the codes of the cells ti, later checks written first
                c = np.zeros(ti.size, np.int8)
                np.copyto(c, 5, where=env_t > w_mod)
                if m > 1:
                    lip_low = lip[: m - 1].max(axis=0)
                    np.copyto(c, 4, where=lip_low > b_sup)
                np.copyto(c, 3, where=bmax[m - 1] > b_sup / sqrt_n)
                if sat is None:
                    np.copyto(c, 2, where=(bmax > b_sup).any(axis=0))
                else:
                    # a failing cell splits whatever its pinch below refine_max
                    pc = np.s_[:] if level == cfg.refine_max else c == 0
                    f = 2 ** (cfg.refine_max - level)
                    worst = bmax[:, pc].max(axis=0)
                    near = idx.take(ti[pc], axis=1)
                    fail = _pinch_fails(sat, near, f, worst, b_sup, h_rm)
                    if level == cfg.refine_max:
                        np.copyto(c, 2, where=fail)
                    else:
                        # the cells pc have code 0
                        c[pc] = np.where(fail, 2, 0)
                code[ti] = c

            # zero cells and cells passing every bound check, in cell order
            si = np.flatnonzero(code == 0)
            reach = np.where(zero.take(si), hw, p)
            osc = _stencil_osc(
                field, g, centers.take(si, axis=1), vals.take(si, axis=1), reach
            )
            code[si[~(osc <= cfg.tau)]] = 6
            ok = code == 0
            oz, oi = np.flatnonzero(ok & zero), np.flatnonzero(ok & ~zero)
            if oz.size:
                zero_idx.append(idx.take(oz, axis=1))
            if oi.size:
                term_idx.append(idx.take(oi, axis=1))
                term_vals.append(vals.take(oi, axis=1))
                # the cells oi among ti, as every accepted term passed truncation
                k = ok[ti]
                sup_acc = np.maximum(sup_acc, bmax[:, k].max(axis=1))
                if m > 1:
                    lip_acc = max(lip_acc, lip_low[k].max())
                env_acc = max(env_acc, env_t[k].max())

            if level < cfg.refine_max:
                failed.append(idx.take(np.flatnonzero(code), axis=1))
            else:
                tally += np.bincount(code, minlength=tally.size)

        zeros = sum(part.shape[1] for part in zero_idx)
        terms = sum(part.shape[1] for part in term_idx)
        if zeros:
            accepted.append((level, np.concatenate(zero_idx, axis=1), None))
            covered += zeros * h**n
        if terms:
            # column-major, as the block stores it
            cf = np.zeros((terms, K), order="F")
            cf[:, by_order[m]] = np.concatenate(term_vals, axis=1).T
            accepted.append((level, np.concatenate(term_idx, axis=1), cf))
            covered += terms * (2.0 * p) ** n
        accepted_count += zeros + terms
        if failed:
            queue.append((level + 1, failed, 2, children, None))

    reject = {}
    for name, count in zip(reasons, tally[1:].tolist()):
        if count:
            reject[name] = reject.get(name, 0) + count
    report = StageReport(
        stage=stage,
        truncation_bound=T,
        covered_measure=covered,
        cells_considered=considered,
        cells_accepted=accepted_count,
        reject_counts=reject,
        sup_bounds=tuple(float(v) for v in sup_acc),
        lipschitz_bound=float(lip_acc),
        modulus_coefficient=float(env_acc),
    )
    return accepted, report


def _rim(theta: float, f: int) -> int:
    """Mask cells per axis that a term of a cell f mask cells wide leaves
    unpainted on each side, floor(theta f / 2): its collar past the plateau
    c +- (1 - theta) hw, less any part of a mask cell.  A term of rim 0 is
    painted whole, so no later stage's free cell reaches into it."""
    return math.floor(theta * f / 2)


def _paint(sat: np.ndarray, accepted: list, refine_max: int, theta: float):
    """Add a stage's certified mask cells to the coverage table sat, in place.

    sat is the summed-area table (Crow, SIGGRAPH 1984) of the coverage mask
    on the refine_max lattice: entry i counts the covered mask cells below
    i on every axis, so a box's coverage is a signed sum over its corners.
    accepted lists (level, idx, coeffs) entries as _run_stage returns them.
    A level-r cell spans f = 2^(refine_max - r) mask cells per axis; a term
    paints them less a rim _rim(theta, f) wide, which holds its plateau
    c +- (1 - theta) hw, and a zero-data cell paints them all.  Painted
    ranges meet neither each other nor earlier coverage, so the stage's 0/1
    mask, summed once along each axis, adds its own table and keeps every
    mask cell counted 0 or 1.  The last axis sums with np.cumsum, each
    leading axis by adding consecutive slices; integer sums are exact, so
    the order is free.  Each entry is one assignment through a view
    of the mask as (G_r, f) pairs of axes, G_r the level's cells per axis:
    the cells index the G_r axes and one slice spans the painted range on
    each f axis.
    """
    n = sat.ndim
    mask = np.zeros(tuple(s - 1 for s in sat.shape), np.int32)
    for level, idx, cf in accepted:
        f = 2 ** (refine_max - level)
        rim = 0 if cf is None else _rim(theta, f)
        # a view, as mask is contiguous: writes through it land in mask
        blocks = mask.reshape(sum(((s // f, f) for s in mask.shape), ()))
        blocks[sum(((i, slice(rim, f - rim)) for i in idx), ())] = 1
    for axis in range(n - 1):
        # numpy sums a leading axis one strided column at a time, so the
        # leading axes add consecutive slices instead
        rows = np.moveaxis(mask, axis, 0)
        for i in range(1, rows.shape[0]):
            np.add(rows[i], rows[i - 1], out=rows[i])
    np.cumsum(mask, axis=n - 1, out=mask)
    sat[(slice(1, None),) * n] += mask


def _coverage_near(sat: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Covered mask cells in each box lo <= i < hi of mask cells, clipped to
    the mask.

    lo and hi (n, B) hold each box's low and high corner, one column per
    box, as int64; both are overwritten with flat offsets into sat.
    """
    n = lo.shape[0]
    side = sat.shape[0]
    # flat offsets of each axis's low and high corner, clipped to the mask
    stride = side ** np.arange(n - 1, -1, -1)[:, None]
    np.maximum(lo, 0, out=lo)
    lo *= stride
    np.minimum(hi, side - 1, out=hi)
    hi *= stride
    ends = (lo, hi)
    flat = sat.reshape(-1)
    # the high corner first, whose sign is +; the int32 partial sums stay
    # within 2^n times the mask's cells, which the mask budget keeps below 2^31
    count = None
    # each corner's flat offsets, summed axis by axis into one buffer
    buf = np.empty(lo.shape[1], np.int64)
    for corner in itertools.product((1, 0), repeat=n):
        at = ends[corner[0]][0]
        for i in range(1, n):
            at = np.add(at, ends[corner[i]][i], out=buf)
        v = flat[at]
        if count is None:
            count = v
        else:
            (np.subtract if (n - sum(corner)) % 2 else np.add)(count, v, out=count)
    return count


def _pinch_fails(sat, cells, f, worst, b_sup: float, h_rm: float) -> np.ndarray:
    """Whether each cell's worst order-<m sup bound exceeds its pinched cap.

    cells (n, B) index a lattice of f mask cells per axis, and worst (B,)
    holds one bound per cell.  The cap is b_sup min((G h_rm)^2, 1), G the
    L-infinity gap in whole mask cells from the cell to the coverage.  The
    least gap whose cap holds worst is found in a table of caps, so the
    float comparison is the cap's own; the cell fails if, grown by that
    gap, it holds coverage.  Past the table's end a grown cell holds the
    whole mask, never empty in a later stage: a stage 1 that covers nothing
    ends the build.  A NaN worst sorts past the table too.

    The cells are read in groups of _GROUP consecutive cells first, one box
    per group, all in one read: the group's bounding box, grown by the gap
    of the group's largest worst, a NaN if any is.  The search is monotone
    and puts a NaN last, so every cell's gap is at most its group's, and
    each cell's grown box, clipped, lies inside its group's grown box,
    clipped.  Coverage counts are never negative, so no cell of a group
    whose box holds none fails: only the other groups' cells go on to the
    per-cell search and reads, and none when no group's box holds coverage.
    """
    B = worst.size
    if not B:
        return np.zeros(0, bool)
    caps = b_sup * np.minimum((np.arange(sat.shape[0]) * h_rm) ** 2, 1.0)
    starts = np.arange(0, B, _GROUP)
    widest = np.searchsorted(caps, np.maximum.reduceat(worst, starts))
    lo = np.minimum.reduceat(cells, starts, axis=1)
    lo *= f
    lo -= widest
    hi = np.maximum.reduceat(cells, starts, axis=1)
    hi *= f
    hi += widest + f
    held = _coverage_near(sat, lo, hi) > 0
    if not held.any():
        return np.zeros(B, bool)
    # the cells of the groups whose box holds coverage, gathered unless all
    keep = None if held.all() else np.flatnonzero(held.repeat(_GROUP)[:B])
    if keep is not None:
        cells, worst = cells.take(keep, axis=1), worst.take(keep)
    gap = np.searchsorted(caps, worst)
    lo = cells * f
    hi = lo + (gap + f)
    lo -= gap
    hit = _coverage_near(sat, lo, hi) > 0
    if keep is None:
        return hit
    fails = np.zeros(B, bool)
    fails[keep] = hit
    return fails


def _free_cells(sat: np.ndarray, grid: int, refine_max: int) -> list:
    """Maximal free dyadic cells per level, each listed once, in C order, as
    (level, idx) pairs with idx (n, B).

    sat is the build's coverage table on the refine_max lattice (see
    _paint).  The walk starts from the level-0 grid: a cell holding no
    coverage is free, and only cells holding both covered and free mask
    cells split into their 2^n children.  Each level reads the counts of a
    window of cells, the children of the box spanned by the mixed cells of
    the level above, as differences along each axis of one strided slice of
    sat.  Its free cells are the window's free cells with a mixed parent,
    which np.nonzero lists in C order.  On the empty table, stage 1's, this
    is the whole level-0 grid.
    """
    n = sat.ndim
    out = []
    # the window's first cell per axis, and its cells with a mixed parent
    lo, cand = (0,) * n, np.ones((grid,) * n, bool)
    for r in range(refine_max + 1):
        f = 2 ** (refine_max - r)
        window = zip(lo, cand.shape)
        count = sat[tuple(slice(a * f, (a + w) * f + 1, f) for a, w in window)]
        for axis in range(n):
            count = np.diff(count, axis=axis)
        free = np.nonzero(cand & (count == 0))
        out.append((r, np.stack([i + a for i, a in zip(free, lo)])))
        mixed = cand & (count > 0) & (count < f**n)
        at = np.nonzero(mixed)
        if not at[0].size:
            break
        span = [(int(i.min()), int(i.max()) + 1) for i in at]
        cand = mixed[tuple(slice(x, y) for x, y in span)]
        for axis in range(n):
            cand = cand.repeat(2, axis=axis)
        lo = tuple(2 * (a + x) for a, (x, _) in zip(lo, span))
    empty = np.zeros((n, 0), np.int64)
    return out + [(r, empty) for r in range(len(out), refine_max + 1)]


def multi_stage_build(field: FieldCollection, dom: BoxDomain, cfg: BuildConfig):
    """Iterated covering passes with geometrically split budgets.

    Returns (g, certificate): g carries one cutoff-polynomial term per
    accepted cell, and the certificate records coverage and the budget
    ledgers of every stage run.  Stage k works on the region not yet
    certified, targets all but eps |box| w_k of it, and spends sup budget
    sigma w_k and modulus weight w_k = stage_weight(k), so the ledgers sum
    strictly below the global budgets.  Certified plateau boxes of earlier
    stages repel later cells through a quadratic pinch on their sup bounds.
    Every stage reads its free cells, and every later stage each tested
    cell's pinch, off one coverage table, into which each stage's cells are
    painted before the next stage reads it (see _paint); as painting widens
    plateaus to whole mask cells, any theta keeps the stages' boxes disjoint.
    A stage's residual data are the field less the earlier blocks that reach
    its free cells: a sum sharing g's blocks, less those whose terms have
    rim 0 (see _rim).  Such a term is painted whole, so the free cells meet
    its cell at most on a face, where it vanishes to order m: the residual
    keeps its bits.
    """
    if field.dimension != dom.dimension:
        raise ValueError("field and domain dimensions differ")
    n, m = field.dimension, field.order
    # 4^n times the coverage table's (grid 2^refine_max)^n mask cells stay
    # under 3e8: its int32 counts cannot overflow and its memory stays small
    if (cfg.grid * 2 ** (cfg.refine_max + 2)) ** n > 3e8:
        raise ValueError("grid * 2**(refine_max + 2) exceeds the mask budget")
    side = _square_side(dom)
    h0 = side / cfg.grid
    profile = CutoffProfile(m, cfg.theta)
    lower = np.asarray(dom.lower)
    # every stage seeds from the table; a single stage only reads its level-0
    # corners, and pages never written never become resident
    sat = np.zeros((cfg.grid * 2**cfg.refine_max + 1,) * n, np.int32)

    g = BumpPolySum(n, m)
    # the blocks of g whose terms can reach a later stage's free cells
    reach = []
    reports = []
    covered_arrays = []
    for stage in range(1, cfg.stages + 1):
        seeds = _free_cells(sat, cfg.grid, cfg.refine_max)
        if all(idx.shape[1] == 0 for _, idx in seeds):
            break
        accepted, report = _run_stage(
            field,
            BumpPolySum(n, m, reach),
            dom,
            cfg,
            profile,
            stage,
            seeds=seeds,
            h0=h0,
            sat=sat if stage > 1 else None,
        )
        # certified boxes: the plateau c +- (1 - theta) hw of a term, the
        # whole cell of a zero-data cell
        boxes = [np.zeros((0, 2 * n))]
        for level, idx, cf in accepted:
            h = h0 / 2**level
            lows = (lower[:, None] + idx * h).T
            if cf is None:
                boxes.append(np.concatenate([lows, lows + h], axis=1))
                continue
            g = g.with_block(lows, h, cfg.theta, stage, cf)
            if _rim(cfg.theta, 2 ** (cfg.refine_max - level)):
                reach.append(g.blocks[-1])
            c, p = lows + h / 2.0, (1.0 - cfg.theta) * (h / 2.0)
            boxes.append(np.concatenate([c - p, c + p], axis=1))
        reports.append(report)
        covered_arrays.append(np.concatenate(boxes))
        if report.cells_accepted == 0:
            break
        if stage < cfg.stages:
            _paint(sat, accepted, cfg.refine_max, cfg.theta)
        # the stage's cells and boxes end with it, before the next one runs
        del accepted, boxes, idx, lows

    return g, BuildCertificate(
        order=m,
        domain=dom,
        field_name=field.name,
        config=cfg,
        stage_reports=tuple(reports),
        covered_cells=tuple(covered_arrays),
        term_count=g.term_count,
    )
