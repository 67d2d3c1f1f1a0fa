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
from collections import Counter
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .core import (
    BoxDomain,
    BuildCertificate,
    BumpPolySum,
    CutoffProfile,
    InfeasibleBudgetError,
    LogModulus,
    Modulus,
    StageReport,
    _index_table,
    cell_derivative_bounds,
    enumerate_multiindices,
    multiindices_upto,
)

__all__ = [
    "BuildConfig",
    "FieldCollection",
    "LemmaParams",
    "choose_lemma_params",
    "field_catalog",
    "lusin_truncate",
    "multi_stage_build",
    "tail_pinch_check",
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
        out = np.zeros((pts.shape[0], len(self.sources)))
        for j, (_, fn) in enumerate(self.sources):
            if fn is not None:
                out[:, j] = np.asarray(fn(pts), float)
        return out


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


@dataclass(frozen=True)
class BuildConfig:
    """Tunable knobs of a construction run."""

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
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
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
        if not isinstance(self.modulus, Modulus):
            raise ValueError("modulus must be a Modulus instance")


@dataclass(frozen=True)
class LemmaParams:
    """Stage parameters: truncation level and modulus scale cut.

    budget is the measure-driven quantity that sets the modulus scale cut
    delta, and sup_ratio is M(delta).
    """

    truncation: float
    budget: float
    delta: float
    sup_ratio: float


def choose_lemma_params(
    modulus: Modulus,
    target_measure: float,
    dom: BoxDomain,
    truncation: float,
    order: int,
    profile: CutoffProfile,
    volume: float | None = None,
    strict: bool = True,
) -> LemmaParams:
    """Derive the truncation budget and modulus scale cut for one stage.

    target_measure is the absolute uncovered-measure target of the stage.
    With strict=True an unrepresentable scale cut raises
    InfeasibleBudgetError naming the binding quantity; with strict=False
    the cut degrades to 0 with an infinite ratio so a build can proceed
    under the per-cell modulus envelope alone.
    """
    if target_measure <= 0.0:
        raise ValueError("target_measure must be positive")
    n = dom.dimension
    vol = dom.volume() if volume is None else float(volume)
    C = profile.bound_constant(n)
    if truncation <= 0.0:
        delta = dom.diameter()
        return LemmaParams(
            truncation=float(truncation),
            budget=math.inf,
            delta=delta,
            sup_ratio=modulus.sup_ratio(delta),
        )
    budget = target_measure**order / (math.sqrt(n) * C * vol**order * truncation)
    try:
        delta = min(modulus.scale_cut(budget), dom.diameter())
    except InfeasibleBudgetError as exc:
        if strict:
            raise InfeasibleBudgetError(
                f"modulus scale cut is not representable at budget {budget:.3e} "
                f"(truncation {truncation:.3e}, target measure {target_measure:.3e})"
            ) from exc
        delta = 0.0
    return LemmaParams(
        truncation=float(truncation),
        budget=budget,
        delta=delta,
        sup_ratio=math.inf if delta == 0.0 else modulus.sup_ratio(delta),
    )


# Cells a stage tests in one vectorised pass, and stencil points one call of
# the evaluator takes: no array of a stage grows with the cells of a level.
_BATCH = 2**15


def _square_side(dom: BoxDomain) -> float:
    sides = dom.side_lengths()
    if np.ptp(sides) > 1e-9 * sides.max():
        raise ValueError("builders tile with congruent cubes; use a cubic box")
    return float(sides[0])


def _grid_cells(grid: int, n: int) -> list:
    """Stage 1's seeds: every cell of the level-0 lattice."""
    return [(0, np.indices((grid,) * n).reshape(n, -1).T)]


def _truncation_level(evaluate, seeds, lower, h0: float, quantile: float) -> float:
    """Smallest level T with max|data| <= T at the requested fraction of the
    seed cells' centers; quantile 1 gives the sampled maximum.

    seeds lists (level, idx) pairs of cells on the level-r lattice of
    spacing h0 2^-r; evaluate takes at most _BATCH centers per call.
    """
    samples = []
    for r, idx in seeds:
        h = h0 / 2**r
        for s in range(0, idx.shape[0], _BATCH):
            centers = lower + idx[s : s + _BATCH] * h + h / 2.0
            samples.append(np.abs(evaluate(centers)).max(axis=1))
    vals = np.concatenate(samples)
    if quantile >= 1.0:
        return float(vals.max())
    k = min(vals.size - 1, max(0, math.ceil(quantile * vals.size) - 1))
    return float(np.partition(vals, k)[k])


def lusin_truncate(
    field: FieldCollection, dom: BoxDomain, quantile: float, grid: int = 64
) -> float:
    """The truncation level T that stage 1 of multi_stage_build uses.

    T is the smallest sampled level with max|f_alpha| <= T on at least the
    requested fraction of the grid^n cells of the cubic box (sampled at
    cell centers); quantile 1 degenerates to the sampled maximum.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    if field.dimension != dom.dimension:
        raise ValueError("field and domain dimensions differ")
    h0 = _square_side(dom) / grid
    seeds = _grid_cells(grid, dom.dimension)
    return _truncation_level(
        field.evaluate, seeds, np.asarray(dom.lower), h0, quantile
    )


def _residual_evaluator(field: FieldCollection, g: BumpPolySum):
    alphas = field.alphas

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = field.evaluate(pts)
        if g.term_count:
            out -= g.jet(pts, alphas)
        return out

    return evaluate


def _stencil_osc(evaluate, centers, center_vals, hw, theta):
    """Max deviation of the data from its center value over a 3^n stencil.

    Evaluates at most _BATCH points per call, or one center's 3^n if more.
    """
    n = centers.shape[1]
    p = (1.0 - theta) * hw
    offs = np.array(list(itertools.product((-p, 0.0, p), repeat=n)))
    out = np.empty(centers.shape[0])
    step = max(1, _BATCH // offs.shape[0])
    for s in range(0, centers.shape[0], step):
        block = centers[s : s + step]
        pts = (block[:, None, :] + offs[None, :, :]).reshape(-1, n)
        v = evaluate(pts).reshape(block.shape[0], offs.shape[0], -1)
        out[s : s + step] = np.abs(v - center_vals[s : s + step, None, :]).max(
            axis=(1, 2)
        )
    return out


def _run_stage(
    evaluate,
    dom: BoxDomain,
    cfg: BuildConfig,
    profile: CutoffProfile,
    stage: int,
    active: float,
    *,
    top_cols: np.ndarray,
    by_order: list,
    grad_rows: list,
    seeds: list,
    h0: float,
    sat: np.ndarray | None = None,
):
    """One certification pass over the free cells, with dyadic refinement.

    Returns (accepted, boxes, report): accepted lists (level, idx, coeffs)
    per lattice level, boxes holds the stage's certified closed boxes, and
    report is its StageReport; active is the measure not yet certified.
    seeds lists (level, idx) pairs: idx holds cells of the level-r lattice,
    grid 2^r cells per axis.  Checks per cell, cheapest first: truncation
    of the center data, the per-order sup caps (pinched in later stages),
    the Lipschitz caps, the modulus envelope 2 S M(S/L) <= w_mod, and last
    the sampled oscillation against tau.  Failing cells split into 2^n
    children until refine_max.  Each queue entry, one level's cells, is
    tested in batches of _BATCH cells; a refined entry holds the failing
    parents, and each batch expands only its own children.  Results are
    merged once per entry, so the outcome does not depend on _BATCH.
    top_cols, by_order and grad_rows locate, in the coefficient columns,
    the top-order indices, the indices of each order q, and the n
    first-order raises of each index of order q < m.  In later stages sat
    is the summed-area table of the coverage mask, and _pinch_fails reads
    each tested cell's pinch off it.
    """
    n, m = dom.dimension, profile.order
    lower = np.asarray(dom.lower)
    K = sum(b.size for b in by_order)
    b_sup = cfg.sigma * 2.0**-stage
    w_mod = 2.0**-stage
    target = cfg.eps * dom.volume() * 2.0**-stage
    T = _truncation_level(evaluate, seeds, lower, h0, cfg.quantile)
    params = choose_lemma_params(
        cfg.modulus, target, dom, T, m, profile, volume=active, strict=False
    )
    # a cell failing at refine_max is counted under the first reason it fails
    reasons = (
        "truncation",
        "pinch" if sat is not None else "supnorm",
        "supnorm",
        "lipschitz",
        "modulus",
        "oscillation",
    )
    shifts = np.array(list(itertools.product((0, 1), repeat=n)), np.int64)
    reject = Counter()
    accepted = []
    boxes = []
    covered = 0.0
    considered = 0
    accepted_count = 0
    sup_acc = np.zeros(m)
    lip_acc = 0.0
    env_acc = 0.0
    sqrt_n = math.sqrt(n)
    h_rm = h0 / 2**cfg.refine_max

    # (level, cells, split): with split, the entry's cells are the 2^n
    # children of each row of cells, in row order
    queue = [
        (lvl, np.asarray(idx, np.int64).reshape(-1, n), False) for lvl, idx in seeds
    ]
    while queue:
        level, cells, split = queue.pop(0)
        per_row = shifts.shape[0] if split else 1
        N = cells.shape[0] * per_row
        if N == 0:
            continue
        considered += N
        h = h0 / 2**level
        hw = h / 2.0
        p = (1.0 - cfg.theta) * hw
        zero_lows, term_idx, term_vals, plateaus, failed = [], [], [], [], []
        zero_count = 0
        rejected = np.zeros(len(reasons), np.int64)

        for s in range(0, N, _BATCH):
            if split:
                r0, r1 = s // per_row, -(-(s + _BATCH) // per_row)
                kids = (cells[r0:r1, None, :] * 2 + shifts[None, :, :]).reshape(-1, n)
                idx = kids[s - r0 * per_row : s - r0 * per_row + _BATCH]
            else:
                idx = cells[s : s + _BATCH]
            B = idx.shape[0]
            lows = lower + idx * h
            centers = lows + hw
            vals = evaluate(centers)
            amax = np.abs(vals).max(axis=1)

            zero = amax == 0.0
            trunc_bad = ~zero & (amax > params.truncation)
            test = ~zero & ~trunc_bad

            fail_cap = np.zeros(B, bool)
            fail_scap = np.zeros(B, bool)
            fail_lip = np.zeros(B, bool)
            fail_env = np.zeros(B, bool)
            lip_low = np.zeros(B)
            env = np.zeros(B)
            border = np.zeros((B, m))

            ti = np.flatnonzero(test)
            if ti.size:
                coeffs = np.zeros((ti.size, K))
                coeffs[:, top_cols] = vals[ti]
                bounds = cell_derivative_bounds(profile, n, m, coeffs, hw)
                bmax = np.stack(
                    [bounds[by_order[q]].max(axis=0) for q in range(m + 1)]
                )
                lip = {
                    q: np.sqrt((bounds[grad_rows[q]] ** 2).sum(axis=1)).max(axis=0)
                    for q in range(m)
                }
                S_t = bmax[m - 1]
                L_t = lip[m - 1]
                env_t = 2.0 * S_t * cfg.modulus.sup_ratio(S_t / L_t)

                if sat is None:
                    fail_cap[ti] = (bmax[:m] > b_sup).any(axis=0)
                else:
                    f = 2 ** (cfg.refine_max - level)
                    worst = bmax[:m].max(axis=0)
                    fail_cap[ti] = _pinch_fails(sat, idx[ti], f, worst, b_sup, h_rm)
                fail_scap[ti] = S_t > b_sup / sqrt_n
                if m >= 2:
                    lip_low[ti] = np.stack([lip[q] for q in range(m - 1)]).max(axis=0)
                    fail_lip[ti] = lip_low[ti] > b_sup
                fail_env[ti] = env_t > w_mod
                env[ti] = env_t
                border[ti] = bmax[:m].T

            bounds_ok = test & ~(fail_cap | fail_scap | fail_lip | fail_env)
            survivors = zero | bounds_ok
            fail_osc = np.zeros(B, bool)
            si = np.flatnonzero(survivors)
            if si.size:
                osc = _stencil_osc(evaluate, centers[si], vals[si], hw, cfg.theta)
                fail_osc[si] = osc > cfg.tau

            ok_zero = zero & ~fail_osc
            ok_term = bounds_ok & ~fail_osc
            if ok_zero.any():
                zero_lows.append(lows[ok_zero])
                zero_count += ok_zero.sum()
            if ok_term.any():
                oi = np.flatnonzero(ok_term)
                term_idx.append(idx[oi])
                term_vals.append(vals[oi])
                plateaus.append(
                    np.concatenate([centers[oi] - p, centers[oi] + p], axis=1)
                )
                sup_acc = np.maximum(sup_acc, border[oi].max(axis=0))
                lip_acc = max(lip_acc, lip_low[oi].max())
                env_acc = max(env_acc, env[oi].max())

            failing = ~(ok_zero | ok_term)
            if level < cfg.refine_max:
                failed.append(idx[failing])
                continue
            masks = (trunc_bad, fail_cap, fail_scap, fail_lip, fail_env, fail_osc)
            for j, mask in enumerate(masks):
                rejected[j] += (failing & mask).sum()
                failing &= ~mask

        terms = sum(part.shape[0] for part in term_idx)
        if zero_lows:
            zl = np.concatenate(zero_lows)
            boxes.append(np.concatenate([zl, zl + h], axis=1))
            covered += zero_count * h**n
        if terms:
            cf = np.zeros((terms, K))
            cf[:, top_cols] = np.concatenate(term_vals)
            accepted.append((level, np.concatenate(term_idx), cf))
            boxes.append(np.concatenate(plateaus))
            covered += terms * (2.0 * p) ** n
        accepted_count += int(zero_count) + terms
        for name, count in zip(reasons, rejected):
            if count:
                reject[name] += int(count)
        parents = np.concatenate(failed) if failed else cells[:0]
        if parents.shape[0]:
            queue.append((level + 1, parents, True))

    all_boxes = (
        np.concatenate(boxes, axis=0) if boxes else np.zeros((0, 2 * n))
    )
    residual = active - covered
    report = StageReport(
        stage=stage,
        sup_budget=b_sup,
        modulus_weight=w_mod,
        measure_target=target,
        truncation_bound=params.truncation,
        delta=params.delta,
        sup_ratio=params.sup_ratio,
        active_measure=active,
        covered_measure=covered,
        residual_measure=residual,
        cells_considered=considered,
        cells_accepted=accepted_count,
        reject_counts=dict(reject),
        sup_bounds=tuple(float(v) for v in sup_acc),
        lipschitz_bound=float(lip_acc),
        modulus_coefficient=float(env_acc),
        slack=max(0.0, residual - target),
    )
    return accepted, all_boxes, report


def _paint_boxes(mask: np.ndarray, boxes: np.ndarray, lower, h_fine: float, f: int):
    """Mark every cell of the coverage mask that a box meets.

    mask is on the refine_max lattice; box corners are rounded to the finer
    lattice of spacing h_fine, f of its cells per mask cell, and widened out
    to whole mask cells.  A +-1 at each of the 2^n corners of every box in a
    difference array, summed along each axis, counts the boxes over a cell.
    """
    n = mask.ndim
    lo = np.rint((boxes[:, :n] - lower) / h_fine).astype(np.int64) // f
    hi = -(-np.rint((boxes[:, n:] - lower) / h_fine).astype(np.int64) // f)
    diff = np.zeros(tuple(s + 1 for s in mask.shape), np.int32)
    for corner in itertools.product((0, 1), repeat=n):
        at = tuple(hi[:, i] if c else lo[:, i] for i, c in enumerate(corner))
        np.add.at(diff, at, (-1) ** sum(corner))
    for axis in range(n):
        np.cumsum(diff, axis=axis, out=diff)
    mask |= diff[(slice(-1),) * n] > 0


def _coverage_table(covered: np.ndarray) -> np.ndarray:
    """Summed-area table of the coverage mask (Crow, SIGGRAPH 1984).

    Entry i counts the covered mask cells below i on every axis, so the
    coverage of any box is a signed sum over its 2^n corners.  int32 holds
    every count: the mask admission rule keeps (4 x mask side)^n <= 3e8, so
    the mask has fewer than 2^31 cells.
    """
    sat = np.zeros(tuple(s + 1 for s in covered.shape), np.int32)
    sat[(slice(1, None),) * covered.ndim] = covered
    for axis in range(covered.ndim):
        np.cumsum(sat, axis=axis, out=sat)
    return sat


def _coverage_near(sat: np.ndarray, cells: np.ndarray, f: int, gap) -> np.ndarray:
    """Covered mask cells in each cell, grown by gap mask cells on every side.

    cells index a lattice of f mask cells per axis; gap is one integer or
    one per cell.  Grown boxes are clipped to the mask.
    """
    n = cells.shape[1]
    side = sat.shape[0]
    gap = np.reshape(gap, -1)
    # flat offsets of each axis's low and high corner, clipped to the mask
    ends = [
        (np.maximum(c - gap, 0) * s, np.minimum(c + f + gap, side - 1) * s)
        for c, s in zip((cells * f).T, side ** np.arange(n - 1, -1, -1))
    ]
    flat = sat.reshape(-1)
    count = np.zeros(cells.shape[0], np.int64)
    for corner in itertools.product((0, 1), repeat=n):
        at = sum(ends[i][c] for i, c in enumerate(corner))
        count += (-1) ** (n - sum(corner)) * np.take(flat, at)
    return count


def _pinch_fails(sat, cells, f, worst, b_sup: float, h_rm: float) -> np.ndarray:
    """Whether each cell's worst order-<m sup bound exceeds its pinched cap.

    The cap is b_sup min((G h_rm)^2, 1), G the L-infinity gap in whole mask
    cells from the cell to the coverage.  The least gap whose cap holds
    worst is found in a table of caps, so the float comparison is the cap's
    own; the cell fails if, grown by that gap, it holds coverage.  Past the
    table's end a grown cell holds the whole mask, never empty in a later
    stage: a stage 1 that covers nothing ends the build.
    """
    caps = b_sup * np.minimum((np.arange(sat.shape[0]) * h_rm) ** 2, 1.0)
    return _coverage_near(sat, cells, f, np.searchsorted(caps, worst)) > 0


def _free_cells(sat: np.ndarray, grid: int, refine_max: int) -> list:
    """Maximal free dyadic cells per level, each listed once, in C order.

    sat is the summed-area table of the coverage mask on the refine_max
    lattice.  The walk starts from the level-0 grid: a cell holding no
    coverage is free, and only cells holding both covered and free mask
    cells split into their 2^n children.
    """
    n = sat.ndim
    shifts = np.array(list(itertools.product((0, 1), repeat=n)), np.int64)
    cells = _grid_cells(grid, n)[0][1]
    out = []
    for r in range(refine_max + 1):
        f = 2 ** (refine_max - r)
        count = _coverage_near(sat, cells, f, 0)
        out.append((r, cells[count == 0]))
        mixed = cells[(count > 0) & (count < f**n)]
        kids = (mixed[:, None, :] * 2 + shifts[None, :, :]).reshape(-1, n)
        cells = kids[np.lexsort(kids.T[::-1])]
    return out


def _assemble_certificate(field, dom, cfg, profile, reports, covered, g):
    m = field.order
    sup_ledger = tuple(
        float(sum(r.sup_bounds[q] for r in reports)) for q in range(m)
    )
    covered_measure = sum(r.covered_measure for r in reports)
    residual = dom.volume() - covered_measure
    return BuildCertificate(
        dimension=field.dimension,
        order=m,
        domain_lower=tuple(float(v) for v in dom.lower),
        domain_upper=tuple(float(v) for v in dom.upper),
        field_name=field.name,
        modulus=cfg.modulus.spec_dict(),
        theta=cfg.theta,
        sigma=cfg.sigma,
        eps=cfg.eps,
        tau=cfg.tau,
        quantile=cfg.quantile,
        stages_requested=cfg.stages,
        grid=(cfg.grid,) * field.dimension,
        refine_max=cfg.refine_max,
        seed=cfg.seed,
        profile_constant=profile.bound_constant(field.dimension),
        stage_reports=tuple(reports),
        covered_cells=tuple(covered),
        sup_ledger=sup_ledger,
        lipschitz_ledger=float(sum(r.lipschitz_bound for r in reports)),
        modulus_ledger=float(sum(r.modulus_coefficient for r in reports)),
        coverage_measure=float(covered_measure),
        residual_measure=float(residual),
        term_count=g.term_count,
        partial_cover=bool(residual > cfg.eps * dom.volume() * (1 + 1e-12)),
    )


def multi_stage_build(field: FieldCollection, dom: BoxDomain, cfg: BuildConfig):
    """Iterated covering passes with geometrically split budgets.

    Returns (g, certificate): g carries one cutoff-polynomial term per
    accepted cell, and the certificate records coverage and the budget
    ledgers of every stage run.  Stage k works on the region not yet
    certified, targets all but eps |box| 2^-k of it, and spends sup budget
    sigma 2^-k and modulus weight 2^-k, so the per-order ledgers sum
    strictly below the global budgets.  Certified plateau boxes of earlier
    stages repel later cells through a quadratic pinch on their sup bounds.
    Each later stage reads its free cells and every tested cell's pinch as
    box counts off one summed-area table of the coverage mask, which lives
    on the refine_max lattice; its counts fit int32, as the 3e8 admission
    rule keeps the mask under 2^31 cells.  With more than one stage the
    transition fraction theta must be a power of 1/2 so plateau boxes stay
    exact unions of dyadic cells and the free region can be re-tiled; a
    one-stage build takes any theta.
    """
    if field.dimension != dom.dimension:
        raise ValueError("field and domain dimensions differ")
    n, m = field.dimension, field.order
    side = _square_side(dom)
    h0 = side / cfg.grid
    profile = CutoffProfile(m, cfg.theta)
    lower = np.asarray(dom.lower)
    covered = None
    if cfg.stages > 1:
        j0 = -math.log2(cfg.theta)
        if abs(j0 - round(j0)) > 1e-9 or round(j0) < 1:
            raise ValueError("multi-stage tiling needs theta equal to a power of 1/2")
        # the mask does not depend on theta, so neither does its cap
        if (cfg.grid * 2 ** (cfg.refine_max + 2)) ** n > 3e8:
            raise ValueError("grid * 2**(refine_max + 2) exceeds the mask budget")
        # plateau corners of refine_max cells lie on the level_cap lattice
        level_cap = cfg.refine_max + int(round(j0)) + 1
        covered = np.zeros((cfg.grid * 2**cfg.refine_max,) * n, bool)
        h_fine = h0 / 2**level_cap
        fine_per_cell = 2 ** (level_cap - cfg.refine_max)

    indices, pos = _index_table(n, m)
    tables = dict(
        top_cols=np.array([pos[a] for a in enumerate_multiindices(n, m)]),
        by_order=[
            np.array([i for i, a in enumerate(indices) if sum(a) == q])
            for q in range(m + 1)
        ],
        grad_rows=[
            np.array(
                [
                    [pos[a[:i] + (a[i] + 1,) + a[i + 1 :]] for i in range(n)]
                    for a in indices
                    if sum(a) == q
                ]
            )
            for q in range(m)
        ],
    )

    g = BumpPolySum(n, m)
    reports = []
    covered_arrays = []
    covered_total = 0.0
    for stage in range(1, cfg.stages + 1):
        if stage == 1:
            seeds = _grid_cells(cfg.grid, n)
            sat = None
        else:
            sat = _coverage_table(covered)
            seeds = _free_cells(sat, cfg.grid, cfg.refine_max)
            if all(idx.shape[0] == 0 for _, idx in seeds):
                break
        accepted, boxes, report = _run_stage(
            _residual_evaluator(field, g),
            dom,
            cfg,
            profile,
            stage,
            dom.volume() - covered_total,
            **tables,
            seeds=seeds,
            h0=h0,
            sat=sat,
        )
        for level, idx, cf in accepted:
            h = h0 / 2**level
            g = g.with_block(
                lower + idx * h, h, cfg.theta, report.modulus_weight, stage, cf
            )
        if covered is not None:
            _paint_boxes(covered, boxes, lower, h_fine, fine_per_cell)
        covered_total += report.covered_measure
        reports.append(report)
        covered_arrays.append(boxes)
        if report.cells_accepted == 0:
            break

    cert = _assemble_certificate(field, dom, cfg, profile, reports, covered_arrays, g)
    return g, cert


def _sample_in_boxes(boxes: np.ndarray, count: int, rng) -> np.ndarray:
    """Uniform points in a union of disjoint boxes (rows low then high)."""
    n = boxes.shape[1] // 2
    vols = np.prod(boxes[:, n:] - boxes[:, :n], axis=1)
    pick = rng.choice(boxes.shape[0], size=count, p=vols / vols.sum())
    u = rng.uniform(size=(count, n))
    return boxes[pick, :n] + u * (boxes[pick, n:] - boxes[pick, :n])


def tail_pinch_check(
    g: BumpPolySum, cert: BuildCertificate, samples: int = 2000, seed: int = 0
):
    """Sample the quadratic decay of later-stage terms near certified boxes.

    Draws points x inside stage-k certified boxes and offsets h with
    |h| in [1e-4, 1e-1], then checks every derivative of order below the
    smoothness order of the later-stage tail against sigma |h|^2.  Returns
    a dict with the worst ratio and a vacuous flag when no stage has any
    later terms to test.
    """
    n, m = cert.dimension, cert.order
    rng = np.random.default_rng(seed)
    gammas = multiindices_upto(n, m - 1)
    stage_ids = [r.stage for r in cert.stage_reports]
    later = {k: {s for s in g.stage_ids if s > k} for k in stage_ids}
    usable = [
        (k, cert.covered_cells[i])
        for i, k in enumerate(stage_ids)
        if later[k] and cert.covered_cells[i].shape[0] > 0
    ]
    if not usable:
        return {
            "checked": 0,
            "worst_ratio": 0.0,
            "passed": True,
            "vacuous": True,
        }
    worst = 0.0
    checked = 0
    per_stage = {}
    each = max(1, samples // len(usable))
    for k, boxes in usable:
        x = _sample_in_boxes(boxes, each, rng)
        direction = rng.normal(size=(each, n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = np.exp(rng.uniform(math.log(1e-4), math.log(1e-1), size=each))
        pts = x + radius[:, None] * direction
        tail = np.abs(g.jet(pts, gammas, stages=later[k])).max(axis=1)
        ratios = tail / (cert.sigma * radius**2)
        per_stage[k] = float(ratios.max())
        worst = max(worst, per_stage[k])
        checked += each
    return {
        "checked": checked,
        "worst_ratio": worst,
        "passed": worst <= 1.0 + 1e-9,
        "vacuous": False,
        "per_stage": per_stage,
    }
