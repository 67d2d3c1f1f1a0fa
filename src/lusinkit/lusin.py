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
from scipy import ndimage

from .core import (
    BoxDomain,
    BuildCertificate,
    BumpPolySum,
    CutoffProfile,
    InfeasibleBudgetError,
    LogModulus,
    Modulus,
    StageReport,
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
    "single_stage_build",
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

    def component(self, alpha, x) -> np.ndarray:
        for a, fn in self.sources:
            if a == tuple(alpha):
                pts = np.atleast_2d(np.asarray(x, float))
                if fn is None:
                    return np.zeros(pts.shape[0])
                return np.asarray(fn(pts), float)
        raise ValueError(f"{tuple(alpha)} is not a top-order index of this field")


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
    """Stage parameters: truncation level, scale cut and the gradient cap.

    budget is the measure-driven quantity that sets the modulus scale cut
    delta, and sup_ratio is M(delta); gradient_cap (the budget's reciprocal)
    caps the certified top-order gradient bound of any accepted cell.
    """

    truncation: float
    budget: float
    delta: float
    sup_ratio: float
    gradient_cap: float


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
    """Derive the scale cut and caps for one stage.

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
            gradient_cap=math.inf,
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
        gradient_cap=1.0 / budget,
    )


def _grid_centers(dom: BoxDomain, grid: int):
    n = dom.dimension
    lower = np.asarray(dom.lower)
    steps = dom.side_lengths() / grid
    axes = [lower[i] + steps[i] * (np.arange(grid) + 0.5) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1), (grid,) * n


def _quantile_level(vals: np.ndarray, quantile: float) -> float:
    if vals.size == 0:
        return 0.0
    if quantile >= 1.0:
        return float(vals.max())
    k = min(vals.size - 1, max(0, math.ceil(quantile * vals.size) - 1))
    return float(np.partition(vals, k)[k])


def lusin_truncate(field: FieldCollection, dom: BoxDomain, quantile: float, grid: int = 64):
    """Truncation level T and the cell mask where max|f_alpha| stays below it.

    T is the smallest sampled level with max|f_alpha| <= T on at least the
    requested fraction of grid cells (sampled at cell centers); quantile 1
    degenerates to the sampled maximum.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    if field.dimension != dom.dimension:
        raise ValueError("field and domain dimensions differ")
    centers, shape = _grid_centers(dom, grid)
    vals = np.abs(field.evaluate(centers)).max(axis=1)
    T = _quantile_level(vals, quantile)
    return T, (vals <= T).reshape(shape)


class _OrderTables:
    """Index bookkeeping shared by the per-cell checks."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.idx = multiindices_upto(n, m)
        pos = {a: i for i, a in enumerate(self.idx)}
        self.top_cols = np.array([pos[a] for a in enumerate_multiindices(n, m)])
        self.by_order = [
            np.array([i for i, a in enumerate(self.idx) if sum(a) == q])
            for q in range(m + 1)
        ]
        self.grad_rows = {}
        for q in range(m):
            rows = []
            for a in self.idx:
                if sum(a) != q:
                    continue
                rows.append(
                    [
                        pos[tuple(x + (1 if j == i else 0) for j, x in enumerate(a))]
                        for i in range(n)
                    ]
                )
            self.grad_rows[q] = np.array(rows)


def _square_side(dom: BoxDomain) -> float:
    sides = dom.side_lengths()
    if np.ptp(sides) > 1e-9 * sides.max():
        raise ValueError("builders tile with congruent cubes; use a cubic box")
    return float(sides[0])


def _residual_evaluator(field: FieldCollection, g: BumpPolySum):
    alphas = field.alphas

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = field.evaluate(pts)
        if g.term_count:
            out -= g.jet(pts, alphas)
        return out

    return evaluate


@dataclass
class _StageOutcome:
    accepted: list
    covered_boxes: np.ndarray
    covered_measure: float
    considered: int
    accepted_count: int
    reject: Counter
    sup_bounds: np.ndarray
    lipschitz: float
    modulus_coeff: float


def _stencil_osc(evaluate, centers, center_vals, hw, theta, chunk=200_000):
    """Max deviation of the data from its center value over a 3^n stencil."""
    n = centers.shape[1]
    p = (1.0 - theta) * hw
    offs = np.array(list(itertools.product((-p, 0.0, p), repeat=n)))
    out = np.empty(centers.shape[0])
    step = max(1, chunk // offs.shape[0])
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
    tables: _OrderTables,
    params: LemmaParams,
    *,
    b_sup: float,
    w_mod: float,
    seeds: list,
    h0: float,
    dist_fn=None,
) -> _StageOutcome:
    """One certification pass over the free cells, with dyadic refinement.

    Checks per cell, cheapest first: truncation of the center data, the
    per-order sup caps scaled by the pinch distance (later stages only),
    the Lipschitz caps, the top-gradient cap, the modulus envelope
    2 S M(S/L) <= w_mod, and last the sampled oscillation against tau.
    Failing cells split into 2^n children until refine_max.
    """
    n, m = tables.n, tables.m
    lower = np.asarray(dom.lower)
    K = len(tables.idx)
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

    queue = [(lvl, np.asarray(idx, np.int64).reshape(-1, n)) for lvl, idx in seeds]
    while queue:
        level, idx = queue.pop(0)
        if idx.shape[0] == 0:
            continue
        N = idx.shape[0]
        considered += N
        h = h0 / 2**level
        hw = h / 2.0
        lows = lower + idx * h
        centers = lows + hw
        vals = evaluate(centers)
        amax = np.abs(vals).max(axis=1)

        zero = amax == 0.0
        trunc_bad = ~zero & (amax > params.truncation)
        test = ~zero & ~trunc_bad

        fail_cap = np.zeros(N, bool)
        fail_scap = np.zeros(N, bool)
        fail_lip = np.zeros(N, bool)
        fail_grad = np.zeros(N, bool)
        fail_env = np.zeros(N, bool)
        S = np.zeros(N)
        L = np.zeros(N)
        env = np.zeros(N)
        border = np.zeros((N, m))

        ti = np.flatnonzero(test)
        if ti.size:
            coeffs = np.zeros((ti.size, K))
            coeffs[:, tables.top_cols] = vals[ti]
            bounds = cell_derivative_bounds(profile, n, m, coeffs, hw)
            bmax = np.stack(
                [bounds[tables.by_order[q]].max(axis=0) for q in range(m + 1)]
            )
            lip = {
                q: np.sqrt((bounds[tables.grad_rows[q]] ** 2).sum(axis=1)).max(axis=0)
                for q in range(m)
            }
            S_t = bmax[m - 1]
            L_t = lip[m - 1]
            env_t = 2.0 * S_t * cfg.modulus.sup_ratio(S_t / L_t)

            cap = np.full(ti.size, b_sup)
            if dist_fn is not None:
                D = dist_fn(level, idx[ti])
                cap = b_sup * np.minimum(D**2, 1.0)
            fail_cap[ti] = (bmax[:m] > cap[None, :]).any(axis=0)
            fail_scap[ti] = S_t > b_sup / sqrt_n
            if m >= 2:
                fail_lip[ti] = np.stack(
                    [lip[q] > b_sup for q in range(m - 1)]
                ).any(axis=0)
            fail_grad[ti] = L_t > params.gradient_cap
            fail_env[ti] = env_t > w_mod
            S[ti], L[ti], env[ti] = S_t, L_t, env_t
            border[ti] = bmax[:m].T

        bounds_ok = test & ~(fail_cap | fail_scap | fail_lip | fail_grad | fail_env)
        survivors = zero | bounds_ok
        fail_osc = np.zeros(N, bool)
        si = np.flatnonzero(survivors)
        if si.size:
            osc = _stencil_osc(evaluate, centers[si], vals[si], hw, cfg.theta)
            fail_osc[si] = osc > cfg.tau

        ok_zero = zero & ~fail_osc
        ok_term = bounds_ok & ~fail_osc
        if ok_zero.any():
            zl = lows[ok_zero]
            boxes.append(np.concatenate([zl, zl + h], axis=1))
            covered += ok_zero.sum() * h**n
        if ok_term.any():
            oi = np.flatnonzero(ok_term)
            cf = np.zeros((oi.size, K))
            cf[:, tables.top_cols] = vals[oi]
            accepted.append((level, idx[oi].copy(), cf))
            p = (1.0 - cfg.theta) * hw
            boxes.append(
                np.concatenate([centers[oi] - p, centers[oi] + p], axis=1)
            )
            covered += oi.size * (2.0 * p) ** n
            sup_acc = np.maximum(sup_acc, border[oi].max(axis=0))
            lip_vals = [
                np.sqrt(
                    (
                        cell_derivative_bounds(profile, n, m, cf, hw)[
                            tables.grad_rows[q]
                        ]
                        ** 2
                    ).sum(axis=1)
                ).max()
                for q in range(m - 1)
            ]
            if lip_vals:
                lip_acc = max(lip_acc, max(lip_vals))
            env_acc = max(env_acc, env[oi].max())
        accepted_count += int(ok_zero.sum() + ok_term.sum())

        failing = ~(ok_zero | ok_term)
        if not failing.any():
            continue
        if level < cfg.refine_max:
            fi = np.flatnonzero(failing)
            base = idx[fi] * 2
            shifts = np.array(list(itertools.product((0, 1), repeat=n)), np.int64)
            children = (base[:, None, :] + shifts[None, :, :]).reshape(-1, n)
            queue.append((level + 1, children))
        else:
            for name, mask in (
                ("truncation", trunc_bad),
                ("pinch" if dist_fn is not None else "supnorm", fail_cap),
                ("supnorm", fail_scap),
                ("lipschitz", fail_lip),
                ("gradient_cap", fail_grad),
                ("modulus", fail_env),
                ("oscillation", fail_osc),
            ):
                take = failing & mask
                if take.any():
                    reject[name] += int(take.sum())
                    failing &= ~mask

    all_boxes = (
        np.concatenate(boxes, axis=0) if boxes else np.zeros((0, 2 * n))
    )
    return _StageOutcome(
        accepted=accepted,
        covered_boxes=all_boxes,
        covered_measure=covered,
        considered=considered,
        accepted_count=accepted_count,
        reject=reject,
        sup_bounds=sup_acc,
        lipschitz=lip_acc,
        modulus_coeff=env_acc,
    )


def _paint_boxes(mask: np.ndarray, boxes: np.ndarray, lower, h_fine: float):
    for row in boxes:
        lo = np.rint((row[: mask.ndim] - lower) / h_fine).astype(np.int64)
        hi = np.rint((row[mask.ndim :] - lower) / h_fine).astype(np.int64)
        mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True


def _free_cells(covered_fine: np.ndarray, grid: int, refine_max: int):
    """Maximal free dyadic cells per level, each listed exactly once."""
    n = covered_fine.ndim
    fine_R = covered_fine.shape[0]
    out = []
    prev_any = None
    for r in range(refine_max + 1):
        Rr = grid * 2**r
        f = fine_R // Rr
        shape = sum(((Rr, f),) * n, ())
        pooled = covered_fine.reshape(shape).any(axis=tuple(range(1, 2 * n, 2)))
        free = ~pooled
        if r == 0:
            sel = free
        else:
            par = prev_any
            for axis in range(n):
                par = par.repeat(2, axis=axis)
            sel = free & par
        out.append((r, np.argwhere(sel)))
        prev_any = pooled
    return out


def _make_dist_fn(covered_fine: np.ndarray, grid: int, refine_max: int, h0: float):
    """Euclidean lower bound on the distance to the covered region."""
    n = covered_fine.ndim
    rm = refine_max
    Rrm = grid * 2**rm
    f = covered_fine.shape[0] // Rrm
    shape = sum(((Rrm, f),) * n, ())
    occ = covered_fine.reshape(shape).any(axis=tuple(range(1, 2 * n, 2)))
    if not occ.any():
        return lambda level, idx: np.full(idx.shape[0], math.inf)
    cdt = ndimage.distance_transform_cdt(~occ, metric="chessboard").astype(float)
    h_rm = h0 / 2**rm
    pools = {rm: cdt}
    for r in range(rm - 1, -1, -1):
        c = pools[r + 1]
        shape = sum(((c.shape[0] // 2, 2),) * n, ())
        pools[r] = c.reshape(shape).min(axis=tuple(range(1, 2 * n, 2)))

    def dist(level, idx):
        c = pools[level][tuple(idx.T)]
        return np.maximum(c - 1.0, 0.0) * h_rm

    return dist


def _stage_report(
    stage, b_sup, w_mod, target, params, outcome, active, residual
) -> StageReport:
    return StageReport(
        stage=stage,
        sup_budget=b_sup,
        modulus_weight=w_mod,
        measure_target=target,
        truncation_bound=params.truncation,
        delta=params.delta,
        sup_ratio=params.sup_ratio,
        active_measure=active,
        covered_measure=outcome.covered_measure,
        residual_measure=residual,
        cells_considered=outcome.considered,
        cells_accepted=outcome.accepted_count,
        reject_counts=dict(outcome.reject),
        sup_bounds=tuple(float(v) for v in outcome.sup_bounds),
        lipschitz_bound=float(outcome.lipschitz),
        modulus_coefficient=float(outcome.modulus_coeff),
        slack=max(0.0, residual - target),
    )


def _assemble_certificate(field, dom, cfg, profile, reports, covered, g, stage_count):
    m = field.order
    sup_ledger = tuple(
        float(sum(r.sup_bounds[q] for r in reports)) for q in range(m)
    )
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
        stages_requested=stage_count,
        grid=(cfg.grid,) * field.dimension,
        refine_max=cfg.refine_max,
        seed=cfg.seed,
        profile_constant=profile.bound_constant(field.dimension),
        stage_reports=tuple(reports),
        covered_cells=tuple(covered),
        sup_ledger=sup_ledger,
        lipschitz_ledger=float(sum(r.lipschitz_bound for r in reports)),
        modulus_ledger=float(sum(r.modulus_coefficient for r in reports)),
        coverage_measure=float(sum(r.covered_measure for r in reports)),
        residual_measure=float(
            dom.volume() - sum(r.covered_measure for r in reports)
        ),
        term_count=g.term_count,
        partial_cover=bool(
            dom.volume() - sum(r.covered_measure for r in reports)
            > cfg.eps * dom.volume() * (1 + 1e-12)
        ),
    )


def single_stage_build(field: FieldCollection, dom: BoxDomain, cfg: BuildConfig):
    """One covering pass over the whole box.

    Returns (g, certificate) where g carries one cutoff-polynomial term per
    accepted cell and the certificate records coverage and the budget
    ledgers of the single stage (budgets sigma/2 and weight 1/2, so that
    iterating stages could continue the geometric split).
    """
    if field.dimension != dom.dimension:
        raise ValueError("field and domain dimensions differ")
    n, m = field.dimension, field.order
    side = _square_side(dom)
    h0 = side / cfg.grid
    profile = CutoffProfile(m, cfg.theta)
    tables = _OrderTables(n, m)
    g = BumpPolySum(n, m)
    evaluate = _residual_evaluator(field, g)

    centers, _ = _grid_centers(dom, cfg.grid)
    vals = np.abs(evaluate(centers)).max(axis=1)
    T = _quantile_level(vals, cfg.quantile)
    target = cfg.eps * dom.volume()
    params = choose_lemma_params(
        cfg.modulus, target, dom, T, m, profile, volume=dom.volume(), strict=False
    )

    seeds = [(0, np.indices((cfg.grid,) * n).reshape(n, -1).T)]
    outcome = _run_stage(
        evaluate,
        dom,
        cfg,
        profile,
        tables,
        params,
        b_sup=cfg.sigma / 2.0,
        w_mod=0.5,
        seeds=seeds,
        h0=h0,
        dist_fn=None,
    )
    for level, idx, cf in outcome.accepted:
        h = h0 / 2**level
        g = g.with_block(
            np.asarray(dom.lower) + idx * h,
            h,
            cfg.theta,
            0.5,
            1,
            cf,
            anchor=dom.lower,
        )
    report = _stage_report(
        1,
        cfg.sigma / 2.0,
        0.5,
        target,
        params,
        outcome,
        dom.volume(),
        dom.volume() - outcome.covered_measure,
    )
    cert = _assemble_certificate(
        field, dom, cfg, profile, [report], [outcome.covered_boxes], g, 1
    )
    return g, cert


def multi_stage_build(field: FieldCollection, dom: BoxDomain, cfg: BuildConfig):
    """Iterated covering passes with geometrically split budgets.

    Stage k works on the region not yet certified, targets all but
    eps |box| 2^-k of it, and spends sup budget sigma 2^-k and modulus
    weight 2^-k, so the per-order ledgers sum strictly below the global
    budgets.  Certified plateau boxes of earlier stages repel later cells
    through a quadratic pinch on their sup bounds.  The transition
    fraction theta must be a power of 1/2 so plateau boxes stay exact
    unions of dyadic cells and the free region can be re-tiled.
    """
    if field.dimension != dom.dimension:
        raise ValueError("field and domain dimensions differ")
    j0 = -math.log2(cfg.theta)
    if abs(j0 - round(j0)) > 1e-9 or round(j0) < 1:
        raise ValueError("multi-stage tiling needs theta equal to a power of 1/2")
    j0 = int(round(j0))
    n, m = field.dimension, field.order
    side = _square_side(dom)
    h0 = side / cfg.grid
    profile = CutoffProfile(m, cfg.theta)
    tables = _OrderTables(n, m)
    lower = np.asarray(dom.lower)

    level_cap = cfg.refine_max + j0 + 1
    fine_R = cfg.grid * 2**level_cap
    if fine_R**n > 3e8:
        raise ValueError("grid * 2**(refine_max + extra) exceeds the mask budget")
    covered_fine = np.zeros((fine_R,) * n, bool)
    h_fine = h0 / 2**level_cap

    g = BumpPolySum(n, m)
    reports = []
    covered_arrays = []
    covered_total = 0.0
    for stage in range(1, cfg.stages + 1):
        b_sup = cfg.sigma * 2.0**-stage
        w_mod = 2.0**-stage
        target = cfg.eps * dom.volume() * 2.0**-stage
        seeds = _free_cells(covered_fine, cfg.grid, cfg.refine_max)
        if all(idx.shape[0] == 0 for _, idx in seeds):
            break
        active = dom.volume() - covered_total
        evaluate = _residual_evaluator(field, g)

        samples = []
        for r, idx in seeds:
            if idx.shape[0] == 0:
                continue
            h = h0 / 2**r
            samples.append(
                np.abs(evaluate(lower + idx * h + h / 2.0)).max(axis=1)
            )
        T = _quantile_level(np.concatenate(samples), cfg.quantile)
        params = choose_lemma_params(
            cfg.modulus, target, dom, T, m, profile, volume=active, strict=False
        )
        dist_fn = (
            None
            if stage == 1
            else _make_dist_fn(covered_fine, cfg.grid, cfg.refine_max, h0)
        )
        outcome = _run_stage(
            evaluate,
            dom,
            cfg,
            profile,
            tables,
            params,
            b_sup=b_sup,
            w_mod=w_mod,
            seeds=seeds,
            h0=h0,
            dist_fn=dist_fn,
        )
        for level, idx, cf in outcome.accepted:
            h = h0 / 2**level
            g = g.with_block(
                lower + idx * h, h, cfg.theta, w_mod, stage, cf, anchor=dom.lower
            )
        _paint_boxes(covered_fine, outcome.covered_boxes, lower, h_fine)
        covered_total += outcome.covered_measure
        reports.append(
            _stage_report(
                stage,
                b_sup,
                w_mod,
                target,
                params,
                outcome,
                active,
                active - outcome.covered_measure,
            )
        )
        covered_arrays.append(outcome.covered_boxes)
        if outcome.accepted_count == 0:
            break

    cert = _assemble_certificate(
        field, dom, cfg, profile, reports, covered_arrays, g, cfg.stages
    )
    return g, cert


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
        vols = np.prod(boxes[:, n:] - boxes[:, :n], axis=1)
        pick = rng.choice(boxes.shape[0], size=each, p=vols / vols.sum())
        u = rng.uniform(size=(each, n))
        x = boxes[pick, :n] + u * (boxes[pick, n:] - boxes[pick, :n])
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
