import itertools
import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lusinkit import harness, lusin
from lusinkit.core import (
    BoxDomain,
    CutoffProfile,
    InfeasibleBudgetError,
    LogModulus,
    PiecewiseLinearModulus,
    PowerModulus,
)
from lusinkit.lusin import (
    BuildConfig,
    FieldCollection,
    _paint_boxes,
    choose_lemma_params,
    field_catalog,
    lusin_truncate,
    multi_stage_build,
    tail_pinch_check,
)

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))

GROWTH_CFG = BuildConfig(
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
def single_build():
    """Linear field, one stage, fine grid: the high-coverage scenario."""
    field = field_catalog("heisenberg")
    cfg = BuildConfig(
        eps=0.05,
        sigma=0.5,
        tau=1e-3,
        theta=0.005,
        grid=256,
        stages=1,
        quantile=0.995,
        refine_max=2,
        modulus=PowerModulus(1.0),
    )
    g, cert = multi_stage_build(field, UNIT_SQUARE, cfg)
    return field, cfg, g, cert


@pytest.fixture(scope="module")
def growth_build():
    """Loose budgets so a second stage visibly extends the first."""
    field = field_catalog("heisenberg")
    g, cert = multi_stage_build(field, UNIT_SQUARE, GROWTH_CFG)
    return field, GROWTH_CFG, g, cert


@pytest.fixture(scope="module")
def xx2_build():
    field = field_catalog("xx2")
    cfg = BuildConfig(
        eps=0.05,
        sigma=0.5,
        tau=1e-3,
        theta=0.5,
        grid=32,
        stages=2,
        refine_max=2,
        modulus=PowerModulus(0.75),
    )
    g, cert = multi_stage_build(field, UNIT_SQUARE, cfg)
    return field, cfg, g, cert


def _sample_in_boxes(boxes, count, rng):
    pick = rng.choice(boxes.shape[0], size=count)
    n = boxes.shape[1] // 2
    u = rng.uniform(size=(count, n))
    return boxes[pick, :n] + u * (boxes[pick, n:] - boxes[pick, :n])


class TestFieldCatalog:
    def test_heisenberg_components(self):
        f = field_catalog("heisenberg")
        assert f.dimension == 2 and f.order == 1
        assert f.alphas == ((0, 1), (1, 0))
        pts = np.array([[0.25, 0.5], [1.0, -2.0], [0.0, 0.0]])
        npt.assert_allclose(f.evaluate(pts)[:, 1], 2.0 * pts[:, 1])
        npt.assert_allclose(f.evaluate(pts)[:, 0], -2.0 * pts[:, 0])

    def test_evaluate_stacks_in_index_order(self):
        f = field_catalog("heisenberg")
        pts = np.array([[0.3, 0.7]])
        vals = f.evaluate(pts)
        assert vals.shape == (1, 2)
        npt.assert_allclose(vals[0], [-0.6, 1.4])

    def test_zero_field_components_vanish(self):
        f = field_catalog("zero")
        vals = f.evaluate(np.random.default_rng(0).uniform(size=(50, 2)))
        assert not vals.any()

    def test_invx_blows_up_near_origin(self):
        f = field_catalog("invx")
        npt.assert_allclose(f.evaluate(np.array([[0.01]]))[0, 0], 100.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="available"):
            field_catalog("nosuchfield")

    def test_from_map_rejects_off_order_index(self):
        with pytest.raises(ValueError, match="order"):
            FieldCollection.from_map("bad", 2, 1, {(2, 0): lambda p: p[:, 0]})

    def test_evaluate_dimension_mismatch(self):
        f = field_catalog("heisenberg")
        with pytest.raises(ValueError, match="dimension"):
            f.evaluate(np.zeros((4, 3)))


class TestBuildConfig:
    def test_defaults(self):
        cfg = BuildConfig()
        assert cfg.eps == 0.05 and cfg.stages == 4 and cfg.grid == 64
        assert isinstance(cfg.modulus, LogModulus)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"eps": 1.0},
            {"sigma": 0.0},
            {"tau": 0.0},
            {"theta": 0.0},
            {"theta": 1.0},
            {"grid": 1},
            {"stages": 0},
            {"quantile": 0.0},
            {"quantile": 1.5},
            {"refine_max": -1},
            {"refine_max": 7},
            {"modulus": "log"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BuildConfig(**kwargs)


class TestLusinTruncate:
    def test_invx_quantile_level(self):
        # centers sit at (i + 1/2)/100, so |1/x| = 200/(2i + 1); the 0.9
        # quantile lands on i = 10
        f = field_catalog("invx")
        dom = BoxDomain((0.0,), (1.0,))
        T = lusin_truncate(f, dom, 0.9, grid=100)
        assert T == pytest.approx(200.0 / 21.0, rel=1e-12)

    def test_quantile_one_keeps_everything(self):
        f = field_catalog("invx")
        dom = BoxDomain((0.0,), (1.0,))
        T = lusin_truncate(f, dom, 1.0, grid=100)
        assert T == pytest.approx(200.0, rel=1e-12)

    def test_bounded_field_keeps_everything(self):
        T = lusin_truncate(field_catalog("heisenberg"), UNIT_SQUARE, 0.5, grid=16)
        assert 0.0 < T <= 2.0

    def test_equals_stage_one_truncation(self):
        # on a non-dyadic box, centers lower + (i + 1/2) h and lower + i h + h/2
        # differ in the last bits; both paths place them the builder's way
        dom = BoxDomain((-0.3, 0.1), (0.4, 0.8))
        T = lusin_truncate(field_catalog("heisenberg"), dom, 0.9, grid=24)
        cfg = BuildConfig(grid=24, stages=1, quantile=0.9, refine_max=0)
        _, cert = multi_stage_build(field_catalog("heisenberg"), dom, cfg)
        assert T == cert.stage_reports[0].truncation_bound == 1.4541666666666664

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            lusin_truncate(field_catalog("invx"), UNIT_SQUARE, 0.9)

    def test_bad_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            lusin_truncate(field_catalog("invx"), BoxDomain((0.0,), (1.0,)), 0.0)


class TestChooseLemmaParams:
    def test_power_modulus_closed_form(self):
        # n=2, m=1, theta=1/2: the profile constant is 1 + 3/theta = 7 and
        # budget = target / (sqrt(2) * 7 * T)
        prof = CutoffProfile(1, 0.5)
        p = choose_lemma_params(PowerModulus(1.0), 0.05, UNIT_SQUARE, 2.0, 1, prof)
        budget = 0.05 / (math.sqrt(2.0) * 7.0 * 2.0)
        assert p.truncation == 2.0
        assert p.budget == pytest.approx(budget, rel=1e-12)
        assert p.delta == pytest.approx(budget, rel=1e-12)
        assert p.sup_ratio == 1.0

    def test_zero_truncation_degenerates(self):
        prof = CutoffProfile(1, 0.5)
        p = choose_lemma_params(PowerModulus(1.0), 0.05, UNIT_SQUARE, 0.0, 1, prof)
        assert p.budget == math.inf
        assert p.delta == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_strict_raises_on_underflow(self):
        prof = CutoffProfile(1, 0.5)
        with pytest.raises(InfeasibleBudgetError, match="truncation"):
            choose_lemma_params(LogModulus(), 1e-305, UNIT_SQUARE, 2.0, 1, prof)

    def test_nonstrict_degrades_to_zero_cut(self):
        prof = CutoffProfile(1, 0.5)
        p = choose_lemma_params(
            LogModulus(), 1e-305, UNIT_SQUARE, 2.0, 1, prof, strict=False
        )
        assert p.delta == 0.0
        assert p.sup_ratio == math.inf
        assert p.budget > 0.0

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target"):
            choose_lemma_params(
                PowerModulus(1.0), 0.0, UNIT_SQUARE, 2.0, 1, CutoffProfile(1, 0.5)
            )


class TestSingleStage:
    def test_covers_most_of_the_box(self, single_build):
        _, _, _, cert = single_build
        assert cert.coverage_fraction() >= 0.95
        assert cert.coverage_fraction() == pytest.approx(0.9862, abs=5e-4)
        # residual 0.0138 stays under the eps=0.05 target
        assert not cert.partial_cover

    def test_truncation_level_near_field_max(self, single_build):
        # max |f| on the box is 2; the 0.995 quantile sits just below it
        _, _, _, cert = single_build
        r = cert.stage_reports[0]
        assert 1.9 < r.truncation_bound < 2.0

    def test_only_truncation_rejections(self, single_build):
        _, _, _, cert = single_build
        assert dict(cert.stage_reports[0].reject_counts) == {"truncation": 4092}

    def test_match_on_covered_region(self, single_build):
        field, cfg, g, cert = single_build
        rng = np.random.default_rng(1)
        pts = _sample_in_boxes(cert.covered_cells[0], 10_000, rng)
        vals = field.evaluate(pts)
        for j, alpha in enumerate(field.alphas):
            err = np.abs(g.derivative(pts, alpha) - vals[:, j]).max()
            assert err <= cfg.tau + 1e-12

    def test_budget_ledgers(self, single_build):
        _, cfg, g, cert = single_build
        assert cert.budgets_ok()
        assert len(cert.sup_ledger) == 1
        assert cert.sup_ledger[0] < cfg.sigma
        # sampled sup of g itself stays under the certified ledger
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(100_000, 2))
        assert np.abs(g.derivative(pts, (0, 0))).max() <= cert.sup_ledger[0] * (1 + 1e-9)

    def test_certificate_serializes_to_strict_json(self, single_build):
        _, _, _, cert = single_build
        text = json.dumps(cert.to_dict(include_cells=False), allow_nan=False)
        data = json.loads(text)
        assert data["dimension"] == 2 and data["order"] == 1
        assert len(data["stages"]) == 1

    def test_measure_bookkeeping(self, single_build):
        _, _, _, cert = single_build
        covered = sum(r.covered_measure for r in cert.stage_reports)
        assert covered + cert.residual_measure == pytest.approx(1.0, abs=1e-12)

    def test_non_cubic_box_rejected(self):
        cfg = BuildConfig(grid=8, stages=1)
        with pytest.raises(ValueError, match="cubic"):
            multi_stage_build(
                field_catalog("heisenberg"), BoxDomain((0.0, 0.0), (1.0, 2.0)), cfg
            )

    def test_dimension_mismatch_rejected(self):
        cfg = BuildConfig(grid=8, stages=1)
        with pytest.raises(ValueError, match="dimension"):
            multi_stage_build(field_catalog("invx"), UNIT_SQUARE, cfg)


class TestMultiStage:
    def test_zero_field_covers_everything(self):
        cfg = BuildConfig(stages=2, grid=8, refine_max=1)
        g, cert = multi_stage_build(field_catalog("zero"), UNIT_SQUARE, cfg)
        assert cert.coverage_fraction() == 1.0
        assert cert.residual_measure == 0.0
        assert cert.term_count == 0
        assert not cert.partial_cover
        pts = np.random.default_rng(0).uniform(size=(100, 2))
        npt.assert_array_equal(g.derivative(pts, (0, 0)), 0.0)

    def test_second_stage_extends_coverage(self, growth_build):
        _, _, _, cert = growth_build
        r1, r2 = cert.stage_reports[0], cert.stage_reports[1]
        assert r1.covered_measure == pytest.approx(0.5451, abs=5e-4)
        assert r2.covered_measure > 0.1
        assert cert.coverage_fraction() == pytest.approx(0.6899, abs=1e-3)

    def test_stage_boxes_are_disjoint(self, growth_build):
        _, _, _, cert = growth_build
        boxes = np.concatenate([b for b in cert.covered_cells if b.shape[0]], axis=0)
        lo, hi = boxes[:, :2], boxes[:, 2:]
        overlaps = 0
        for i in range(boxes.shape[0]):
            inter = np.minimum(hi[i], hi) - np.maximum(lo[i], lo)
            hit = (inter > 1e-12).all(axis=1)
            hit[i] = False
            overlaps += int(hit.sum())
        assert overlaps == 0

    def test_match_within_tau_on_each_stage(self, growth_build):
        field, cfg, g, cert = growth_build
        rng = np.random.default_rng(7)
        for boxes in cert.covered_cells:
            if not boxes.shape[0]:
                continue
            pts = _sample_in_boxes(boxes, 20_000, rng)
            vals = field.evaluate(pts)
            for j, alpha in enumerate(field.alphas):
                err = np.abs(g.derivative(pts, alpha) - vals[:, j]).max()
                assert err <= cfg.tau + 1e-12

    def test_sup_ledger_dominates_samples(self, growth_build):
        _, cfg, g, cert = growth_build
        assert cert.budgets_ok()
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(100_000, 2))
        sampled = np.abs(g.derivative(pts, (0, 0))).max()
        assert sampled <= cert.sup_ledger[0] * (1 + 1e-9)
        assert cert.sup_ledger[0] < cfg.sigma

    def test_modulus_ledger_dominates_pairs(self, growth_build):
        # top-order increments: |g(x) - g(y)| <= ledger * |x - y| / mu(|x - y|)
        _, cfg, g, cert = growth_build
        assert cert.modulus_ledger <= 1.0
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(100_000, 2))
        t = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), size=100_000))
        ang = rng.uniform(0.0, 2.0 * np.pi, size=100_000)
        y = x + t[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        diff = np.abs(g.derivative(x, (0, 0)) - g.derivative(y, (0, 0)))
        ratio = diff * cfg.modulus(t) / t
        assert ratio.max() <= cert.modulus_ledger * (1 + 1e-9)

    def test_tail_pinch_certified(self, growth_build):
        _, _, g, cert = growth_build
        tp = tail_pinch_check(g, cert, samples=2000, seed=3)
        assert not tp["vacuous"]
        assert tp["checked"] == 2000
        assert tp["passed"]
        assert tp["worst_ratio"] <= 1.0

    def test_xx2_exact_on_quarter(self, xx2_build):
        field, _, g, cert = xx2_build
        assert cert.coverage_fraction() == pytest.approx(0.25, abs=1e-12)
        assert cert.term_count == 16384
        assert cert.budgets_ok()
        rng = np.random.default_rng(3)
        boxes = np.concatenate([b for b in cert.covered_cells if b.shape[0]], axis=0)
        pts = _sample_in_boxes(boxes, 5000, rng)
        # plateau polynomials reproduce the constant second derivative exactly
        npt.assert_allclose(g.derivative(pts, (2, 0)), 2.0, rtol=0, atol=1e-11)
        npt.assert_allclose(g.derivative(pts, (1, 1)), 0.0, rtol=0, atol=1e-11)
        npt.assert_allclose(g.derivative(pts, (0, 2)), 0.0, rtol=0, atol=1e-11)

    def test_xx2_orders_below_top_stay_small(self, xx2_build):
        _, cfg, g, cert = xx2_build
        assert len(cert.sup_ledger) == 2
        assert all(s < cfg.sigma for s in cert.sup_ledger)
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(50_000, 2))
        assert np.abs(g.derivative(pts, (0, 0))).max() <= cert.sup_ledger[0] * (1 + 1e-9)
        grad = np.maximum(
            np.abs(g.derivative(pts, (1, 0))), np.abs(g.derivative(pts, (0, 1)))
        )
        assert grad.max() <= cert.sup_ledger[1] * (1 + 1e-9)

    def test_theta_must_be_dyadic(self):
        cfg = BuildConfig(theta=0.3, grid=8, stages=2)
        with pytest.raises(ValueError, match="power of 1/2"):
            multi_stage_build(field_catalog("heisenberg"), UNIT_SQUARE, cfg)

    def test_mask_budget_refuses_deep_lattices(self):
        # (128 * 2^(6 + 2))^2 = 1.07e9 cells exceed 3e8 at any theta
        cfg = BuildConfig(theta=0.25, grid=128, stages=2, refine_max=6)
        with pytest.raises(ValueError, match="exceeds the mask budget"):
            multi_stage_build(field_catalog("heisenberg"), UNIT_SQUARE, cfg)

    def test_mask_budget_does_not_depend_on_theta(self):
        # (64 * 2^(6 + 2))^2 = 2.7e8 cells pass at theta = 1/4 as at theta = 1/2
        cfg = BuildConfig(theta=0.25, grid=64, stages=2, refine_max=6)
        _, cert = multi_stage_build(field_catalog("zero"), UNIT_SQUARE, cfg)
        assert cert.coverage_fraction() == 1.0

    def test_deterministic_rebuild(self):
        cfg = BuildConfig(
            eps=0.05,
            sigma=0.5,
            tau=0.05,
            theta=0.5,
            grid=16,
            stages=2,
            refine_max=2,
            modulus=PowerModulus(1.0),
        )
        field = field_catalog("heisenberg")
        _, cert_a = multi_stage_build(field, UNIT_SQUARE, cfg)
        _, cert_b = multi_stage_build(field, UNIT_SQUARE, cfg)
        dump = lambda c: json.dumps(c.to_dict(include_cells=True), sort_keys=True)
        assert dump(cert_a) == dump(cert_b)


class TestBatching:
    """Stages test their cells in batches of lusin._BATCH; outputs must not
    depend on it.  The small sizes are not multiples of 2^n, so batches end
    inside a parent's children, and each level spans many batches."""

    CASES = {
        "growth": ("heisenberg", GROWTH_CFG, (5, 7)),
        "second_order": (
            "xx2",
            BuildConfig(
                tau=1e-3,
                theta=0.5,
                grid=32,
                stages=2,
                refine_max=2,
                modulus=PowerModulus(0.75),
            ),
            (5, 7),
        ),
        "pwl_permissive": (
            "heisenberg",
            BuildConfig(
                eps=0.05,
                sigma=1e6,
                tau=10.0,
                theta=0.5,
                grid=16,
                stages=3,
                refine_max=4,
                modulus=PiecewiseLinearModulus(((0.0, 0.0), (1.0, 1e-12))),
            ),
            (97, 251),
        ),
    }

    @staticmethod
    def _artifacts(field, cfg, out_dir):
        g, cert = multi_stage_build(field, UNIT_SQUARE, cfg)
        out_dir.mkdir()
        lkf, cert_json = out_dir / "g.lkf", out_dir / "g.certificate.json"
        harness.save_function(g, UNIT_SQUARE, str(lkf))
        harness.write_json(str(cert_json), cert.to_dict(include_cells=True))
        # one block per level of a stage, which the flat .lkf records hide
        blocks = [(b.stage, b.spacing, b.lows.shape[0]) for b in g.blocks]
        return lkf.read_bytes(), cert_json.read_bytes(), cert.stage_reports, blocks

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_do_not_depend_on_batch_size(self, case, tmp_path, monkeypatch):
        name, cfg, batches = self.CASES[case]
        field = field_catalog(name)
        want = self._artifacts(field, cfg, tmp_path / "default")
        for batch in batches:
            monkeypatch.setattr(lusin, "_BATCH", batch)
            got = self._artifacts(field, cfg, tmp_path / str(batch))
            for part in range(4):
                assert got[part] == want[part]

    # cells considered, cells accepted and reject counts of stages 2 and 3
    LATER_STAGES = {
        "growth": (
            (11163, 1968, {"truncation": 4032, "pinch": 2446}),
            (8475, 0, {"truncation": 4293, "pinch": 2185}),
        ),
        "pwl_permissive": (
            (36128, 18465, {"truncation": 184, "pinch": 9215}),
            (9399, 0, {"truncation": 46, "pinch": 9353}),
        ),
    }

    @pytest.mark.parametrize("case", sorted(LATER_STAGES))
    def test_later_stage_reports(self, case):
        name, cfg, _ = self.CASES[case]
        _, cert = multi_stage_build(field_catalog(name), UNIT_SQUARE, cfg)
        got = tuple(
            (r.cells_considered, r.cells_accepted, r.reject_counts)
            for r in cert.stage_reports[1:]
        )
        assert got == self.LATER_STAGES[case]

    def test_flagship_memory_stays_bounded(self):
        # the flagship settings: 1024^2 cells at level 4 of stage 1, and a
        # stage 2 seeded from free cells of every level
        cfg = BuildConfig(
            eps=0.05, sigma=0.5, tau=1e-3, theta=0.5, grid=64, stages=2, refine_max=4
        )
        tracemalloc.start()
        try:
            _, cert = multi_stage_build(field_catalog("heisenberg"), UNIT_SQUARE, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.stage_reports[0].cells_considered > 2**20
        assert peak < 64 * 2**20


def _fine_painted_mask(boxes, lower, h_fine, fine_R, f):
    """Oracle: paint each box on the fine lattice of spacing h_fine, fine_R
    cells per axis, one slice per box, then pool f x ... x f blocks."""
    n = boxes.shape[1] // 2
    fine = np.zeros((fine_R,) * n, bool)
    for row in boxes:
        lo = np.rint((row[:n] - lower) / h_fine).astype(np.int64)
        hi = np.rint((row[n:] - lower) / h_fine).astype(np.int64)
        fine[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    shape = sum(((fine_R // f, f),) * n, ())
    return fine.reshape(shape).any(axis=tuple(range(1, 2 * n, 2)))


class TestPaintBoxes:
    GRID = {1: 40, 2: 6, 3: 3}

    @staticmethod
    def _dyadic_boxes(rng, lower, h0, grid, refine_max, theta, count):
        """Whole cells and theta-plateaus at random levels up to refine_max,
        with corners computed the way the builder computes them."""
        n = lower.shape[0]
        rows = []
        for _ in range(count):
            level = int(rng.integers(refine_max + 1))
            h = h0 / 2**level
            idx = rng.integers(grid * 2**level, size=n)
            lows = lower + idx * h
            if rng.random() < 0.5:
                rows.append(np.concatenate([lows, lows + h]))
            else:
                center, p = lows + h / 2.0, (1.0 - theta) * (h / 2.0)
                rows.append(np.concatenate([center - p, center + p]))
        return np.array(rows)

    @pytest.mark.parametrize("theta", [0.5, 0.125])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pooled_fine_painter(self, n, theta):
        rng = np.random.default_rng(10 * n + int(1 / theta))
        grid, refine_max = self.GRID[n], 2
        j0 = round(-math.log2(theta))
        level_cap = refine_max + j0 + 1
        f = 2 ** (j0 + 1)
        for _ in range(4):
            lower = rng.uniform(-1.0, 1.0, size=n)
            h0 = 1.7 / grid
            h_fine = h0 / 2**level_cap
            R = grid * 2**refine_max
            mask = np.zeros((R,) * n, bool)
            want = np.zeros((R,) * n, bool)
            # two stages painted into one mask
            for _ in range(2):
                count = max(2, R**n // 40)
                boxes = self._dyadic_boxes(
                    rng, lower, h0, grid, refine_max, theta, count
                )
                _paint_boxes(mask, boxes, lower, h_fine, f)
                want |= _fine_painted_mask(boxes, lower, h_fine, R * f, f)
                npt.assert_array_equal(mask, want)


def _chessboard_oracle(free):
    """Chessboard distance from each cell to the nearest cell that is not free."""
    cells = np.argwhere(np.ones_like(free))
    occupied = np.argwhere(~free)
    gaps = np.abs(cells[:, None, :] - occupied[None, :, :]).max(axis=2)
    return gaps.min(axis=1).reshape(free.shape)


def _block(arr, idx, f):
    return arr[tuple(slice(i * f, (i + 1) * f) for i in idx)]


class TestCoverageTable:
    """Later stages read the coverage mask through one summed-area table."""

    SHAPES = {1: (5, 4), 2: (3, 3), 3: (2, 2)}  # grid, refine_max

    @staticmethod
    def _masks(rng, n, side):
        """Unions of random boxes plus scattered cells, so that coarse cells
        come out free, mixed and fully covered."""
        for density in (0.0, 0.01, 0.05, 0.3):
            for boxes in (1, 3):
                mask = rng.random((side,) * n) < density
                for _ in range(boxes):
                    lo = rng.integers(side, size=n)
                    hi = lo + rng.integers(1, side // 2 + 1, size=n)
                    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
                yield mask

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_free_cells_match_brute_force(self, n):
        grid, refine_max = self.SHAPES[n]
        rng = np.random.default_rng(n)
        for covered in self._masks(rng, n, grid * 2**refine_max):
            got = lusin._free_cells(lusin._coverage_table(covered), grid, refine_max)
            assert [r for r, _ in got] == list(range(refine_max + 1))
            for r, cells in got:
                # maximal free cells in C order: free, with a covered parent
                f = 2 ** (refine_max - r)
                want = [
                    idx
                    for idx in np.ndindex(*(grid * 2**r,) * n)
                    if not _block(covered, idx, f).any()
                    and (r == 0 or _block(covered, [i // 2 for i in idx], 2 * f).any())
                ]
                npt.assert_array_equal(cells, np.array(want, np.int64).reshape(-1, n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pinch_matches_chessboard_oracle(self, n):
        grid, refine_max = self.SHAPES[n]
        side = grid * 2**refine_max
        rng = np.random.default_rng(10 + n)
        b_sup = 0.37
        for k, covered in enumerate(self._masks(rng, n, side)):
            covered[(0,) * n] = True
            sat = lusin._coverage_table(covered)
            dist = _chessboard_oracle(~covered)
            # caps saturate inside the mask, or never reach b_sup
            h_rm = (1.7 if k % 2 else 0.3) / side
            caps = b_sup * np.minimum((np.arange(side + 2) * h_rm) ** 2, 1.0)
            for r in range(refine_max + 1):
                f = 2 ** (refine_max - r)
                # tested cells are free
                cells = np.array(
                    [
                        idx
                        for idx in np.ndindex(*(grid * 2**r,) * n)
                        if not _block(covered, idx, f).any()
                    ],
                    np.int64,
                ).reshape(-1, n)
                if not cells.shape[0]:
                    continue
                # worst from 0 to above b_sup, hitting every cap exactly
                pool = np.concatenate(
                    [caps, np.nextafter(caps, 1.0), rng.uniform(0.0, 1.2 * b_sup, 50)]
                )
                worst = rng.choice(pool, size=cells.shape[0])
                c = np.array([_block(dist, idx, f).min() for idx in cells], float)
                D = np.maximum(c - 1.0, 0.0) * h_rm
                want = worst > b_sup * np.minimum(D**2, 1.0)
                got = lusin._pinch_fails(sat, cells, f, worst, b_sup, h_rm)
                npt.assert_array_equal(got, want)


class TestTailPinch:
    def test_vacuous_without_later_stages(self, single_build):
        _, _, g, cert = single_build
        tp = tail_pinch_check(g, cert, samples=100, seed=0)
        assert tp["vacuous"]
        assert tp["checked"] == 0
        assert tp["passed"]
