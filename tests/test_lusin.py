import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from lusinkit.core import (
    BoxDomain,
    CutoffProfile,
    InfeasibleBudgetError,
    LogModulus,
    PowerModulus,
)
from lusinkit.lusin import (
    BuildConfig,
    FieldCollection,
    choose_lemma_params,
    field_catalog,
    lusin_truncate,
    multi_stage_build,
    single_stage_build,
    tail_pinch_check,
)

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))


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
    g, cert = single_stage_build(field, UNIT_SQUARE, cfg)
    return field, cfg, g, cert


@pytest.fixture(scope="module")
def growth_build():
    """Loose budgets so a second stage visibly extends the first."""
    field = field_catalog("heisenberg")
    cfg = BuildConfig(
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
    g, cert = multi_stage_build(field, UNIT_SQUARE, cfg)
    return field, cfg, g, cert


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
        npt.assert_allclose(f.component((1, 0), pts), 2.0 * pts[:, 1])
        npt.assert_allclose(f.component((0, 1), pts), -2.0 * pts[:, 0])

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

    def test_component_unknown_index(self):
        f = field_catalog("heisenberg")
        with pytest.raises(ValueError, match="top-order"):
            f.component((1, 1), np.zeros((1, 2)))


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
        T, keep = lusin_truncate(f, dom, 0.9, grid=100)
        assert T == pytest.approx(200.0 / 21.0, rel=1e-12)
        assert keep.shape == (100,)
        assert keep.mean() == 0.9
        assert not keep[:10].any() and keep[10:].all()

    def test_quantile_one_keeps_everything(self):
        f = field_catalog("invx")
        dom = BoxDomain((0.0,), (1.0,))
        T, keep = lusin_truncate(f, dom, 1.0, grid=100)
        assert T == pytest.approx(200.0, rel=1e-12)
        assert keep.all()

    def test_bounded_field_keeps_everything(self):
        T, keep = lusin_truncate(field_catalog("heisenberg"), UNIT_SQUARE, 0.5, grid=16)
        assert 0.0 < T <= 2.0
        assert 0.5 <= keep.mean() <= 1.0

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
        assert p.gradient_cap == pytest.approx(1.0 / budget, rel=1e-12)

    def test_zero_truncation_degenerates(self):
        prof = CutoffProfile(1, 0.5)
        p = choose_lemma_params(PowerModulus(1.0), 0.05, UNIT_SQUARE, 0.0, 1, prof)
        assert p.budget == math.inf
        assert p.delta == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert p.gradient_cap == math.inf

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
        assert p.budget > 0.0 and p.gradient_cap == pytest.approx(1.0 / p.budget)

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
            single_stage_build(
                field_catalog("heisenberg"), BoxDomain((0.0, 0.0), (1.0, 2.0)), cfg
            )

    def test_dimension_mismatch_rejected(self):
        cfg = BuildConfig(grid=8, stages=1)
        with pytest.raises(ValueError, match="dimension"):
            single_stage_build(field_catalog("invx"), UNIT_SQUARE, cfg)


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


class TestTailPinch:
    def test_vacuous_without_later_stages(self, single_build):
        _, _, g, cert = single_build
        tp = tail_pinch_check(g, cert, samples=100, seed=0)
        assert tp["vacuous"]
        assert tp["checked"] == 0
        assert tp["passed"]
