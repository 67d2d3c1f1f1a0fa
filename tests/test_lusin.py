import importlib.util
import json
import math
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lusinkit import core, harness, lusin
from lusinkit.core import (
    BoxDomain,
    CutoffProfile,
    LogModulus,
    PiecewiseLinearModulus,
    PowerModulus,
    StageReport,
    _order_rows,
    cell_derivative_bounds,
)
from lusinkit.harness import tail_pinch_check
from lusinkit.lusin import (
    BuildConfig,
    FieldCollection,
    field_catalog,
    multi_stage_build,
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


def _overlaps(cert):
    """Pairs of a certificate's boxes, of any stages, that share volume."""
    boxes = np.concatenate(cert.covered_cells)
    n = boxes.shape[1] // 2
    lo, hi = boxes[:, :n], boxes[:, n:]
    overlaps = 0
    for i in range(boxes.shape[0]):
        inter = np.minimum(hi[i], hi) - np.maximum(lo[i], lo)
        hit = (inter > 1e-12).all(axis=1)
        hit[i] = False
        overlaps += int(hit.sum())
    return overlaps


def _sample_in_boxes(boxes, count, rng):
    pick = rng.choice(boxes.shape[0], size=count)
    n = boxes.shape[1] // 2
    u = rng.uniform(size=(count, n))
    return boxes[pick, :n] + u * (boxes[pick, n:] - boxes[pick, :n])


def _reference_sample_in_boxes(boxes, count, rng):
    """The rng.choice sampler that harness._sample_in_boxes replaced, kept
    verbatim as an oracle."""
    n = boxes.shape[1] // 2
    vols = np.prod(boxes[:, n:] - boxes[:, :n], axis=1)
    pick = rng.choice(boxes.shape[0], size=count, p=vols / vols.sum())
    u = rng.uniform(size=(count, n))
    # take gathers whole rows many times faster than fancy indexing
    lows, highs = np.hsplit(boxes.take(pick, axis=0), 2)
    return lows + u * (highs - lows)


class TestSampleInBoxes:
    """Points, bits and generator state must be those of the rng.choice
    sampler, so every later draw of a check lines up too."""

    # box sides; zero-volume boxes first, in the middle and last
    SIDES = {
        "one": [0.75],
        "unequal": [1e-6, 1.0, 1e-3, 2.5, 0.5],
        "zero_volume": [0.0, 1.0, 0.0, 0.5, 0.0],
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 3, 100_000])
    @pytest.mark.parametrize("case", sorted(SIDES))
    def test_equals_choice_bit_for_bit(self, n, count, case):
        sides = np.array(self.SIDES[case])
        lows = np.random.default_rng(n).uniform(-3.0, 5.0, size=(sides.size, n))
        boxes = np.concatenate([lows, lows + sides[:, None]], axis=1)
        a, b = np.random.default_rng(count), np.random.default_rng(count)
        got = harness._sample_in_boxes(boxes, count, a)
        want = _reference_sample_in_boxes(boxes, count, b)
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert a.bit_generator.state == b.bit_generator.state
        for k in np.flatnonzero(sides == 0.0):
            assert not (got == lows[k]).all(axis=1).any()

    @pytest.mark.parametrize(
        "highs",
        [
            [[1.0, 0.0], [2.0, 1.0]],  # every volume zero
            [[1.0, 1.0], [0.5, 2.0]],  # one volume negative
        ],
    )
    def test_refuses_what_choice_refuses(self, highs):
        boxes = np.concatenate([[[0.0, 0.0], [1.0, 1.0]], highs], axis=1)
        for sampler in (harness._sample_in_boxes, _reference_sample_in_boxes):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                sampler(boxes, 10, np.random.default_rng(0))


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
            {"sigma": math.nan},
            {"sigma": math.inf},
            {"sigma": -math.inf},
            {"tau": 0.0},
            {"tau": math.nan},
            {"tau": math.inf},
            {"tau": -math.inf},
            {"theta": 0.0},
            {"theta": 1.0},
            {"grid": 1},
            {"stages": 0},
            {"quantile": 0.0},
            {"quantile": 1.5},
            {"refine_max": -1},
            {"refine_max": 7},
            {"modulus": "log"},
            {"grid": 2.7},
            {"stages": True},
            {"sigma": "1"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BuildConfig(**kwargs)


class TestLusinTruncate:
    """Stage 1's truncation level T, read off its report."""

    @staticmethod
    def _truncation(field, dom, quantile, grid):
        cfg = BuildConfig(grid=grid, stages=1, quantile=quantile, refine_max=0)
        _, cert = multi_stage_build(field_catalog(field), dom, cfg)
        return cert.stage_reports[0].truncation_bound

    def test_invx_quantile_level(self):
        # centers sit at (i + 1/2)/100, so |1/x| = 200/(2i + 1); the 0.9
        # quantile lands on i = 10
        T = self._truncation("invx", BoxDomain((0.0,), (1.0,)), 0.9, 100)
        assert T == pytest.approx(200.0 / 21.0, rel=1e-12)

    def test_quantile_one_keeps_everything(self):
        T = self._truncation("invx", BoxDomain((0.0,), (1.0,)), 1.0, 100)
        assert T == pytest.approx(200.0, rel=1e-12)

    def test_quantile_one_reads_the_sampled_maximum(self):
        # one order statistic for every quantile: at 1 it is the largest
        # center value, and a NaN center counts as +inf
        vals = [np.array([[1.0, -3.0], [0.5, 2.0]]), np.array([[0.25], [-2.5]])]
        assert lusin._truncation_level(vals, 1.0) == 3.0
        vals.append(np.array([[np.nan], [0.0]]))
        assert lusin._truncation_level(vals, 1.0) == math.inf
        assert lusin._truncation_level(vals, 0.75) == 3.0

    def test_bounded_field_keeps_everything(self):
        T = self._truncation("heisenberg", UNIT_SQUARE, 0.5, 16)
        assert 0.0 < T <= 2.0

    def test_equals_stage_one_truncation(self):
        # on a non-dyadic box the centers lower + i h + h/2 differ in the last
        # bits from lower + (i + 1/2) h; the pin is the builder's placement
        dom = BoxDomain((-0.3, 0.1), (0.4, 0.8))
        T = self._truncation("heisenberg", dom, 0.9, 24)
        assert T == 1.4541666666666664


def _heisenberg_cut(at=0.37, beyond=0.0):
    """The heisenberg data, replaced by the value beyond past x = at."""

    def cut(fn):
        return lambda p: np.where(p[:, 0] <= at, fn(p), beyond)

    return FieldCollection.from_map(
        "heisenberg_cut",
        2,
        1,
        {(1, 0): cut(lambda p: 2.0 * p[:, 1]), (0, 1): cut(lambda p: -2.0 * p[:, 0])},
    )


class TestNonFiniteData:
    """The heisenberg data, replaced by a non-finite value beyond x = 0.491.
    The cut lies inside a refine_max cell of GROWTH_CFG, between its center
    and the far side of its plateau, so that cell's center is finite and
    its stencil is not."""

    CUT = 0.491

    @classmethod
    def _build(cls, value):
        field = _heisenberg_cut(cls.CUT, value)
        # non-finite data are refused by the checks, never by a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return multi_stage_build(field, UNIT_SQUARE, GROWTH_CFG)

    @staticmethod
    def _reports(cert):
        return [
            (r.truncation_bound, r.cells_considered, r.cells_accepted, r.reject_counts)
            for r in cert.stage_reports
        ]

    def test_nan_data_are_never_certified(self, tmp_path):
        # NaN compares false with everything: a NaN center fails truncation
        # and a NaN stencil point fails oscillation, whatever T is
        g, cert = self._build(np.nan)
        assert self._reports(cert) == [
            (math.inf, 45440, 800, {"truncation": 33280, "oscillation": 256}),
            (math.inf, 44416, 0, {"truncation": 33280, "pinch": 256}),
        ]
        boxes = np.concatenate(cert.covered_cells)
        assert boxes.shape[0] == 800 and boxes[:, 2].max() < self.CUT
        assert all(np.isfinite(b.coeffs).all() for b in g.blocks)
        harness.save_function(g, UNIT_SQUARE, str(tmp_path / "g.lkf"))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_data_fail_the_sup_caps(self, value):
        # an infinite center passes truncation at T = +inf, then fails the
        # sup caps; an infinite stencil point fails oscillation
        _, cert = self._build(value)
        assert self._reports(cert) == [
            (math.inf, 45440, 800, {"supnorm": 33280, "oscillation": 256}),
            (math.inf, 44416, 0, {"pinch": 33536}),
        ]


class TestResidual:
    """FieldCollection.residual on product grids must give, bit for bit,
    field - g.jet at the flat grid points, for sums with no terms and for sums
    whose stencil rows straddle block cells."""

    DOM = BoxDomain((0.1, -0.2), (0.8, 0.5))

    @pytest.fixture(scope="class")
    def cut_build(self):
        # later stages test zero-data cells beside earlier terms, on a
        # lattice whose corners are not dyadic
        cfg = BuildConfig(
            sigma=50.0, tau=0.05, theta=0.25, grid=16, stages=3, refine_max=3,
            modulus=PowerModulus(1.0),
        )
        field = _heisenberg_cut()
        g, cert = multi_stage_build(field, self.DOM, cfg)
        assert g.term_count and len(cert.stage_reports) > 1
        return field, g

    @classmethod
    def _rows(cls, g, k, rng):
        """k coordinates c_i + {-r, .., r} per axis around each block's cell
        centers, at reach hw and (1 - theta) hw, and around random centers."""
        centers = [rng.uniform(cls.DOM.lower, cls.DOM.upper, size=(40, 2))]
        reach = [rng.uniform(0.01, 0.1, size=40)]
        for blk in g.blocks:
            hw = blk.half_width
            for r in (hw, (1.0 - blk.theta) * hw):
                centers.append(blk.lows + hw)
                reach.append(np.full(blk.lows.shape[0], r))
        centers, reach = np.concatenate(centers), np.concatenate(reach)
        unit = np.linspace(-1.0, 1.0, k)
        return [centers[:, i] + unit[:, None] * reach for i in range(2)]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("terms", [True, False])
    def test_equals_field_minus_jet_bit_for_bit(self, cut_build, k, terms):
        field, g = cut_build
        if not terms:
            g = type(g)(2, 1)
        rows = self._rows(cut_build[1], k, np.random.default_rng(k))
        P = rows[0].shape[1]
        ref = np.indices((k, k)).reshape(2, -1)
        pts = np.stack([rows[i][ref[i]].reshape(-1) for i in range(2)], axis=1)
        want = field.evaluate(pts) - g.jet(pts, field.alphas)
        got = field.residual(g, rows)
        assert got.shape == (2, k**2, P)
        want = want.T.reshape(got.shape)
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.count_nonzero(got) > got.size // 4
        if terms and k > 1:
            # some rows straddle a block's cells, some lie in one cell
            straddle = inside = False
            for blk in g.blocks:
                at, cells = blk.locate(pts.T)
                where = np.full(pts.shape[0], -1)
                where[at] = cells
                where = where.reshape(k**2, P)
                one = np.all(where == where[:1], axis=0)
                straddle |= np.any(~one)
                inside |= np.any(one & (where[0] >= 0))
            assert straddle and inside

    @staticmethod
    def _center_batches(g, dom, rng):
        """Batches of centers (n, B): random ones over the box, each block's
        cell centers, and points on, inside and just past each block's
        bounding lattice grown by one cell, alone or beside a NaN."""
        lo, hi = np.array(dom.lower), np.array(dom.upper)
        out = [rng.uniform(lo, hi, size=(50, 2)).T]
        for blk in g.blocks:
            s = blk.spacing
            first, last = blk.origin, blk.lows.max(axis=0) + s
            out.append((blk.lows + blk.half_width).T)
            for edge in (first - s, first - s / 2, last + s / 2, last + s):
                for side in (-np.inf, np.inf):
                    pt = np.nextafter(edge, side)
                    # one coordinate at the edge, the other in the block
                    for i in range(2):
                        c = first + s / 2
                        c[i] = pt[i]
                        out.append(c[:, None])
                out.append(np.nextafter(edge, side)[:, None])
            nan = (blk.lows[:3] + blk.half_width).T.copy()
            nan[0, 0] = np.nan
            out.append(nan)
        return out

    @staticmethod
    def _every_block(g, rows, gammas):
        """grid_jet summed over every block, none skipped: the oracle."""
        k, P = rows[0].shape
        out = np.zeros((len(gammas),) + (k,) * g.dimension + (P,))
        for blk in g.blocks:
            blk.add_jet(rows, gammas, out)
        return out

    @pytest.mark.parametrize("k", [1, 3])
    def test_skipping_far_blocks_keeps_every_bit(self, cut_build, k):
        field, g = cut_build
        batches = self._center_batches(g, self.DOM, np.random.default_rng(5))
        unit = np.linspace(-1.0, 1.0, k) if k > 1 else np.zeros(1)
        reach = min(blk.spacing for blk in g.blocks) / 2.0
        for centers in batches:
            rows = [c + unit[:, None] * reach for c in centers]
            want = self._every_block(g, rows, field.alphas)
            got = g.grid_jet(rows, field.alphas)
            npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
            if k == 1:
                res = field.residual(g, rows)[:, 0]
                want = field.evaluate(centers.T).T - want.reshape(res.shape)
                npt.assert_array_equal(res.view(np.int64), want.view(np.int64))
        # the blocks change the residual at their own centers
        inside = batches[1]
        res = field.residual(g, list(inside[:, None]))[:, 0]
        assert (res != field.evaluate(inside.T).T).any()
        # rows with no points reach no block
        empty = g.grid_jet([np.empty((k, 0))] * 2, field.alphas)
        assert empty.shape == (len(field.alphas),) + (k, k) + (0,)

    def test_grid_jet_skips_only_far_blocks(self, cut_build, monkeypatch):
        field, g = cut_build
        calls = []
        add_jet = core._Block.add_jet

        def counting(blk, x, gammas, out):
            calls.append(blk)
            return add_jet(blk, x, gammas, out)

        monkeypatch.setattr(core._Block, "add_jet", counting)

        def residual(centers):
            return field.residual(g, list(centers[:, None]))[:, 0]

        blk = g.blocks[0]
        s, far = blk.spacing, blk.lows.max(axis=0) + 2.0 * blk.spacing
        # just past the grown box on axis 0: no block of the build is that far
        # right, as the cut data vanish there
        beyond = np.array([[np.nextafter(far[0], np.inf)], [blk.origin[1] + s / 2]])
        assert all(beyond[0, 0] > b.lows[:, 0].max() + 2 * b.spacing for b in g.blocks)
        residual(beyond)
        assert calls == []
        for edge in (far, blk.origin - s):
            residual(np.array([[edge[0]], [blk.origin[1] + s / 2]]))
            assert blk in calls
            calls.clear()
        # a NaN coordinate skips nothing
        residual(np.array([[beyond[0, 0], np.nan], [beyond[1, 0]] * 2]))
        assert len(calls) == len(g.blocks)


def _load_artifact_builds():
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"
    spec = importlib.util.spec_from_file_location("artifact_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BUILDS


class TestReachingBlocks:
    """Later stages take field - g against only the earlier blocks whose terms
    can reach their free cells; the blocks left out must change no bit."""

    NAMES = (
        "demo",
        "demo_shifted",
        "theta_0.3",
        "heisenberg_cut",
        "invx",
        "spatial_quadratic",
        "pwl_permissive",
    )

    @pytest.fixture(scope="class")
    def builds(self):
        builds = _load_artifact_builds()
        field, dom, cfg = builds["pwl_permissive"]
        builds["pwl_permissive"] = (field, dom, replace(cfg, grid=16))
        return builds

    @pytest.mark.parametrize("name", NAMES)
    def test_left_out_blocks_change_no_bit(self, builds, name, monkeypatch):
        field, dom, cfg = builds[name]
        # the build's whole sum so far: the last that with_block returned
        whole = [None]
        with_block = core.BumpPolySum.with_block

        def tracking(g, *args):
            whole[0] = with_block(g, *args)
            return whole[0]

        residual = FieldCollection.residual
        left_out = []

        def comparing(fc, g, rows):
            got = residual(fc, g, rows)
            if whole[0] is not None:
                every = whole[0].blocks
                assert all(any(b is e for e in every) for b in g.blocks)
                want = residual(fc, whole[0], rows)
                npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                left_out.append(len(every) - len(g.blocks))
            return got

        monkeypatch.setattr(core.BumpPolySum, "with_block", tracking)
        monkeypatch.setattr(FieldCollection, "residual", comparing)
        multi_stage_build(field, dom, cfg)
        # later stages ran against earlier terms
        assert left_out
        if name == "demo":
            assert max(left_out) > 0


def _reference_bound_maxima(profile, n, top, hw, modulus):
    """The builder's bound reductions before they ran in place, kept as an
    oracle: max and sum over gathered rows of the cell bounds table."""
    m = profile.order
    by_order, raises = _order_rows(n, m)
    bounds = cell_derivative_bounds(profile, n, np.abs(top), hw)
    bmax = np.stack([bounds[by_order[q]].max(axis=0) for q in range(m)])
    lip = [np.sqrt((bounds[raises[q]] ** 2).sum(axis=1)).max(axis=0) for q in range(m)]
    S_t, L_t = bmax[m - 1], lip[m - 1]
    with np.errstate(invalid="ignore"):
        env_t = 2.0 * S_t * modulus.sup_ratio(S_t / L_t)
    return bmax, np.stack(lip), env_t


class TestBoundMaximaOracle:
    """lusin._bound_maxima must give the reference's bits for every order
    and dimension, zero columns and non-finite data included."""

    @staticmethod
    def _top(n, m, rng):
        kt = len(_order_rows(n, m)[0][m])
        top = rng.normal(size=(kt, 300)) * 10.0 ** rng.uniform(-3, 3, size=300)
        top[:, 10] = 0.0
        top[0, 11] = np.nan
        top[-1, 12] = np.inf
        top[0, 13] = -np.inf
        top[:, 14] = [np.inf, -np.inf] * (kt // 2) + [np.nan] * (kt % 2)
        tops = {"mixed": top}
        if kt > 1:
            # one top-order column zero in every cell
            dead = top.copy()
            dead[kt // 2] = 0.0
            tops["dead_column"] = dead
        return tops

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_reference_bit_for_bit(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        for theta in (0.5, 0.125):
            profile = CutoffProfile(m, theta)
            for name, top in self._top(n, m, rng).items():
                for hw in (1e-12, 2.0**-11, 0.3, 1e6):
                    for modulus in (LogModulus(), PowerModulus(0.5)):
                        want = _reference_bound_maxima(profile, n, top, hw, modulus)
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            got = lusin._bound_maxima(
                                profile, n, top.copy(), hw, modulus
                            )
                        for a, b in zip(got, want):
                            assert a.shape == b.shape
                            npt.assert_array_equal(
                                a.view(np.uint64), b.view(np.uint64), err_msg=name
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

    def test_zero_field_reports_hold_python_floats(self):
        # zero-data cells once counted as a numpy sum, so the measures were
        # numpy scalars
        cfg = BuildConfig(grid=8, stages=2)
        _, cert = multi_stage_build(field_catalog("zero"), UNIT_SQUARE, cfg)
        assert cert.stage_reports[0].cells_accepted == 64
        for report in cert.stage_reports:
            for f in fields(StageReport):
                value = getattr(report, f.name)
                if f.type == "float":
                    assert type(value) is float, f.name
                elif f.type == "tuple[float, ...]":
                    assert all(type(v) is float for v in value), f.name

    @pytest.mark.parametrize("stages", [1, 2])
    def test_zero_cells_are_checked_whole(self, stages):
        # the data vanish at every level-0 cell's center and plateau but not
        # on its collar, so no cell may be certified whole as a zero cell
        def collar(p):
            u = p * 8.0 % 1.0
            return (np.abs(u - 0.5) > 0.25).any(axis=1).astype(float)

        field = FieldCollection.from_map("collar", 2, 1, {(1, 0): collar})
        cfg = BuildConfig(theta=0.5, grid=8, stages=stages, refine_max=0)
        g, cert = multi_stage_build(field, UNIT_SQUARE, cfg)
        assert cert.coverage_measure == 0.0
        assert g.term_count == 0
        assert cert.stage_reports[0].reject_counts == {"oscillation": 64}

    def test_second_stage_extends_coverage(self, growth_build):
        _, _, _, cert = growth_build
        r1, r2 = cert.stage_reports[0], cert.stage_reports[1]
        assert r1.covered_measure == pytest.approx(0.5451, abs=5e-4)
        assert r2.covered_measure > 0.1
        assert cert.coverage_fraction() == pytest.approx(0.6899, abs=1e-3)

    def test_stage_boxes_are_disjoint(self, growth_build):
        _, _, _, cert = growth_build
        assert _overlaps(cert) == 0

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
        assert tp["worst"] <= 1.0

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

    def test_reject_tally_adds_both_sup_checks(self):
        # stage 1 counts the per-order sup caps and the cap on order m - 1,
        # S <= b_sup / sqrt(n), both as supnorm; each fails cells here
        cfg = BuildConfig(
            sigma=0.02,
            tau=0.5,
            grid=8,
            stages=2,
            refine_max=3,
            modulus=PowerModulus(1.0),
        )
        _, cert = multi_stage_build(field_catalog("heisenberg"), UNIT_SQUARE, cfg)
        assert [r.reject_counts for r in cert.stage_reports] == [
            {"truncation": 496, "supnorm": 3194},
            {"pinch": 3205, "truncation": 496},
        ]

    def test_non_dyadic_theta_builds(self):
        # plateau corners off every dyadic lattice: painting widens them to
        # whole mask cells, so later stages keep clear of them
        for theta in (0.3, 0.6):
            cfg = replace(GROWTH_CFG, theta=theta)
            g, cert = multi_stage_build(field_catalog("heisenberg"), UNIT_SQUARE, cfg)
            assert cert.stage_reports[1].cells_accepted > 0
            assert _overlaps(cert) == 0
            report = harness.certify_function(g, UNIT_SQUARE, cert, pairs=2000)
            assert report["passed"]
            assert not report["checks"]["pinch"]["vacuous"]

    def test_mask_budget_refuses_deep_lattices(self):
        # (128 * 2^(6 + 2))^2 = 1.07e9 cells exceed 3e8 at any theta
        cfg = BuildConfig(theta=0.25, grid=128, stages=2, refine_max=6)
        with pytest.raises(ValueError, match="exceeds the mask budget"):
            multi_stage_build(field_catalog("heisenberg"), UNIT_SQUARE, cfg)

    def test_mask_budget_refuses_unlistable_single_stage_grids(self):
        # one stage keeps no coverage table, but 10^6 cells per axis cannot
        # be listed: the build is refused before anything is allocated
        cfg = BuildConfig(grid=10**6, stages=1)
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
        dump = lambda c: json.dumps(c.to_dict(), sort_keys=True)
        assert dump(cert_a) == dump(cert_b)


class TestBatching:
    """Stages test their cells in batches of lusin._BATCH; outputs must not
    depend on it.  The small sizes are not multiples of 2^n, so a refined
    batch of whole parents holds fewer cells than the size, and each level
    spans many batches."""

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
        harness.write_json(str(cert_json), cert.to_dict())
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

    @pytest.mark.parametrize("batch", [1, 5, 16, 97])
    def test_batches_walk_the_parts_as_one(self, batch, monkeypatch):
        # a refined level's parents come as one part per batch that failed
        # them, empty parts among them; batches run across part boundaries
        rng = np.random.default_rng(batch)
        n, S = 2, 4
        parts = [rng.integers(0, 50, (n, k)) for k in (3, 0, 7, 1, 0, 12, 5)]
        shifts = rng.integers(0, 2, (n, S))
        monkeypatch.setattr(lusin, "_BATCH", batch)
        got = list(lusin._batches(parts, 2, shifts))
        whole = np.concatenate(parts, axis=1)
        want = (2 * whole[:, :, None] + shifts[:, None, :]).reshape(n, -1)
        npt.assert_array_equal(np.concatenate(got, axis=1), want)
        # whole parents, at most _BATCH cells unless one parent has more
        step = max(1, batch // S)
        P = whole.shape[1]
        assert [b.shape[1] for b in got] == [
            S * min(step, P - s) for s in range(0, P, step)
        ]

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

    def test_each_seed_center_is_evaluated_once(self, monkeypatch):
        # the truncation level and the seed batches share one residual call
        name, cfg, _ = self.CASES["pwl_permissive"]
        seeds, centers = [], []
        run_stage, residual = lusin._run_stage, FieldCollection.residual

        def spy_stage(*args, **kwargs):
            seeds.append(kwargs["seeds"])
            return run_stage(*args, **kwargs)

        def spy_residual(field, g, rows):
            if rows[0].shape[0] == 1:  # single points, not stencils
                centers.append((len(seeds), np.stack([r[0] for r in rows], axis=1)))
            return residual(field, g, rows)

        monkeypatch.setattr(lusin, "_run_stage", spy_stage)
        monkeypatch.setattr(FieldCollection, "residual", spy_residual)
        multi_stage_build(field_catalog(name), UNIT_SQUARE, cfg)
        assert len(seeds) == 3
        for stage, entries in enumerate(seeds, 1):
            points = np.concatenate([c for s, c in centers if s == stage])
            seen = Counter(map(tuple, points.tolist()))
            for r, idx in entries:
                h = 1.0 / cfg.grid / 2**r
                for center in (idx * h + h / 2.0).T.tolist():
                    assert seen[tuple(center)] == 1

    def test_stage_cells_end_with_the_stage(self, monkeypatch):
        # when a stage starts, the cell arrays the stage before accepted are
        # gone: one stage's arrays never add to the next one's peak
        name, cfg, _ = self.CASES["pwl_permissive"]
        run_stage = lusin._run_stage
        refs, entries, alive = [], [], []

        def spy_stage(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            accepted, report = run_stage(*args, **kwargs)
            refs[:] = [weakref.ref(idx) for _, idx, _ in accepted]
            entries.append(len(refs))
            return accepted, report

        monkeypatch.setattr(lusin, "_run_stage", spy_stage)
        multi_stage_build(field_catalog(name), UNIT_SQUARE, cfg)
        # stages 1 and 2 accept cells, stage 3 none
        assert entries[0] and entries[1] and not entries[2]
        assert alive == [0, 0, 0]

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


def _coverage_table(covered):
    """Summed-area table of a bool mask: entry i counts the True cells below
    i on every axis."""
    sat = np.zeros(tuple(s + 1 for s in covered.shape), np.int32)
    sat[(slice(1, None),) * covered.ndim] = covered
    for axis in range(covered.ndim):
        np.cumsum(sat, axis=axis, out=sat)
    return sat


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


def _axis_major(accepted):
    """Entries (level, idx, coeffs) with their cells idx (B, n) transposed
    to the (n, B) that _paint takes."""
    return [(level, idx.T, cf) for level, idx, cf in accepted]


class TestPaintBoxes:
    """A stage's accepted cells, painted into the coverage table as integer
    ranges, against the boxes the builder certifies for them."""

    GRID = {1: 40, 2: 6, 3: 3}
    REFINE_MAX = 2

    @classmethod
    def _stages(cls, rng, n, grid, count):
        """Two stages of disjoint accepted cells, (level, idx, coeffs) with
        coeffs None for a zero-data cell: a random dyadic partition of the
        level-0 grid whose leaves are given to stage 1, stage 2 or neither.
        Each stage holds one entry per level and kind, as _run_stage gives
        them: an entry holds many cells, adjacent ones among them, and each
        np.add.at call of _paint takes one corner of all of them."""
        leaves = ({}, {})
        queue = [(0, idx) for idx in np.ndindex(*(grid,) * n)]
        while queue:
            level, idx = queue.pop()
            if level < cls.REFINE_MAX and rng.random() < 0.4:
                queue += [
                    (level + 1, tuple(2 * i + s for i, s in zip(idx, shift)))
                    for shift in np.ndindex(*(2,) * n)
                ]
            elif rng.random() < count:
                zero = rng.random() < 0.3
                stage = leaves[int(rng.random() < 0.5)]
                stage.setdefault((level, zero), []).append(idx)
        return tuple(
            [
                (level, np.array(cells, np.int64), None if zero else np.ones((1, 1)))
                for (level, zero), cells in sorted(stage.items())
            ]
            for stage in leaves
        )

    @classmethod
    def _shared_corners(cls, accepted, theta) -> bool:
        """Whether an entry painted without a rim (zero-data cells, and terms
        of f <= 2 mask cells) holds two cells sharing a face, and so two
        cells sharing painted corners."""
        for level, idx, cf in accepted:
            f = 2 ** (cls.REFINE_MAX - level)
            gap = np.abs(idx[:, None, :] - idx[None, :, :]).sum(axis=2)
            if (cf is None or theta * f < 2) and np.any(gap == 1):
                return True
        return False

    @staticmethod
    def _boxes(accepted, lower, h0, theta):
        """Certified boxes as multi_stage_build computes them."""
        rows = []
        for level, idx, cf in accepted:
            h = h0 / 2**level
            lows = lower + idx * h
            if cf is None:
                rows.append(np.concatenate([lows, lows + h], axis=1))
            else:
                c, p = lows + h / 2.0, (1.0 - theta) * (h / 2.0)
                rows.append(np.concatenate([c - p, c + p], axis=1))
        return np.concatenate(rows)

    @pytest.mark.parametrize("theta", [0.5, 0.125])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pooled_fine_painter(self, n, theta):
        rng = np.random.default_rng(10 * n + int(1 / theta))
        grid, refine_max = self.GRID[n], self.REFINE_MAX
        # plateau corners of refine_max cells lie on the fine lattice
        fine = 2 * round(1 / theta)
        R = grid * 2**refine_max
        shared = False
        for _ in range(4):
            lower = rng.uniform(-1.0, 1.0, size=n)
            h0 = 1.7 / grid
            sat = np.zeros((R + 1,) * n, np.int32)
            want = np.zeros((R,) * n, bool)
            stages = self._stages(rng, n, grid, 0.6)
            shared |= any(self._shared_corners(a, theta) for a in stages)
            for accepted in stages:
                lusin._paint(sat, _axis_major(accepted), refine_max, theta)
                if accepted:
                    boxes = self._boxes(accepted, lower, h0, theta)
                    h_fine = h0 / 2**refine_max / fine
                    want |= _fine_painted_mask(boxes, lower, h_fine, R * fine, fine)
                npt.assert_array_equal(sat, _coverage_table(want))
        assert shared

    @pytest.mark.parametrize("theta", [0.3, 0.6, 0.75])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_paints_the_mask_hull_of_each_exact_plateau(self, n, theta):
        # a term's plateau, in mask cells, is exactly f i + theta f / 2 to
        # f (i + 1) - theta f / 2 per axis, theta the float's exact value;
        # painted are the mask cells meeting its interior
        rng = np.random.default_rng(100 * n + round(100 * theta))
        grid, refine_max = self.GRID[n], self.REFINE_MAX
        R = grid * 2**refine_max
        exact = Fraction(theta)
        sat = np.zeros((R + 1,) * n, np.int32)
        want = np.zeros((R,) * n, bool)
        for accepted in self._stages(rng, n, grid, 0.6):
            lusin._paint(sat, _axis_major(accepted), refine_max, theta)
            for level, idx, cf in accepted:
                f = 2 ** (refine_max - level)
                rim = 0 if cf is None else exact * f / 2
                for cell in idx.tolist():
                    ranges = [
                        slice(math.floor(f * i + rim), math.ceil(f * (i + 1) - rim))
                        for i in cell
                    ]
                    assert not want[tuple(ranges)].any()
                    want[tuple(ranges)] = True
            npt.assert_array_equal(sat, _coverage_table(want))


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

    @staticmethod
    def _check_free_cells(covered, grid, refine_max):
        """_free_cells of the mask's table against brute force."""
        n = covered.ndim
        got = lusin._free_cells(_coverage_table(covered), grid, refine_max)
        assert [r for r, _ in got] == list(range(refine_max + 1))
        for r, cells in got:
            cells = cells.T
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
    def test_free_cells_match_brute_force(self, n):
        # the empty table too, from which stage 1 seeds the level-0 grid
        grid, refine_max = self.SHAPES[n]
        side = grid * 2**refine_max
        rng = np.random.default_rng(n)
        empty = np.zeros((side,) * n, bool)
        for covered in [empty, *self._masks(rng, n, side)]:
            self._check_free_cells(covered, grid, refine_max)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rim_zero_exactly_when_a_term_is_painted_whole(self, n):
        # the rule by which later stages leave a block out of their residual
        grid, refine_max = self.SHAPES[n]
        side = grid * 2**refine_max
        seen = set()
        for theta in (0.125, 0.3, 0.5, 0.9):
            for level in range(refine_max + 1):
                f = 2 ** (refine_max - level)
                idx = np.full((n, 1), grid * 2**level - 1, np.int64)
                sat = np.zeros((side + 1,) * n, np.int32)
                lusin._paint(sat, [(level, idx, np.ones((1, 1)))], refine_max, theta)
                count = lusin._coverage_near(sat, idx * f, idx * f + f)[0]
                whole = lusin._rim(theta, f) == 0
                assert (count == f**n) == whole
                seen.add(whole)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corner_and_whole_table_coverage(self, n):
        # coverage in one corner, so each level reads a window cropped to
        # it, at the low end and at the high end of every axis; and level-0
        # zero-data cells covering the whole table
        grid, refine_max = self.SHAPES[n]
        side = grid * 2**refine_max
        theta, h0 = 0.5, 1.0 / grid
        near = np.argwhere(np.ones((3,) * n, bool))
        cases = (
            [(refine_max, near, None)],
            [(refine_max, side - 1 - near, np.ones((1, 1)))],
            [(0, np.argwhere(np.ones((grid,) * n, bool)), None)],
        )
        for accepted in cases:
            sat = np.zeros((side + 1,) * n, np.int32)
            lusin._paint(sat, _axis_major(accepted), refine_max, theta)
            boxes = TestPaintBoxes._boxes(accepted, np.zeros(n), h0, theta)
            fine = 2 * round(1 / theta)
            h_fine = h0 / 2**refine_max / fine
            want = _fine_painted_mask(boxes, np.zeros(n), h_fine, side * fine, fine)
            npt.assert_array_equal(sat, _coverage_table(want))
            self._check_free_cells(want, grid, refine_max)
        assert want.all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pinch_matches_chessboard_oracle(self, n):
        grid, refine_max = self.SHAPES[n]
        side = grid * 2**refine_max
        rng = np.random.default_rng(10 + n)
        b_sup = 0.37
        for k, covered in enumerate(self._masks(rng, n, side)):
            covered[(0,) * n] = True
            sat = _coverage_table(covered)
            dist = _chessboard_oracle(~covered)
            # caps saturate inside the mask, or never reach b_sup
            h_rm = (1.7 if k % 2 else 0.3) / side
            caps = b_sup * np.minimum((np.arange(side + 2) * h_rm) ** 2, 1.0)
            for r in range(refine_max + 1):
                f = 2 ** (refine_max - r)
                # tested cells are free
                cells = self._free_blocks(covered, grid, r, f)
                if not cells.shape[0]:
                    continue
                # worst from one ulp below 0 to above b_sup and inf, hitting
                # every cap exactly and one ulp either side
                pool = np.concatenate(
                    [
                        caps,
                        np.nextafter(caps, 1.0),
                        np.nextafter(caps, -1.0),
                        [0.0, np.inf],
                        rng.uniform(0.0, 1.2 * b_sup, 50),
                    ]
                )
                worst = rng.choice(pool, size=cells.shape[0])
                self._check_pinch(sat, dist, cells, f, worst, b_sup, h_rm)

    @staticmethod
    def _free_blocks(covered, grid, r, f):
        """The level-r cells, f mask cells per axis, that hold no coverage,
        as (B, n) in C order."""
        n = covered.ndim
        return np.array(
            [
                idx
                for idx in np.ndindex(*(grid * 2**r,) * n)
                if not _block(covered, idx, f).any()
            ],
            np.int64,
        ).reshape(-1, n)

    @staticmethod
    def _check_pinch(sat, dist, cells, f, worst, b_sup, h_rm):
        """_pinch_fails on cells (B, n) against the chessboard oracle: a cell
        fails unless worst <= b_sup min(D^2, 1), so a NaN fails."""
        c = np.array([_block(dist, idx, f).min() for idx in cells], float)
        D = np.maximum(c - 1.0, 0.0) * h_rm
        want = ~(worst <= b_sup * np.minimum(D**2, 1.0))
        got = lusin._pinch_fails(sat, cells.T, f, worst, b_sup, h_rm)
        npt.assert_array_equal(got, want)

    @staticmethod
    def _held_groups(covered, cells, f, worst, caps, group):
        """Per cell (B, n), whether the box of its group of `group`
        consecutive cells, grown by the gap of the group's largest worst,
        holds coverage on the mask."""
        held = np.zeros(cells.shape[0], bool)
        for s in range(0, cells.shape[0], group):
            part = cells[s : s + group]
            widest = np.searchsorted(caps, worst[s : s + group].max())
            lo = np.maximum(part.min(axis=0) * f - widest, 0)
            hi = part.max(axis=0) * f + f + widest
            held[s : s + group] = covered[tuple(map(slice, lo, hi))].any()
        return held

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pinch_batch_read_matches_chessboard_oracle(self, n, monkeypatch):
        # every worst at most the table's last cap, so a group's grown
        # bounding box can miss the coverage and settle the group's cells;
        # small groups split a batch into many, the last one short
        grid, refine_max = self.SHAPES[n]
        side = grid * 2**refine_max
        rng = np.random.default_rng(20 + n)
        b_sup = 0.37
        reads = []
        near = lusin._coverage_near

        def recording(sat, lo, hi):
            reads.append((lo.copy(), hi.copy()))
            return near(sat, lo, hi)

        monkeypatch.setattr(lusin, "_coverage_near", recording)
        seen = Counter()
        groups = (3, 16, lusin._GROUP)
        # the random masks, then one covering only the first corner cell
        masks = [*self._masks(rng, n, side), np.zeros((side,) * n, bool)]
        for k, covered in enumerate(masks):
            covered[(0,) * n] = True
            sat = _coverage_table(covered)
            dist = _chessboard_oracle(~covered)
            h_rm = (1.7 if k % 2 else 0.3) / side
            # the program's table: one cap per gap 0 .. side
            caps = b_sup * np.minimum((np.arange(side + 1) * h_rm) ** 2, 1.0)
            pool = np.concatenate(
                [
                    caps,
                    np.nextafter(caps, 1.0),
                    np.nextafter(caps, -1.0),
                    [0.0],
                    rng.uniform(0.0, caps[-1], 50),
                ]
            )
            pool = pool[pool <= caps[-1]]
            # gaps below a quarter side keep a far batch's box off the corner
            low = pool[pool <= caps[side // 4]]
            for r in range(refine_max + 1):
                f = 2 ** (refine_max - r)
                cells = self._free_blocks(covered, grid, r, f)
                if not cells.shape[0]:
                    continue
                for group in groups:
                    monkeypatch.setattr(lusin, "_GROUP", group)

                    def check(cells, worst):
                        """One call against the oracle; the per-cell read
                        holds exactly the cells of the groups whose box
                        holds coverage, and comes only if some group's does."""
                        reads.clear()
                        self._check_pinch(sat, dist, cells, f, worst, b_sup, h_rm)
                        held = self._held_groups(covered, cells, f, worst, caps, group)
                        B = cells.shape[0]
                        assert reads[0][0].shape[1] == -(-B // group)
                        assert len(reads) == 1 + held.any()
                        if held.any():
                            lo, hi = reads[1]
                            npt.assert_array_equal((lo + hi - f) // (2 * f), cells[held].T)
                        seen["long"] += B > group and B % group > 0
                        seen["mixed"] += held.any() and not held.all()
                        return held

                    worst = rng.choice(pool, size=cells.shape[0])
                    check(cells, worst)
                    # one NaN sorts past the table: its group's box holds
                    # the whole mask, and the NaN cell fails
                    worst[rng.integers(worst.size)] = np.nan
                    check(cells, worst)
                    # a NaN among low bounds: the other groups may settle
                    worst = rng.choice(low, size=cells.shape[0])
                    at = rng.integers(worst.size)
                    worst[at] = np.nan
                    held = check(cells, worst)
                    assert held[at]
                    seen["nan_mixed"] += not held.all()
                    # the free cells in the far half of every axis
                    far = cells[(cells * f >= side // 2).all(axis=1)]
                    if far.shape[0]:
                        worst = rng.choice(low, size=far.shape[0])
                        check(far, worst)
                        # one call settles the far batch
                        seen["settled"] += far.shape[0] > 1 and len(reads) == 1
                    # an empty batch reads nothing
                    reads.clear()
                    got = lusin._pinch_fails(
                        sat, np.zeros((n, 0), np.int64), f, np.zeros(0), b_sup, h_rm
                    )
                    assert got.shape == (0,) and got.dtype == bool and not reads
        assert all(seen[key] for key in ("long", "mixed", "nan_mixed", "settled")), seen


class TestTailPinch:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_no_samples(self, growth_build, samples):
        _, _, g, cert = growth_build
        with pytest.raises(ValueError, match="sample"):
            tail_pinch_check(g, cert, samples=samples)

    def test_vacuous_without_later_stages(self, single_build):
        _, _, g, cert = single_build
        tp = tail_pinch_check(g, cert, samples=100, seed=0)
        assert tp["vacuous"]
        assert tp["checked"] == 0
        assert tp["passed"]
