import gzip
import importlib
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lusinkit.core import (
    BoxDomain,
    BumpPolySum,
    CutoffProfile,
    InfeasibleBudgetError,
    LogModulus,
    PiecewiseLinearModulus,
    PowerModulus,
    cell_derivative_bounds,
    enumerate_multiindices,
    modulus_from_dict,
    multiindices_upto,
)
from lusinkit.harness import load_function
from lusinkit.lusin import BuildConfig, field_catalog, multi_stage_build

INV_E = math.exp(-1.0)
FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


class TestMultiIndices:
    def test_examples(self):
        assert enumerate_multiindices(1, 3) == [(3,)]
        assert enumerate_multiindices(2, 1) == [(0, 1), (1, 0)]
        assert enumerate_multiindices(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_counts_match_binomial(self):
        for n in range(1, 5):
            for m in range(0, 5):
                out = enumerate_multiindices(n, m)
                assert len(out) == math.comb(n + m - 1, m)
                assert len(set(out)) == len(out)
                assert all(sum(a) == m for a in out)
                assert out == sorted(out)

    def test_upto_ordering(self):
        assert multiindices_upto(2, 2) == [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            enumerate_multiindices(0, 2)
        with pytest.raises(ValueError):
            enumerate_multiindices(2, -1)


class TestBoxDomain:
    def test_measures(self):
        dom = BoxDomain((0.0, 0.0), (2.0, 1.0))
        assert dom.volume() == pytest.approx(2.0)
        assert dom.diameter() == pytest.approx(math.sqrt(5.0))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain((0.0, 0.0), (1.0, 0.0))


class TestLogModulus:
    def test_branch_values(self):
        mu = LogModulus()
        assert mu(0.0) == 0.0
        # both branch formulas at the joint
        assert 1.0 / abs(math.log(INV_E)) == pytest.approx(1.0, abs=1e-15)
        assert math.e * INV_E == pytest.approx(1.0, abs=1e-15)
        assert mu(INV_E) == pytest.approx(1.0, abs=1e-12)
        assert mu(1.0) == pytest.approx(math.e, abs=1e-12)

    def test_continuity_at_joint(self):
        mu = LogModulus()
        h = 1e-9
        assert abs(mu(INV_E + h) - mu(INV_E - h)) < 1e-8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogModulus()(-0.1)

    def test_scale_cut_inverts(self):
        mu = LogModulus()
        assert mu.scale_cut(0.5) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert mu.scale_cut(2.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_scale_cut_underflow_is_an_error(self):
        # exp(-1e4) is 0; exp(-740) = 4.2e-322 is subnormal
        for bound in (1e-4, 1 / 740):
            with pytest.raises(InfeasibleBudgetError):
                LogModulus().scale_cut(bound)
        # exp(-708) = 3.3e-308 is the last whole exponent above the normal floor
        assert LogModulus().scale_cut(1 / 708) >= sys.float_info.min

    def test_sup_ratio_dominates_samples(self):
        mu = LogModulus()
        for delta in (1e-6, 1e-3, 0.1, 0.5, 2.0):
            M = mu.sup_ratio(delta)
            ts = np.geomspace(delta, 1e3, 1000)
            assert np.all(mu(ts) / ts <= M * (1 + 1e-12))

    def test_sup_ratio_overflow_is_inf_without_warning(self):
        # 1/delta overflows below about 5.6e-309; the ratio exceeds 1e305 there
        mu = LogModulus()
        deltas = np.array([5e-324, 3.5e-323, 5e-309, 5.6e-309, 1e-300, 1e-3, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mu.sup_ratio(deltas)
            assert mu.sup_ratio(5e-324) == math.inf
        assert got[:3].tolist() == [math.inf] * 3
        normal = deltas[3:]
        want = 1.0 / (normal * np.log(1.0 / normal))
        want[-1] = math.e
        assert got[3:].tolist() == want.tolist()
        assert 1e305 < got[3] < math.inf


class TestPowerModulus:
    def test_values_and_cut(self):
        mu = PowerModulus(0.5)
        assert mu(0.25) == pytest.approx(0.5)
        assert mu.scale_cut(0.5) == pytest.approx(0.25)
        # beta = 1 is plain t
        lin = PowerModulus(1.0)
        assert lin.scale_cut(0.125) == pytest.approx(0.125)
        assert lin.sup_ratio(1e-9) == pytest.approx(1.0)

    def test_scale_cut_underflow_is_an_error(self):
        tiny = sys.float_info.min
        assert PowerModulus(1.0).scale_cut(tiny) == tiny
        # 1e-160**2 = 1e-320 is subnormal, 1e-200**2 is 0
        for beta, bound in ((1.0, tiny / 2), (0.5, 1e-160), (0.5, 1e-200)):
            with pytest.raises(InfeasibleBudgetError):
                PowerModulus(beta).scale_cut(bound)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            PowerModulus(0.0)
        with pytest.raises(ValueError):
            PowerModulus(1.5)

    def test_sup_ratio_dominates_samples(self):
        mu = PowerModulus(0.7)
        for delta in (1e-6, 0.2, 3.0):
            M = mu.sup_ratio(delta)
            ts = np.geomspace(delta, 1e3, 1000)
            assert np.all(mu(ts) / ts <= M * (1 + 1e-12))


KNOTS = ((0.0, 0.0), (0.1, 0.2), (1.0, 0.5))


class TestPiecewiseLinearModulus:
    def test_interpolation_and_extrapolation(self):
        mu = PiecewiseLinearModulus(KNOTS)
        assert mu(0.05) == pytest.approx(0.1)
        assert mu(0.55) == pytest.approx(0.2 + 0.45 / 0.9 * 0.3)
        # beyond the last knot, continue with the final slope 1/3
        assert mu(2.0) == pytest.approx(0.5 + 1.0 / 3.0)

    def test_scale_cut_against_bisection(self):
        mu = PiecewiseLinearModulus(KNOTS)
        for bound in (0.1, 0.3, 0.45, 0.7):
            delta = mu.scale_cut(bound)
            lo, hi = 0.0, 10.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if mu(mid) <= bound:
                    lo = mid
                else:
                    hi = mid
            assert delta == pytest.approx(lo, abs=1e-12)

    def test_flat_tail_gives_inf(self):
        mu = PiecewiseLinearModulus(((0.0, 0.0), (0.5, 0.2), (1.0, 0.2)))
        assert mu.scale_cut(0.25) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearModulus(((0.1, 0.0), (1.0, 0.5)))
        with pytest.raises(ValueError):
            PiecewiseLinearModulus(((0.0, 0.0), (0.5, 0.4), (0.5, 0.6)))
        with pytest.raises(ValueError):
            PiecewiseLinearModulus(((0.0, 0.0), (0.5, 0.4), (1.0, 0.3)))

    def test_scale_cut_underflow_is_an_error(self):
        mu = PiecewiseLinearModulus(((0.0, 0.0), (1.0, 1.0)))
        tiny = sys.float_info.min
        assert mu.scale_cut(tiny) == tiny
        for bound in (tiny / 2, 1e-320, 0.0):
            with pytest.raises(InfeasibleBudgetError):
                mu.scale_cut(bound)

    def test_sup_ratio_dominates_samples(self):
        mu = PiecewiseLinearModulus(KNOTS)
        for delta in (0.01, 0.2, 5.0):
            M = mu.sup_ratio(delta)
            ts = np.geomspace(delta, 1e3, 1000)
            assert np.all(mu(ts) / ts <= M * (1 + 1e-12))


# tail slope 0.95 exceeds every knot ratio (0.1, 0.05, 0.5)
STEEP_TAIL_KNOTS = ((0.0, 0.0), (0.1, 0.01), (1.0, 0.05), (2.0, 1.0))
# mu(t)/t rises from 0.1 to 0.5 on [1, 2], so on (0, 2] the sup is the knot at 2
KINK_KNOTS = ((0.0, 0.0), (1.0, 0.1), (2.0, 1.0), (3.0, 1.2))


def _pwl_sup_ratio_oracle(mu, delta):
    """The candidate list of M(delta): delta itself, knots beyond it, tail."""
    (t1, v1), (t2, v2) = mu.knots[-2:]
    tail = (v2 - v1) / (t2 - t1)
    cands = [float(mu(delta)) / delta]
    cands += [v / t for t, v in mu.knots if t >= delta and t > 0]
    if v2 - tail * t2 < 0:
        cands.append(tail)
    return max(cands)


class TestSupRatioArrays:
    MODULI = {
        "log": LogModulus(),
        "power0.7": PowerModulus(0.7),
        "power1": PowerModulus(1.0),
        "pwl": PiecewiseLinearModulus(KNOTS),
        "pwl-steep-tail": PiecewiseLinearModulus(STEEP_TAIL_KNOTS),
        "pwl-kink": PiecewiseLinearModulus(KINK_KNOTS),
    }

    @staticmethod
    def _deltas(mu):
        extra = [INV_E, np.nextafter(INV_E, 0.0), np.nextafter(INV_E, 1.0)]
        if isinstance(mu, PiecewiseLinearModulus):
            ts = np.array([t for t, _ in mu.knots[1:]])
            # exactly at each knot, one ulp to either side, and past the last
            extra += [ts, np.nextafter(ts, 0.0), np.nextafter(ts, np.inf)]
            extra += [ts[-1] * 1.5, ts[-1] * 1e6]
        return np.concatenate([np.geomspace(1e-9, 1e3, 600), np.hstack(extra)])

    @pytest.mark.parametrize("name", MODULI)
    def test_array_equals_scalar(self, name):
        mu = self.MODULI[name]
        d = self._deltas(mu)
        want = np.array([mu.sup_ratio(float(v)) for v in d])
        npt.assert_array_equal(mu.sup_ratio(d), want)
        grid = mu.sup_ratio(d[:600].reshape(300, 2))
        npt.assert_array_equal(grid, want[:600].reshape(300, 2), strict=True)
        assert type(mu.sup_ratio(0.25)) is float

    @pytest.mark.parametrize("name", ["pwl", "pwl-steep-tail", "pwl-kink"])
    def test_pwl_matches_candidate_oracle(self, name):
        mu = self.MODULI[name]
        d = self._deltas(mu)
        want = np.array([_pwl_sup_ratio_oracle(mu, float(v)) for v in d])
        npt.assert_array_equal(mu.sup_ratio(d), want)

    def test_binding_tail_and_knot(self):
        mu = self.MODULI["pwl-steep-tail"]
        assert mu.sup_ratio(np.array([5.0, 1e9])).tolist() == [0.95, 0.95]
        mu = self.MODULI["pwl-kink"]
        assert mu.sup_ratio(np.array([1e-3, 1.0, 1.5, 2.0])).tolist() == [0.5] * 4

    @pytest.mark.parametrize("name", MODULI)
    def test_non_positive_rejected(self, name):
        mu = self.MODULI[name]
        for bad in (np.array([0.5, 0.0]), np.array([[1e-3], [-1.0]]), 0.0):
            with pytest.raises(ValueError):
                mu.sup_ratio(bad)


def test_modulus_dict_roundtrip():
    for mu in (LogModulus(), PowerModulus(0.3), PiecewiseLinearModulus(KNOTS)):
        back = modulus_from_dict(mu.spec_dict())
        ts = np.geomspace(1e-6, 10.0, 50)
        npt.assert_allclose(back(ts), mu(ts), rtol=0, atol=0)


class TestCutoffProfile:
    def test_smoothstep_coefficients(self):
        npt.assert_allclose(CutoffProfile(1, 0.5)._step_coeffs, [0, 0, 3, -2])
        npt.assert_allclose(CutoffProfile(2, 0.5)._step_coeffs, [0, 0, 0, 10, -15, 6])

    def test_joins_are_smooth(self):
        # derivative values up to the order agree with the constant pieces
        for m in (1, 2, 3):
            prof = CutoffProfile(m, 0.3)
            h = 1e-9
            inner = prof.profile_derivatives(np.array([1 - 0.3 + h]), m)
            outer = prof.profile_derivatives(np.array([1.0 - h]), m)
            assert inner[0, 0] == pytest.approx(1.0, abs=1e-7)
            assert outer[0, 0] == pytest.approx(0.0, abs=1e-7)
            for k in range(1, m + 1):
                scale = prof.derivative_maxima[k] / prof.theta**k
                assert abs(inner[k, 0]) / scale < 1e-5
                assert abs(outer[k, 0]) / scale < 1e-5

    def test_derivative_maxima_closed_forms(self):
        assert CutoffProfile(1, 0.5).derivative_maxima == pytest.approx((1.0, 1.5))
        assert CutoffProfile(2, 0.5).derivative_maxima == pytest.approx(
            (1.0, 15.0 / 8.0, 10.0 / math.sqrt(3.0))
        )

    def test_derivative_maxima_against_grid_scan(self):
        from numpy.polynomial import polynomial as npoly

        for m in (1, 2, 3):
            prof = CutoffProfile(m, 0.5)
            u = np.linspace(0.0, 1.0, 200001)
            for k in range(1, m + 1):
                grid_max = np.abs(npoly.polyval(u, prof._step_derivs[k])).max()
                assert prof.derivative_maxima[k] == pytest.approx(grid_max, rel=1e-7)

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            CutoffProfile(1, 0.0)
        with pytest.raises(ValueError):
            CutoffProfile(0, 0.5)

    def test_bound_constant_m1_closed_form(self):
        # n=2, m=1: the worst order-1 bound is 1 + 2*A1/theta
        for theta in (0.25, 0.5, 0.9):
            prof = CutoffProfile(1, theta)
            assert prof.bound_constant(2) == pytest.approx(1.0 + 3.0 / theta)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bound_constant_matches_scalar_oracle(self, m):
        for n in (1, 2, 3):
            for theta in (0.5, 0.125, 0.25, 0.3, 0.005, 0.9):
                prof = CutoffProfile(m, theta)
                want = bound_constant_oracle(prof, n)
                assert prof.bound_constant(n) == pytest.approx(want, rel=1e-15)


def bound_constant_oracle(profile: CutoffProfile, n: int) -> float:
    """Oracle: C(n, m) summed term by term over the Leibniz rule.

    For each order-m gamma, sum over beta <= gamma of
    C(gamma, beta) prod A_beta_i / theta^|beta| times the sum over
    order-m alpha >= gamma - beta of 1/(alpha - gamma + beta)!.
    """
    m = profile.order
    A = profile.derivative_maxima
    best = 0.0
    for gamma in enumerate_multiindices(n, m):
        total = 0.0
        for beta in itertools.product(*(range(g + 1) for g in gamma)):
            comb = math.prod(math.comb(g, b) for g, b in zip(gamma, beta))
            afac = math.prod(A[b] for b in beta)
            gp = tuple(g - b for g, b in zip(gamma, beta))
            nsum = 0.0
            for alpha in enumerate_multiindices(n, m):
                if all(a >= g for a, g in zip(alpha, gp)):
                    fact = math.prod(math.factorial(a - g) for a, g in zip(alpha, gp))
                    nsum += 1.0 / fact
            total += comb * afac * nsum / profile.theta ** sum(beta)
        best = max(best, total)
    return best


def cutoff_eval(profile: CutoffProfile, cell_low, cell_high, x, deriv=None):
    """Oracle: the tensor cutoff of one box cell, or an exact partial derivative.

    The cutoff is 1 on the centered (1 - theta)-scaled box, 0 outside the
    cell.  deriv is a multi-index; total order above profile.order is
    rejected.  x may be a single point or an array of points (..., n).
    """
    low = np.asarray(cell_low, float)
    high = np.asarray(cell_high, float)
    x = np.asarray(x, float)
    n = low.shape[-1] if low.ndim else 1
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if deriv is None:
        deriv = (0,) * n
    if sum(deriv) > profile.order:
        raise ValueError("derivative order exceeds the profile smoothness")
    center = (low + high) / 2.0
    halfw = (high - low) / 2.0
    dx = pts - center
    val = np.ones(pts.shape[0])
    for i, k in enumerate(deriv):
        s = np.abs(dx[:, i]) / halfw[i]
        tab = profile.profile_derivatives(s, k)
        fac = tab[k]
        if k:
            fac = fac * np.sign(dx[:, i]) ** k / halfw[i] ** k
        val = val * fac
    return float(val[0]) if single else val


class TestCutoffEval:
    def test_plateau_and_support(self):
        prof = CutoffProfile(1, 0.5)
        assert cutoff_eval(prof, [0.0], [1.0], np.array([0.5])) == 1.0
        assert cutoff_eval(prof, [0.0], [1.0], np.array([1.2])) == 0.0
        # plateau extends to (1-theta) of the half-width
        assert cutoff_eval(prof, [0.0], [1.0], np.array([0.74])) == 1.0

    def test_transition_derivative_value(self):
        # midpoint of the transition band of the cubic profile
        prof = CutoffProfile(1, 0.5)
        v = cutoff_eval(prof, [0.0], [1.0], np.array([0.875]), (1,))
        assert v == pytest.approx(-6.0, abs=1e-12)
        h = 1e-6
        up = cutoff_eval(prof, [0.0], [1.0], np.array([0.875 + h]))
        dn = cutoff_eval(prof, [0.0], [1.0], np.array([0.875 - h]))
        assert (up - dn) / (2 * h) == pytest.approx(v, abs=1e-8)

    def test_tensor_form(self):
        prof = CutoffProfile(2, 0.4)
        pts = np.array([[0.3, 0.8], [0.5, 0.5], [0.05, 0.95]])
        both = cutoff_eval(prof, [0.0, 0.0], [1.0, 1.0], pts, (1, 1))
        fx = cutoff_eval(prof, [0.0], [1.0], pts[:, :1], (1,))
        fy = cutoff_eval(prof, [0.0], [1.0], pts[:, 1:], (1,))
        npt.assert_allclose(both, fx * fy, rtol=1e-13)

    def test_order_above_smoothness_rejected(self):
        prof = CutoffProfile(1, 0.5)
        with pytest.raises(ValueError):
            cutoff_eval(prof, [0.0, 0.0], [1.0, 1.0], np.array([0.5, 0.5]), (1, 1))

    def test_constant_cell_term_is_the_cutoff(self):
        # a one-cell sum with c_0 = 1 is the cell's cutoff itself
        idx = multiindices_upto(2, 2)
        coeffs = np.zeros((1, len(idx)))
        coeffs[0, idx.index((0, 0))] = 1.0
        low = np.array([0.25, 0.5])
        g = BumpPolySum(2, 2).with_block(low[None, :], 0.5, 0.4, 0.5, 1, coeffs)
        pts = np.random.default_rng(12).uniform(0.2, 1.05, size=(2000, 2))
        prof = CutoffProfile(2, 0.4)
        got = g.jet(pts, idx)
        for j, gamma in enumerate(idx):
            want = cutoff_eval(prof, low, low + 0.5, pts, gamma)
            npt.assert_allclose(got[:, j], want, rtol=1e-12, atol=1e-9)


def _random_sum(rng, n=2, m=2):
    idx = multiindices_upto(n, m)
    lows1 = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    lows2 = np.array([[0.5, 0.5], [1.5, 1.5]])
    g = BumpPolySum(n, m).with_block(
        lows1, 1.0, 0.5, 0.5, 1, rng.normal(size=(3, len(idx)))
    )
    return g.with_block(lows2, 0.5, 0.4, 0.25, 2, rng.normal(size=(2, len(idx))))


class TestBumpPolySum:
    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(7)
        g = _random_sum(rng)
        pts = rng.uniform(0.0, 3.0, size=(1000, 2))
        h = 1e-5
        for gamma in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            i = 0 if gamma[0] > 0 else 1
            parent = tuple(a - (1 if j == i else 0) for j, a in enumerate(gamma))
            e = np.zeros(2)
            e[i] = h
            fd = (g.derivative(pts + e, parent) - g.derivative(pts - e, parent)) / (
                2 * h
            )
            exact = g.derivative(pts, gamma)
            scale = np.abs(exact).max()
            assert np.abs(fd - exact).max() / scale < 1e-6

    def test_stage_linearity(self):
        rng = np.random.default_rng(8)
        g = _random_sum(rng)
        pts = rng.uniform(0.0, 3.0, size=(500, 2))
        for gamma in [(0, 0), (1, 1), (2, 0)]:
            tot = g.derivative(pts, gamma)
            parts = g.derivative(pts, gamma, stages={1}) + g.derivative(
                pts, gamma, stages={2}
            )
            npt.assert_allclose(parts, tot, rtol=0, atol=1e-12)

    def test_plateau_center_value(self):
        rng = np.random.default_rng(9)
        g = _random_sum(rng)
        blk = g.blocks[0]
        center = blk.lows[1] + blk.half_width
        idx = list(g.multiindices)
        got = g.derivative(center, (0, 0), stages={1})
        assert got == pytest.approx(blk.coeffs[1, idx.index((0, 0))], rel=1e-14)

    def test_vanishes_off_support(self):
        rng = np.random.default_rng(10)
        g = _random_sum(rng)
        assert g.value(np.array([9.0, 9.0])) == 0.0
        assert g.derivative(np.array([-1.0, -1.0]), (1, 0)) == 0.0

    def test_gamma_validation(self):
        g = _random_sum(np.random.default_rng(11))
        with pytest.raises(ValueError):
            g.derivative(np.zeros(2), (2, 1))
        with pytest.raises(ValueError):
            g.derivative(np.zeros(2), (1,))

    def test_overlapping_cells_rejected(self):
        idx = multiindices_upto(2, 1)
        lows = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            BumpPolySum(2, 1).with_block(
                lows, 1.0, 0.5, 0.5, 1, np.zeros((2, len(idx)))
            )

    def test_off_lattice_corner_rejected(self):
        coeffs = [[1.0, 0.0, 0.0]] * 2
        # 0.3 lies 1.2 steps of 0.25 from the other cell's corner
        with pytest.raises(ValueError, match="lattice"):
            BumpPolySum(2, 1).with_block(
                [[0.0, 0.0], [0.3, 0.3]], 0.25, 0.5, 0.5, 1, coeffs
            )
        # rounding noise far below the tolerance is accepted
        g = BumpPolySum(2, 1).with_block(
            [[0.0, 0.0], [0.25 + 1e-12, 0.5]], 0.25, 0.5, 0.5, 1, coeffs
        )
        assert g.value(np.array([0.375, 0.625])) == 1.0


def _fixture_sum(name, tmp_path):
    path = tmp_path / (name + ".lkf")
    path.write_bytes(gzip.decompress((FIXTURES / (name + ".lkf.gz")).read_bytes()))
    return load_function(str(path))[0]


def _sparse_sum(rng, far=True):
    """A 2x2 block of order 2 at a negative corner, plus one far cell when
    far is set, which leaves the padded lattice 43 x 43 for 5 cells."""
    idx = np.array([[0, 0], [1, 0], [0, 1], [1, 1]] + ([[40, 40]] if far else []))
    corner = np.array([-1.0, -0.5])
    # the far cell's row comes last, so the 2x2 rows agree for one seed
    coeffs = rng.normal(size=(len(idx), len(multiindices_upto(2, 2))))
    return BumpPolySum(2, 2).with_block(
        corner + 0.125 * idx, 0.125, 0.5, 0.5, 1, coeffs
    )


def _scan_rows(blk, x):
    """Row of the half-open cell [low, low + spacing) holding each point, or -1,
    by comparing every point against every cell."""
    rows = np.full(x.shape[0], -1)
    for start in range(0, x.shape[0], 128):
        chunk = x[start : start + 128, None, :]
        inside = np.all(
            (blk.lows <= chunk) & (chunk < blk.lows + blk.spacing), axis=2
        )
        pts, cells = np.nonzero(inside)
        assert np.unique(pts).size == pts.size
        rows[start + pts] = cells
    return rows


def _probe_points(g, rng):
    """Cell corners and face points of every block, points outside the
    bounding boxes and at negative coordinates, and non-finite points."""
    probes = [rng.uniform(-1.5, 1.5, size=(500, 2))]
    for blk in g.blocks:
        lows = blk.lows[rng.choice(blk.lows.shape[0], 64)]
        h = blk.spacing
        for off in ([0, 0], [h, 0], [0, h], [h, h], [h / 2, 0], [0, h / 2],
                    [h, h / 4], [h / 4, h]):
            probes.append(lows + off)
    big = [-math.inf, -1.7e308, -3.0, -1e-300, 0.0, 0.5, 1.0, 5.0, 1.7e308,
           math.inf, math.nan]
    probes.append(np.array(list(itertools.product(big, repeat=2))))
    return np.concatenate(probes)


class TestLocate:
    """_Block.locate against a scan of every cell, on both lookup paths."""

    def _check(self, g, rng):
        x = _probe_points(g, rng)
        finite = np.all(np.isfinite(x), axis=1)
        for blk in g.blocks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pts, rows = blk.locate(x)
            assert np.all(np.diff(pts) > 0)
            assert np.all(finite[pts])
            got = np.full(x.shape[0], -1)
            got[pts] = rows
            npt.assert_array_equal(got, _scan_rows(blk, x))
            assert pts.size > 0

    @pytest.mark.parametrize("name", ["demo", "xx2"])
    def test_fixtures_match_scan(self, name, tmp_path):
        g = _fixture_sum(name, tmp_path)
        assert all(blk._table is not None for blk in g.blocks)
        self._check(g, np.random.default_rng(31))

    def test_sparse_block_matches_scan(self):
        g = _sparse_sum(np.random.default_rng(32))
        assert g.blocks[0]._table is None
        self._check(g, np.random.default_rng(33))

    def test_sparse_and_dense_jets_agree(self):
        dense = _sparse_sum(np.random.default_rng(34), far=False)
        sparse = _sparse_sum(np.random.default_rng(34))
        assert dense.blocks[0]._table is not None
        assert sparse.blocks[0]._table is None
        # the 2x2 cells cover [-1, -0.75] x [-0.5, -0.25]
        pts = np.random.default_rng(35).uniform(-1.1, -0.15, size=(5000, 2))
        got = sparse.jet(pts, sparse.multiindices)
        npt.assert_array_equal(got, dense.jet(pts, dense.multiindices))
        assert np.any(got != 0.0)


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
def growth_sum():
    g, _ = multi_stage_build(
        field_catalog("heisenberg"), BoxDomain((0.0, 0.0), (1.0, 1.0)), GROWTH_CFG
    )
    # several lattice levels in two stages, the later ones overlapping
    assert g.stage_ids == (1, 2)
    assert len({(b.stage, b.spacing) for b in g.blocks}) > 2
    return g


class TestJet:
    """jet is one pass over the blocks for many multi-indices at once; it
    must equal one derivative call per multi-index bit for bit."""

    @pytest.fixture(params=["growth", "random"])
    def case(self, request, growth_sum):
        rng = np.random.default_rng(21)
        if request.param == "growth":
            g = growth_sum
            pts = rng.uniform(-0.1, 1.1, size=(20_000, 2))
        else:
            g = _random_sum(rng)
            pts = rng.uniform(-0.5, 3.5, size=(20_000, 2))
        outside = np.array([[-5.0, -5.0], [50.0, 0.5], [0.5, -1e-3]])
        return g, np.concatenate([pts, outside])

    def test_equals_stacked_derivatives(self, case):
        g, pts = case
        gammas = list(g.multiindices)
        # any order, with a repeat
        gammas = gammas[::-1] + gammas[:1]
        want = np.stack([g.derivative(pts, gm) for gm in gammas], axis=1)
        got = g.jet(pts, gammas)
        assert got.shape == (pts.shape[0], len(gammas))
        npt.assert_array_equal(got, want)
        assert np.all(got[-3:] == 0.0)
        assert np.any(got[:-3] != 0.0)

    def test_stage_filter(self, case):
        g, pts = case
        gammas = list(g.multiindices)
        for stages in ({1}, {2}, {1, 2}, {3}, set()):
            want = np.stack(
                [g.derivative(pts, gm, stages=stages) for gm in gammas], axis=1
            )
            npt.assert_array_equal(g.jet(pts, gammas, stages=stages), want)
        assert np.all(g.jet(pts, gammas, stages=set()) == 0.0)

    def test_subset_of_multiindices(self, case):
        g, pts = case
        full = g.jet(pts, g.multiindices)
        top = [gm for gm in g.multiindices if sum(gm) == g.order]
        cols = [g.multiindices.index(gm) for gm in top]
        npt.assert_array_equal(g.jet(pts, top), full[:, cols])

    def test_single_point_through_derivative(self, case):
        g, pts = case
        for gm in g.multiindices:
            for p in pts[:5]:
                got = g.derivative(p, gm)
                assert type(got) is float
                assert got == g.jet(p[None, :], [gm])[0, 0]

    def test_validation(self, case):
        g, pts = case
        with pytest.raises(ValueError):
            g.jet(pts, [(0,) * g.dimension, (g.order + 1,) + (0,) * (g.dimension - 1)])
        with pytest.raises(ValueError):
            g.jet(pts, [(0,)])
        assert g.jet(pts, []).shape == (pts.shape[0], 0)


class TestCellBounds:
    def test_bounds_dominate_dense_sampling(self):
        rng = np.random.default_rng(12)
        n, m = 2, 2
        idx = multiindices_upto(n, m)
        coeffs = rng.normal(size=(1, len(idx)))
        prof = CutoffProfile(m, 0.5)
        g = BumpPolySum(n, m).with_block(
            np.array([[0.0, 0.0]]), 1.0, 0.5, 0.5, 1, coeffs
        )
        bounds = cell_derivative_bounds(prof, n, m, coeffs, 0.5)
        xs = np.linspace(0.0, 1.0, 141)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        for gi, gamma in enumerate(idx):
            sampled = np.abs(g.derivative(pts, gamma)).max()
            assert sampled <= bounds[gi, 0] * (1 + 1e-12)

    def test_top_order_bound_is_scale_free(self):
        # order-m bounds depend on theta but not on the cell size
        n, m = 2, 2
        idx = multiindices_upto(n, m)
        prof = CutoffProfile(m, 0.5)
        coeffs = np.zeros((1, len(idx)))
        for a in (
            (0, 2),
            (1, 1),
            (2, 0),
        ):
            coeffs[0, idx.index(a)] = 1.0
        b_small = cell_derivative_bounds(prof, n, m, coeffs, 1e-4)
        b_large = cell_derivative_bounds(prof, n, m, coeffs, 10.0)
        for gi, gamma in enumerate(idx):
            if sum(gamma) == m:
                assert b_small[gi, 0] == pytest.approx(b_large[gi, 0], rel=1e-12)

    def test_bound_constant_caps_unit_fields(self):
        # with all top coefficients of size 1 the order-m bounds stay below
        # the reported profile constant
        n, m = 2, 1
        idx = multiindices_upto(n, m)
        prof = CutoffProfile(m, 0.5)
        coeffs = np.zeros((1, len(idx)))
        coeffs[0, idx.index((0, 1))] = 1.0
        coeffs[0, idx.index((1, 0))] = -1.0
        bounds = cell_derivative_bounds(prof, n, m, coeffs, 0.25)
        top = max(bounds[idx.index(a), 0] for a in ((0, 1), (1, 0)))
        assert top <= prof.bound_constant(n)


@pytest.mark.parametrize(
    "module",
    ["lusinkit", "lusinkit.harness", "lusinkit.heisenberg", "lusinkit.lusin"],
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
