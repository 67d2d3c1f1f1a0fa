import ast
import gzip
import importlib
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lusinkit.core import (
    BoxDomain,
    BumpPolySum,
    CutoffProfile,
    LogModulus,
    PiecewiseLinearModulus,
    PowerModulus,
    _POINT_CHUNK,
    _bound_plan,
    _fold_columns,
    _jsonable,
    _uniform_in_box,
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
        for corners in (
            ((0.0, 0.0), (math.inf, math.inf)),
            ((-math.inf, 0.0), (1.0, 1.0)),
            ((0.0, math.nan), (1.0, 1.0)),
        ):
            with pytest.raises(ValueError, match="finite"):
                BoxDomain(*corners)


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


def _reference_log_sup_ratio(delta):
    """LogModulus.sup_ratio before it ran in one pass, kept verbatim as an
    oracle: it gathers the entries below 1/e and scatters their ratios."""
    arr = np.asarray(delta, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("delta must be positive")
    out = np.full(arr.shape, math.e)
    small = arr < INV_E
    t = arr[small]
    with np.errstate(over="ignore"):
        inv = 1.0 / t
    out[small] = np.where(np.isinf(inv), math.inf, 1.0 / (t * np.log(inv)))
    if np.isscalar(delta) or getattr(delta, "ndim", 1) == 0:
        return float(out)
    return out


class TestLogSupRatioOracle:
    """The one-pass sup_ratio must give the reference's bits everywhere."""

    EDGES = [
        INV_E,
        np.nextafter(INV_E, 0.0),
        np.nextafter(INV_E, 1.0),
        5e-324,
        1e-300,
        5.6e-309,
        1.0,
        math.e,
        1e308,
        math.nan,
        math.inf,
    ]

    def _deltas(self):
        rng = np.random.default_rng(3)
        return np.concatenate([self.EDGES, 10.0 ** rng.uniform(-320, 3, size=2000)])

    def test_arrays_equal_reference_bit_for_bit(self):
        d = self._deltas()
        mu = LogModulus()
        for arr in (d, d[:2010].reshape(201, 10), d[:2010].reshape(10, 201).T, d[::3]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mu.sup_ratio(arr)
            want = _reference_log_sup_ratio(arr)
            assert got.shape == arr.shape
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(d).any() and (mu.sup_ratio(d)[np.isnan(d)] == math.e).all()

    def test_scalars_equal_reference_and_are_floats(self):
        mu = LogModulus()
        for v in self.EDGES + [0.25, 1e-3]:
            for delta in (v, np.float64(v), np.array(v)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = mu.sup_ratio(delta)
                want = _reference_log_sup_ratio(delta)
                assert type(got) is float
                bits = np.array([got, want]).view(np.uint64)
                assert bits[0] == bits[1]

    @pytest.mark.parametrize("bad", [0.0, -1.0, [0.5, 0.0], [[1e-3], [-math.inf]]])
    def test_refuses_non_positive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            LogModulus().sup_ratio(bad)


class TestPowerModulus:
    def test_values_and_sup_ratio(self):
        mu = PowerModulus(0.5)
        assert mu(0.25) == pytest.approx(0.5)
        # beta = 1 is plain t
        lin = PowerModulus(1.0)
        assert lin.sup_ratio(1e-9) == pytest.approx(1.0)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearModulus(((0.1, 0.0), (1.0, 0.5)))
        with pytest.raises(ValueError):
            PiecewiseLinearModulus(((0.0, 0.0), (0.5, 0.4), (0.5, 0.6)))
        with pytest.raises(ValueError):
            PiecewiseLinearModulus(((0.0, 0.0), (0.5, 0.4), (1.0, 0.3)))
        for knots in (
            ((0.0, 0.0), (1.0, math.nan)),
            ((0.0, 0.0), (math.inf, 1.0)),
            ((0.0, 0.0), (1.0, 0.5), (2.0, math.inf)),
        ):
            with pytest.raises(ValueError, match="finite"):
                PiecewiseLinearModulus(knots)
        for knots in (((0.0, 0.0), (1.0,)), ((0.0, 0.0, 1.0),)):
            with pytest.raises(ValueError, match="pairs"):
                PiecewiseLinearModulus(knots)

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


def _reference_profile_derivatives(profile, s, kmax):
    """The mask-writing body that profile_derivatives replaced, kept verbatim
    as an oracle: numpy.polynomial.polyval over the band points."""
    from numpy.polynomial import polynomial as npoly

    s = np.asarray(s, float)
    out = np.zeros((kmax + 1,) + s.shape)
    out[0][s <= 1.0 - profile.theta] = 1.0
    band = (s > 1.0 - profile.theta) & (s < 1.0)
    if np.any(band):
        u = (s[band] - (1.0 - profile.theta)) / profile.theta
        out[0][band] = 1.0 - npoly.polyval(u, profile._step_coeffs)
        for k in range(1, kmax + 1):
            out[k][band] = -npoly.polyval(u, profile._step_derivs[k]) / profile.theta**k
    return out


class TestProfileOracle:
    """profile_derivatives must equal the polyval reference bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("theta", [0.125, 0.3, 0.5])
    def test_equals_reference_bit_for_bit(self, m, theta):
        prof = CutoffProfile(m, theta)
        rng = np.random.default_rng(m)
        # both joins, exactly and one ulp either side
        joins = np.array([1.0 - theta, 1.0])
        s = np.concatenate(
            [
                rng.uniform(0.0, 1.0 - theta, 100),
                rng.uniform(1.0 - theta, 1.0, 1000),
                joins,
                np.nextafter(joins, -np.inf),
                np.nextafter(joins, np.inf),
                rng.uniform(1.0, 3.0, 100),
                [0.0, np.nan, np.inf, -np.inf],
            ]
        )
        for k in range(m + 1):
            want = _reference_profile_derivatives(prof, s, k)
            got = prof.profile_derivatives(s, k)
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        grid = s[:1100].reshape(20, 55)
        want = _reference_profile_derivatives(prof, grid, m)
        npt.assert_array_equal(prof.profile_derivatives(grid, m), want)
        # a scalar gives the (m + 1,) column of a one-point array
        for x in (0.0, 1.0 - theta / 2.0, 2.0):
            want = prof.profile_derivatives(np.array([x]), m)[:, 0]
            npt.assert_array_equal(prof.profile_derivatives(x, m), want)


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
        g = BumpPolySum(2, 2).with_block(low[None, :], 0.5, 0.4, 1, coeffs)
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
        lows1, 1.0, 0.5, 1, rng.normal(size=(3, len(idx)))
    )
    return g.with_block(lows2, 0.5, 0.4, 2, rng.normal(size=(2, len(idx))))


def _stage_sum(g, stages):
    """The sub-sum of g's blocks of the given stages, in g's order."""
    return BumpPolySum(g.dimension, g.order, [b for b in g.blocks if b.stage in stages])


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
            one, two = (_stage_sum(g, {k}) for k in (1, 2))
            parts = one.derivative(pts, gamma) + two.derivative(pts, gamma)
            npt.assert_allclose(parts, tot, rtol=0, atol=1e-12)

    def test_plateau_center_value(self):
        rng = np.random.default_rng(9)
        g = _random_sum(rng)
        blk = g.blocks[0]
        center = blk.lows[1] + blk.half_width
        idx = list(g.multiindices)
        got = _stage_sum(g, {1}).derivative(center, (0, 0))
        assert got == pytest.approx(blk.coeffs[1, idx.index((0, 0))], rel=1e-14)

    def test_vanishes_off_support(self):
        rng = np.random.default_rng(10)
        g = _random_sum(rng)
        assert g.derivative(np.array([9.0, 9.0])) == 0.0
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
                lows, 1.0, 0.5, 1, np.zeros((2, len(idx)))
            )

    def test_stage_below_one_rejected(self):
        with pytest.raises(ValueError, match="numbered from 1"):
            BumpPolySum(2, 1).with_block([[0.0, 0.0]], 1.0, 0.5, 0, [[1.0, 0.0, 0.0]])

    def test_off_lattice_corner_rejected(self):
        coeffs = [[1.0, 0.0, 0.0]] * 2
        # 0.3 lies 1.2 steps of 0.25 from the other cell's corner
        with pytest.raises(ValueError, match="lattice"):
            BumpPolySum(2, 1).with_block(
                [[0.0, 0.0], [0.3, 0.3]], 0.25, 0.5, 1, coeffs
            )
        # rounding noise far below the tolerance is accepted
        g = BumpPolySum(2, 1).with_block(
            [[0.0, 0.0], [0.25 + 1e-12, 0.5]], 0.25, 0.5, 1, coeffs
        )
        assert g.derivative(np.array([0.375, 0.625])) == 1.0


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
        corner + 0.125 * idx, 0.125, 0.5, 1, coeffs
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
                pts, rows = blk.locate(x.T)
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
            sub = _stage_sum(g, stages)
            want = np.stack([sub.derivative(pts, gm) for gm in gammas], axis=1)
            npt.assert_array_equal(sub.jet(pts, gammas), want)
        assert np.all(_stage_sum(g, set()).jet(pts, gammas) == 0.0)

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
        # points and grid rows of another dimension
        n, gammas = g.dimension, [(0,) * g.dimension]
        for bad in (pts[:5, :1], np.ones((5, n + 1)), np.ones(n), np.ones((2, 5, n))):
            with pytest.raises(ValueError, match="dimension"):
                g.jet(bad, gammas)
        for bad in (np.ones(n + 1), np.ones((5, n + 1))):
            with pytest.raises(ValueError, match="dimension"):
                g.derivative(bad)
        row = np.ones((3, 5))
        for rows in (
            [row] * (n + 1),
            [row] * (n - 1),
            [row] * (n - 1) + [np.ones((3, 4))],
            [np.ones(5)] * n,
        ):
            with pytest.raises(ValueError, match="dimension"):
                g.grid_jet(rows, gammas)

    def test_empty_shapes(self, case):
        g, pts = case
        gammas = list(g.multiindices)
        none = np.zeros((0, g.dimension))
        for x, gm, shape in (
            (none, [], (0, 0)),
            (none, gammas, (0, len(gammas))),
            (pts, [], (pts.shape[0], 0)),
        ):
            out = g.jet(x, gm)
            assert out.shape == shape
            assert out.dtype == np.float64


def _reference_add_jet(blk, x, gammas, out):
    """The row-major kernel that the column kernel replaced, kept verbatim as
    an oracle: it gathers every coefficient column and seeds each product
    and sum with np.full and np.zeros."""
    pts, rows = blk.locate(x.T)
    if pts.size == 0:
        return
    _, _, poly_terms, leibniz = _bound_plan(blk.n, blk.profile.order)
    hw = blk.half_width
    centers = blk.lows[rows] + hw
    dx = x[pts] - centers
    fac = []
    for i in range(blk.n):
        k_i = max((gamma[i] for gamma in gammas), default=0)
        s = np.abs(dx[:, i]) / hw
        tab = blk.profile.profile_derivatives(s, k_i)
        axis = [tab[0]]
        if k_i:
            sgn = np.sign(dx[:, i])
            for k in range(1, k_i + 1):
                axis.append(tab[k] * sgn**k / hw**k)
        fac.append(axis)
    crows = blk.coeffs[rows]
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


class TestKernelOracle:
    """The column kernel, which reads live coefficient columns only, must
    equal the row-major reference bit for bit."""

    @staticmethod
    def _sum_and_points(n, m, rng):
        idx = multiindices_upto(n, m)
        low = [j for j, a in enumerate(idx) if sum(a) < m]
        g = BumpPolySum(n, m)
        probes = []
        # every column live, then top-order columns only, on another lattice
        for stage, (side, theta, only_top) in enumerate(
            [(0.5, 0.5, False), (0.25, 0.3, True)], start=1
        ):
            keys = rng.choice(4**n, size=min(6, 4**n), replace=False)
            lows = np.stack(np.unravel_index(keys, (4,) * n), axis=1) * side
            coeffs = rng.normal(size=(len(keys), len(idx)))
            if only_top:
                coeffs[:, low] = 0.0
            g = g.with_block(lows, side, theta, stage, coeffs)
            hw = side / 2.0
            centers = np.repeat(lows + hw, 40, axis=0)
            # on the plateau, then in the descent band along one axis
            plateau = (1.0 - theta) * hw
            on = centers + rng.uniform(-plateau, plateau, size=centers.shape)
            band = on.copy()
            axis = rng.integers(n, size=centers.shape[0])
            depth = rng.uniform(plateau, hw, size=centers.shape[0])
            sign = rng.choice([-1.0, 1.0], size=centers.shape[0])
            band[np.arange(centers.shape[0]), axis] = (
                centers[np.arange(centers.shape[0]), axis] + sign * depth
            )
            probes += [on, band]
            # exact centres (dx = 0), plateau joins (s = 1 - theta) and cell
            # faces (s = 1), along the first axis and along every axis
            for reach in (0.0, plateau, hw):
                for sign in (-1.0, 1.0):
                    first = lows + hw
                    first[:, 0] += sign * reach
                    probes += [first, lows + hw + sign * reach]
        outside = rng.uniform(3.0, 5.0, size=(50, n)) * rng.choice([-1.0, 1.0], n)
        nonfinite = np.full((3, n), 0.3)
        nonfinite[:, 0] = [np.nan, np.inf, -np.inf]
        pts = np.concatenate(probes + [outside, nonfinite])
        return g, pts

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_reference_bit_for_bit(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        g, pts = self._sum_and_points(n, m, rng)
        gammas = list(g.multiindices)
        # the probes once, then tiled until the first block locates two
        # point chunks and a remainder, so chunk edges fall among them
        inside = g.blocks[0].locate(pts.T)[0].size
        tiled = np.tile(pts, (2 * _POINT_CHUNK // inside + 1, 1))
        located = g.blocks[0].locate(tiled.T)[0].size
        assert 2 * _POINT_CHUNK < located < 3 * _POINT_CHUNK
        for x in (pts, tiled):
            want = np.zeros((x.shape[0], len(gammas)))
            for blk in g.blocks:
                _reference_add_jet(blk, x, gammas, want)
            got = g.jet(x, gammas)
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            # the probes reached plateaus, bands and the empty outside
            assert np.count_nonzero(got[:, 0]) > x.shape[0] // 2
            assert np.all(got[-53:] == 0.0)
        assert g.jet(np.zeros((0, n)), gammas).shape == (0, len(gammas))


class TestGridJet:
    """grid_jet on 3^n stencil rows must equal jet at the same points sent one
    by one, bit for bit: rows inside one cell of a block are evaluated on
    their grid, and rows reaching cell edges straddle cells there and go
    through the point fallback."""

    @staticmethod
    def _sum(n, m, theta, rng):
        # a coarse and a fine block, on lattices whose origins are not dyadic
        idx = multiindices_upto(n, m)
        g = BumpPolySum(n, m)
        for stage, (side, origin) in enumerate([(0.3, 0.1), (0.075, 0.137)], 1):
            keys = rng.choice(4**n, size=min(10, 4**n), replace=False)
            lows = origin + np.stack(np.unravel_index(keys, (4,) * n), axis=1) * side
            coeffs = rng.normal(size=(keys.size, len(idx)))
            g = g.with_block(lows, side, theta, stage, coeffs)
        return g

    @staticmethod
    def _rows(g, theta, rng):
        """Rows c_i + {-r, 0, r} per axis: each block's cells and their 2^n
        children at reach (1 - theta) hw and at reach hw, and random rows."""
        n = g.dimension
        shifts = np.array(list(itertools.product((0, 1), repeat=n)))
        centers, reach = [rng.uniform(0.0, 1.4, size=(50, n))], [
            rng.uniform(0.01, 0.2, size=50)
        ]
        for blk in g.blocks:
            h = blk.spacing
            kids = (blk.lows[:, None, :] + h / 2 * shifts[None]).reshape(-1, n)
            for lows, hw in ((blk.lows, h / 2), (kids, h / 4)):
                for r in ((1.0 - theta) * hw, hw):
                    centers.append(lows + hw)
                    reach.append(np.full(lows.shape[0], r))
        centers, reach = np.concatenate(centers), np.concatenate(reach)
        unit = np.array([-1.0, 0.0, 1.0])
        return [centers[:, i] + unit[:, None] * reach for i in range(n)]

    @pytest.mark.parametrize("theta", [0.125, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_single_points_bit_for_bit(self, n, m, theta):
        rng = np.random.default_rng(1000 * n + 100 * m + round(10 * theta))
        g = self._sum(n, m, theta, rng)
        rows = self._rows(g, theta, rng)
        P = rows[0].shape[1]
        # the grid points, grid-major as in grid_jet's output
        ref = np.indices((3,) * n).reshape(n, -1)
        pts = np.stack([rows[i][ref[i]].reshape(-1) for i in range(n)], axis=1)
        gammas = list(g.multiindices)
        for stages in (None, {1}, {2}, set()):
            sub = g if stages is None else _stage_sum(g, stages)
            got = sub.grid_jet(rows, gammas)
            assert got.shape == (len(gammas),) + (3,) * n + (P,)
            want = sub.jet(pts, gammas).T.reshape(got.shape)
            npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
            if stages is None:
                assert np.count_nonzero(got) > got.size // 4
        # each block holds rows on one cell's grid and rows straddling cells
        for blk in g.blocks:
            at, rows_in = blk.locate(pts.T)
            cells = np.full(pts.shape[0], -1)
            cells[at] = rows_in
            cells = cells.reshape(3**n, P)
            one = np.all(cells == cells[:1], axis=0)
            assert np.any(one & (cells[0] >= 0))
            assert np.any(~one)


class TestDraws:
    """The fast draws must give numpy's own bits and leave the generator
    where numpy's leaves it, so every later draw lines up too."""

    LOWER = (-2.5, 0.0, 1e3)
    UPPER = (-1.25, 1.0, 1e3 + 0.7)

    @staticmethod
    def _same(got, want, a, b):
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 3, 100_000])
    def test_uniform_in_box_is_rng_uniform(self, n, count):
        lo, hi = np.array(self.LOWER[:n]), np.array(self.UPPER[:n])
        a, b = np.random.default_rng(count + n), np.random.default_rng(count + n)
        got = _uniform_in_box(a, lo, hi, count)
        self._same(got, b.uniform(lo, hi, size=(count, n)), a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 3, 100_000])
    def test_per_row_bounds(self, n, count):
        # the shrunken box of the stratified pair sampler's leftover fill
        lo, hi = np.array(self.LOWER[:n]), np.array(self.UPPER[:n])
        d = np.random.default_rng(7).uniform(0.0, 0.2, count)
        a, b = np.random.default_rng(count + n), np.random.default_rng(count + n)
        got = _uniform_in_box(a, [x + d for x in lo], [x - d for x in hi], count)
        self._same(got, b.uniform(lo + d[:, None], hi - d[:, None]), a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 3, 100_000])
    def test_standard_normal_is_normal(self, n, count):
        a, b = np.random.default_rng(count + n), np.random.default_rng(count + n)
        got = a.standard_normal((count, n))
        self._same(got, b.normal(size=(count, n)), a, b)


class TestFoldColumns:
    """Column folds must equal numpy's own reductions over the last axis."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("shape", [(), (40,), (0,), (4, 5)], ids=str)
    def test_equals_axis_reductions(self, n, shape):
        rng = np.random.default_rng(n + len(shape))
        a = rng.normal(size=shape + (n,))
        if a.size:
            flat = a.reshape(-1, n)
            flat[0, 0] = np.nan
            flat[-1, -1] = np.inf
            flat[len(flat) // 2, 0] = -np.inf
        npt.assert_array_equal(_fold_columns(np.maximum, a), a.max(axis=-1))
        got = _fold_columns(np.add, a * a)
        want = np.add.reduce(a * a, axis=-1)
        assert np.array_equal(
            np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64)
        )
        lit = a > 0.0
        npt.assert_array_equal(
            _fold_columns(np.logical_and, lit), np.all(lit, axis=-1)
        )
        assert np.shape(_fold_columns(np.maximum, a)) == shape
        # a sequence of the columns, written to out, gives the same bits
        for ufunc, arr in ((np.maximum, a), (np.add, a * a)):
            cols = [arr[..., k].copy() for k in range(n)]
            out = np.full(shape, 7.0)
            _fold_columns(ufunc, cols, out)
            want = np.asarray(_fold_columns(ufunc, arr))
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
            npt.assert_array_equal(cols[0], arr[..., 0])

    @pytest.mark.parametrize("n", [1, 3])
    def test_box_contains(self, n):
        rng = np.random.default_rng(n)
        dom = BoxDomain((0.0,) * n, tuple(float(v) for v in range(1, n + 1)))
        lo, hi = np.zeros(n), np.arange(1.0, n + 1.0)
        for shape in [(n,), (200, n), (6, 7, n), (0, n)]:
            x = rng.uniform(-0.5, n + 0.5, size=shape)
            if x.ndim > 1 and x.shape[0]:
                x[0, 0] = np.nan
                x[1, -1] = np.inf
                x[2, 0] = -np.inf
            want = np.all((x >= lo) & (x <= hi), axis=-1)
            got = dom.contains(x)
            assert np.shape(got) == np.shape(want)
            npt.assert_array_equal(got, want)
        assert dom.contains(hi) and not dom.contains(hi + 1e-9)


def _reference_jsonable(v):
    """The per-element walk as an oracle: an array walks its tolist(), entry
    by entry, and a 0-d array's tolist() is its scalar."""
    if isinstance(v, np.ndarray):
        return _reference_jsonable(v.tolist())
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, dict):
        return {str(k): _reference_jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_reference_jsonable(x) for x in v]
    return v


class TestJsonable:
    """Arrays of every rank, dtype and size give the per-element walk's
    strict JSON; a 0-d array gives its scalar rather than raising."""

    @pytest.mark.parametrize(
        "value",
        [
            np.random.default_rng(0).normal(size=(50, 4)),
            np.array([[0.5, np.inf], [-np.inf, np.nan]]),
            np.array([1.0, -0.0, np.nan], np.float32),
            np.arange(-6, 6).reshape(3, 4),
            np.arange(5, dtype=np.int32),
            np.array([True, False]),
            np.array(2.5),
            np.array(-np.inf),
            np.array(7),
            np.zeros(0),
            np.zeros((0, 4)),
            np.zeros((3, 0), np.int64),
            {"boxes": [np.ones((2, 2)), np.array([np.nan])], "t": (np.float64(1.5), 3)},
        ],
        ids=[
            "finite",
            "nonfinite",
            "float32",
            "int64",
            "int32",
            "bool",
            "0d",
            "0d-inf",
            "0d-int",
            "empty",
            "no-rows",
            "no-columns",
            "nested",
        ],
    )
    def test_equals_per_element_walk(self, value):
        got = json.dumps(_jsonable(value), allow_nan=False)
        assert got == json.dumps(_reference_jsonable(value), allow_nan=False)


def _top_rows(n, m):
    """Columns of the order-m indices in multiindices_upto(n, m)."""
    return [j for j, a in enumerate(multiindices_upto(n, m)) if sum(a) == m]


class TestCellBounds:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bounds_dominate_dense_sampling(self, n, m):
        rng = np.random.default_rng(12)
        idx = multiindices_upto(n, m)
        top = _top_rows(n, m)
        coeffs = np.zeros((1, len(idx)))
        coeffs[0, top] = rng.normal(size=len(top))
        prof = CutoffProfile(m, 0.5)
        g = BumpPolySum(n, m).with_block(np.zeros((1, n)), 1.0, 0.5, 1, coeffs)
        bounds = cell_derivative_bounds(prof, n, np.abs(coeffs[:, top]).T, 0.5)
        xs = np.linspace(0.0, 1.0, 141 if n == 2 else 2001)
        pts = np.stack([a.ravel() for a in np.meshgrid(*(xs,) * n)], axis=1)
        for gi, gamma in enumerate(idx):
            sampled = np.abs(g.derivative(pts, gamma)).max()
            assert sampled <= bounds[gi, 0] * (1 + 1e-12)

    def test_top_order_bound_is_scale_free(self):
        # order-m bounds depend on theta but not on the cell size
        n, m = 2, 2
        idx = multiindices_upto(n, m)
        prof = CutoffProfile(m, 0.5)
        top = np.ones((len(_top_rows(n, m)), 1))
        b_small = cell_derivative_bounds(prof, n, top, 1e-4)
        b_large = cell_derivative_bounds(prof, n, top, 10.0)
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
        top = _top_rows(n, m)
        bounds = cell_derivative_bounds(prof, n, np.abs(coeffs[:, top]).T, 0.25)
        assert bounds[top, 0].max() <= prof.bound_constant(n)

    @pytest.mark.parametrize("shape", [(2,), (1, 5), (3, 5), (2, 5, 1), ()])
    def test_top_of_wrong_shape_rejected(self, shape):
        # n = 2, m = 1 has two order-1 indices, so top must be (2, N)
        with pytest.raises(ValueError, match=r"top must have shape \(2, N\)"):
            cell_derivative_bounds(CutoffProfile(1, 0.5), 2, np.ones(shape), 0.5)


def _reference_cell_derivative_bounds(profile, n, m, coeffs, half_width):
    """The cell bound routine that the live-column one replaced, kept
    verbatim as an oracle: it sums every coefficient column, each sum
    seeded with np.zeros."""
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


class TestCellBoundsOracle:
    """Bounds from the top-order rows alone must equal the all-column
    reference on the zero-padded coefficients bit for bit."""

    @staticmethod
    def _coeff_sets(n, m, rng):
        idx = multiindices_upto(n, m)
        top = _top_rows(n, m)
        full = rng.normal(size=(40, len(idx)))
        # rows of zeros, of negative zeros, and of non-finite entries
        full[5] = 0.0
        full[6] = -0.0
        full[7, 0] = np.nan
        full[8, -1] = np.inf
        only_top = np.zeros_like(full)
        only_top[:, top] = full[:, top]
        one = np.zeros_like(full)
        one[:, top[-1]] = full[:, top[-1]]
        return {"top": only_top, "one": one, "zero": np.zeros((9, len(idx)))}

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_reference_bit_for_bit(self, n, m, order):
        rng = np.random.default_rng(10 * n + m)
        prof = CutoffProfile(m, 0.5)
        top = _top_rows(n, m)
        for name, coeffs in self._coeff_sets(n, m, rng).items():
            coeffs = np.asarray(coeffs, order=order)
            # the last three make some factors non-finite; as a numpy scalar,
            # 1e-120 drives (theta h)^3 to zero instead of raising
            for hw in (0.25, 3.0, np.inf, np.nan, np.float64(1e-120)):
                with np.errstate(all="ignore"):
                    want = _reference_cell_derivative_bounds(prof, n, m, coeffs, hw)
                    got = cell_derivative_bounds(
                        prof, n, np.abs(coeffs[:, top]).T, hw
                    )
                assert got.shape == want.shape, name
                npt.assert_array_equal(
                    got.view(np.uint64), want.view(np.uint64), err_msg=name
                )


@pytest.mark.parametrize(
    "module",
    [
        "lusinkit",
        "lusinkit.group",
        "lusinkit.harness",
        "lusinkit.heisenberg",
        "lusinkit.lusin",
    ],
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lusinkit").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    # a name is used if the module loads it anywhere or lists it in __all__
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "lusinkit").glob("*.py")), ids=lambda p: p.name
)
def test_private_names_come_only_from_core(path):
    # core's private helpers are shared; any other module's stay its own
    tree = ast.parse(path.read_text())
    leaks = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "core"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert leaks == []
