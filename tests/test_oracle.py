"""Tests for the quadrature densities, entropy checks, and variational probes."""

import json
import math

import numpy as np
import pytest

from eeikit import (
    BadMu,
    EEIInstance,
    GridDensity,
    GridTooCoarse,
    InconsistentDensity,
    InvalidParameter,
    UnnormalizedDensity,
    check_eei,
    check_epi,
    check_worst_noise,
    convolve_density,
    entropy_quadrature,
    gaussian_search,
    variational_first_residual,
    variational_second_form,
)
from eeikit.oracle import (
    _FY_RESOLVED,
    _LOG_FLOOR,
    _SQUARE_FLOOR,
    _capped_scales,
    _halved_ends,
    _interp_density,
    _resample,
    _subsample,
    _trial_directions,
    convolve_pair,
)

# Entropy references computed with adaptive quadrature (scipy.integrate.quad)
# on the closed-form densities, frozen here so the grid code is tested against
# an independent integration route.
H_STD_NORMAL = 1.4189385332046727
H_NORMAL_VAR2 = 1.7655121234846454
H_MIXTURE = 2.0516587269415547  # 0.5 N(-2,1) + 0.5 N(2,1)
H_UNIFORM_PLUS_N025 = 0.8695024788553822  # U[0,1] noise var 0.25
H_MIXTURE_PLUS_N1 = 2.2655842595514906


class TestGridDensity:
    def test_gaussian_moments_and_mass(self):
        d = GridDensity.gaussian(2.0, mean=-1.0)
        assert np.trapezoid(d.values, dx=d.step) == pytest.approx(1.0, abs=1e-9)
        assert d.mean() == pytest.approx(-1.0, abs=1e-9)
        assert d.variance() == pytest.approx(2.0, rel=1e-6)

    def test_uniform_grid_hits_endpoints(self):
        d = GridDensity.uniform(0.25, 1.75)
        assert d.grid[0] == pytest.approx(0.25)
        assert d.grid[-1] == pytest.approx(1.75)
        assert d.values.max() == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert d.variance() == pytest.approx(1.5**2 / 12.0, rel=1e-6)

    def test_mixture_moments(self):
        d = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0)
        assert d.mean() == pytest.approx(0.0, abs=1e-9)
        assert d.variance() == pytest.approx(5.0, rel=1e-6)

    def test_from_callable_normalizes(self):
        d = GridDensity.from_callable(lambda x: np.exp(-x), 0.0, 3.0, points=1001)
        assert np.trapezoid(d.values, dx=d.step) == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(UnnormalizedDensity):
            GridDensity(0.0, 1.0, np.full(11, 3.0))
        with pytest.raises(UnnormalizedDensity):
            GridDensity.from_callable(lambda x: np.exp(-x), 0.0, 3.0, normalize=False)

    def test_bad_support_and_values(self):
        with pytest.raises(InvalidParameter):
            GridDensity.uniform(1.0, 1.0)
        with pytest.raises(InvalidParameter):
            GridDensity(0.0, 1.0, np.array([1.0, 1.0]))  # too few nodes
        bad = np.full(11, 1.0)
        bad[3] = -0.5
        with pytest.raises(InvalidParameter):
            GridDensity(0.0, 1.0, bad)


class TestEntropyQuadrature:
    def test_frozen_references(self):
        assert entropy_quadrature(GridDensity.gaussian(1.0)).value == pytest.approx(
            H_STD_NORMAL, abs=1e-9
        )
        assert entropy_quadrature(GridDensity.gaussian(2.0)).value == pytest.approx(
            H_NORMAL_VAR2, abs=1e-9
        )
        mix = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0)
        assert entropy_quadrature(mix).value == pytest.approx(H_MIXTURE, abs=1e-9)

    def test_uniform_is_exact_zero(self):
        assert entropy_quadrature(GridDensity.uniform(0.0, 1.0)).value == 0.0

    def test_error_estimate_nonnegative(self):
        est = entropy_quadrature(GridDensity.mixture(0.3, -1.0, 0.5, 1.5, 2.0))
        assert est.error >= 0.0
        assert est.error < 1e-4

    def test_second_order_convergence_on_truncated_density(self):
        # the support edges introduce jumps, so successive dyadic refinements
        # shrink the error by about 4x per halving of the step
        vals = []
        for pts in (501, 1001, 2001):
            d = GridDensity.from_callable(lambda x: np.exp(-x), 0.0, 3.0, points=pts)
            vals.append(entropy_quadrature(d).value)
        ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert 3.5 <= ratio <= 4.5


def _halved_ends(vals):
    out = vals.copy()
    out[[0, -1]] *= 0.5
    return out


def _direct_gaussian_convolution(d, sigma2):
    """``(lo, hi, values)`` of d plus N(0, sigma2) by the O(N*M) direct sum."""
    m = math.ceil(8.0 * math.sqrt(sigma2) / d.step)
    t = np.arange(-m, m + 1) * d.step
    kernel = np.exp(-0.5 * t**2 / sigma2)
    kernel /= np.trapezoid(kernel, dx=d.step)
    vals = np.convolve(_halved_ends(d.values), _halved_ends(kernel)) * d.step
    return d.support_lo - m * d.step, d.support_hi + m * d.step, vals


def _direct_pair_convolution(d1, d2):
    d2 = _resample(d2, d1.step)
    vals = np.convolve(_halved_ends(d1.values), _halved_ends(d2.values)) * d1.step
    vals /= np.trapezoid(vals, dx=d1.step)
    return d1.support_lo + d2.support_lo, d1.support_hi + d2.support_hi, vals


class TestConvolution:
    @pytest.mark.parametrize("points", [4001, 8001])
    @pytest.mark.parametrize("kind", ["uniform", "mixture", "gaussian", "pair-resampled"])
    def test_matches_direct_trapezoid_sum(self, kind, points):
        if kind == "pair-resampled":
            d1 = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, points)
            d2 = GridDensity.gaussian(0.5, points=3001)
            assert d2.step != d1.step
            out = convolve_pair(d1, d2)
            lo, hi, ref = _direct_pair_convolution(d1, d2)
        else:
            d, sigma2 = {
                "uniform": (GridDensity.uniform(0.0, 1.0, points), 0.25),
                "mixture": (GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, points), 1.0),
                "gaussian": (GridDensity.gaussian(2.0, points=points), 0.5),
            }[kind]
            out = convolve_density(d, sigma2)
            lo, hi, ref = _direct_gaussian_convolution(d, sigma2)
        assert out.points == ref.size
        assert (out.support_lo, out.support_hi) == (lo, hi)
        assert np.min(out.values) >= 0.0
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(ref)
        direct = entropy_quadrature(GridDensity(lo, hi, ref)).value
        assert entropy_quadrature(out).value == pytest.approx(direct, abs=1e-12)

    def test_uniform_plus_gaussian_reference(self):
        out = convolve_density(GridDensity.uniform(0.0, 1.0), 0.25)
        assert entropy_quadrature(out).value == pytest.approx(H_UNIFORM_PLUS_N025, abs=1e-7)

    def test_mixture_plus_gaussian_reference(self):
        mix = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0)
        out = convolve_density(mix, 1.0)
        assert entropy_quadrature(out).value == pytest.approx(H_MIXTURE_PLUS_N1, abs=1e-7)

    def test_mass_mean_variance_propagate(self):
        d = GridDensity.mixture(0.4, -1.0, 0.8, 2.0, 1.5)
        out = convolve_density(d, 0.6)
        assert np.trapezoid(out.values, dx=out.step) == pytest.approx(1.0, abs=1e-9)
        assert out.mean() == pytest.approx(d.mean(), abs=1e-6)
        assert out.variance() == pytest.approx(d.variance() + 0.6, rel=1e-5)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            convolve_density(GridDensity.uniform(0.0, 1.0, points=5), 0.01)


class TestEpiCheck:
    def test_gaussian_equality(self):
        rep = check_epi(GridDensity.gaussian(1.0), GridDensity.gaussian(3.0))
        assert abs(rep.margin) <= 1e-5
        assert rep.passed

    def test_two_uniforms_strictly_above(self):
        rep = check_epi(GridDensity.uniform(0.0, 1.0), GridDensity.uniform(-1.0, 1.0))
        assert rep.margin > 1e-3
        assert rep.check == "epi"

    def test_margin_matches_sides(self):
        rep = check_epi(GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0), GridDensity.gaussian(1.0))
        assert rep.margin == pytest.approx(rep.lhs - rep.rhs, abs=1e-15)
        assert rep.margin > 0.0


class TestWorstNoiseCheck:
    def test_gaussian_equality(self):
        rep = check_worst_noise(GridDensity.gaussian(1.0), 0.5, 0.5)
        assert abs(rep.margin) <= 1e-5

    def test_uniform_above(self):
        rep = check_worst_noise(GridDensity.uniform(0.0, 2.0), 0.7, 0.4)
        assert rep.margin >= -1e-4
        assert rep.passed


class TestEeiCheck:
    def test_single_noise_gaussian_equality(self):
        # with r = 1, w = 1, mu = 2 the constructed optimum keeps variance 1
        rep = check_eei(GridDensity.gaussian(1.0), 2.0, 1.0, 1.0)
        assert abs(rep.margin) <= 1e-4

    def test_two_noise_gaussian_equality(self):
        rep = check_eei(GridDensity.gaussian(2.0), 2.0, 1.0, 10.0, s2_v=4.0)
        assert abs(rep.margin) <= 1e-4

    def test_uniform_below_optimum(self):
        rep = check_eei(GridDensity.uniform(0.0, 1.0), 2.0, 1.0, 1.0)
        assert rep.margin > 0.0
        assert rep.passed

    def test_mixture_below_optimum_two_noise(self):
        mix = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0)
        rep = check_eei(mix, 2.0, 1.0, 10.0, s2_v=4.0)
        assert rep.margin > 0.0
        assert rep.rhs == pytest.approx(-2.661391858098673, abs=1e-9)

    def test_variance_budget_enforced(self):
        with pytest.raises(InvalidParameter):
            check_eei(GridDensity.uniform(0.0, 4.0), 2.0, 1.0, 0.5)

    def test_variance_budget_is_relative(self):
        # five times a tiny budget must be rejected, not absorbed by a fixed slack;
        # the tiny noise keeps the convolution grid small should the check pass
        with pytest.raises(InvalidParameter, match="exceeds the budget"):
            check_eei(GridDensity.gaussian(5e-10), 2.0, 1e-9, 1e-10)


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_eei(GridDensity.uniform(0.0, 1.0), 2.0, 1.0, 1.0),
        lambda: check_eei(GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0), 2.0, 1.0, 10.0, s2_v=4.0),
        lambda: check_epi(GridDensity.uniform(0.0, 1.0), GridDensity.gaussian(1.0)),
        lambda: check_worst_noise(GridDensity.uniform(0.0, 2.0), 0.7, 0.4),
    ],
    ids=["eei-single-noise", "eei-two-noise", "epi", "worst-noise"],
)
def test_check_reports_quadrature_budget(run):
    rep = run()
    assert math.isfinite(rep.params["quad_error"]) and rep.params["quad_error"] >= 0.0
    assert math.isfinite(rep.params["step"]) and rep.params["step"] > 0.0


def test_eei_quadrature_budget_weights_second_entropy_by_mu():
    d, mu = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0), 2.0
    rep = check_eei(d, mu, 1.0, 10.0, s2_v=4.0)
    err_w = entropy_quadrature(convolve_density(d, 1.0)).error
    err_v = entropy_quadrature(convolve_density(d, 4.0)).error
    assert rep.params["quad_error"] == err_w + mu * err_v
    assert rep.params["step"] == d.step


def _matrix_instance():
    return EEIInstance(
        2.5,
        np.array([[1.0, 0.3], [0.3, 2.0]]),
        np.array([[4.0, 0.5], [0.5, 3.0]]),
        np.array([[2.0, 0.0], [0.0, 2.5]]),
    )


class TestGaussianSearch:
    def test_deterministic_given_seed(self):
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        a = gaussian_search(inst, 500, 7).as_dict()
        b = gaussian_search(inst, 500, 7).as_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_never_beats_optimum_scalar(self):
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        rep = gaussian_search(inst, 2000, 11)
        assert rep.margin >= -1e-6
        assert rep.margin <= 1e-3  # the sampler does get close
        assert 0 <= rep.params["best_trial"] < 2000

    def test_never_beats_optimum_matrix(self):
        inst = _matrix_instance()
        rep = gaussian_search(inst, 1500, 13)
        assert rep.margin >= -1e-6
        assert rep.params["n"] == 2

    def test_single_noise_route(self):
        rep = gaussian_search(EEIInstance.from_scalars(2.0, 1.0, 2.0), 500, 5)
        assert rep.margin >= -1e-6

    def test_degenerate_constraint(self):
        rep = gaussian_search(EEIInstance.from_scalars(2.0, 1.0, 1e-8, 4.0), 200, 5)
        assert abs(rep.margin) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trials_partition_reproduces_samples(self, n):
        g, frac = _trial_directions(17, 0, 301, n)
        cuts = [0, 37, 230, 301]
        parts = [_trial_directions(17, a, b - a, n) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), g)
        np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), frac)

    def test_chunks_match_one_pass(self, monkeypatch):
        inst = _matrix_instance()
        chunked = gaussian_search(inst, 1500, 13)
        monkeypatch.setattr("eeikit.oracle._SEARCH_CHUNK", 1500)
        whole = gaussian_search(inst, 1500, 13)
        assert chunked.params["best_trial"] == whole.params["best_trial"]
        assert chunked.lhs == whole.lhs
        assert chunked.params["clipped"] == whole.params["clipped"]

    def test_scale_cap_is_exact(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((3, 3))
        r = f @ f.T + 0.5 * np.eye(3)
        g, frac = _trial_directions(23, 0, 200, 3)
        mats = g @ g.transpose(0, 2, 1)
        scales, capped = _capped_scales(mats, frac, r)
        assert 0 < np.count_nonzero(capped) < 200
        l_inv = np.linalg.inv(np.linalg.cholesky(r))
        want = frac * np.trace(r) / np.trace(mats, axis1=1, axis2=2)
        for a, s, top, hit in zip(mats, scales, want, capped):
            lo, hi = 0.0, top
            for _ in range(60):  # largest s <= top with R - s A PSD
                mid = 0.5 * (lo + hi)
                if np.linalg.eigvalsh(r - mid * a)[0] >= 0.0:
                    lo = mid
                else:
                    hi = mid
            assert s == pytest.approx(lo, rel=1e-9)
            if hit:
                assert np.linalg.eigvalsh(l_inv @ (s * a) @ l_inv.T)[-1] == pytest.approx(
                    1.0, abs=1e-12
                )
            else:
                assert s == top

    def test_clipped_counts_draws_outside_band(self):
        inst = _matrix_instance()
        g, frac = _trial_directions(13, 0, 1500, 2)
        mats = g @ g.transpose(0, 2, 1)
        want = frac * np.trace(inst.r) / np.trace(mats, axis1=1, axis2=2)
        outside = np.linalg.eigvalsh(inst.r - want[:, None, None] * mats)[:, 0] < 0.0
        assert gaussian_search(inst, 1500, 13).params["clipped"] == np.count_nonzero(outside)
        scalar = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        assert gaussian_search(scalar, 500, 7).params["clipped"] == 0

    def test_box_muller_moments(self):
        z = _trial_directions(29, 0, 25_000, 2)[0].ravel()
        assert z.size == 100_000
        se = 1.0 / math.sqrt(z.size)
        assert abs(z.mean()) <= 5.0 * se
        assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0) * se


class TestVariationalFirstResidual:
    def test_gaussian_triple_is_stationary(self):
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        fy = convolve_pair(fx, fv)
        assert variational_first_residual(fx, fy, fv, 2.0) <= 1e-3

    def test_floor_is_not_set_by_fft_rounding(self):
        # fy's far tails are FFT rounding, about 1e-16 of its peak; a fit
        # that took their logarithm read 9.2e-8 here, where the direct-sum
        # convolution reads 3.6e-10.
        fx = GridDensity.gaussian(0.8)
        fv = GridDensity.gaussian(0.8)
        fy = convolve_pair(fx, fv)
        assert variational_first_residual(fx, fy, fv, 3.0) <= 1e-9

    def test_non_gaussian_candidate_is_not(self):
        fv = GridDensity.gaussian(0.5)
        fx_good = GridDensity.gaussian(1.0)
        fx_bad = GridDensity.uniform(-math.sqrt(3.0), math.sqrt(3.0))
        good = variational_first_residual(fx_good, convolve_pair(fx_good, fv), fv, 2.0)
        bad = variational_first_residual(fx_bad, convolve_pair(fx_bad, fv), fv, 2.0)
        assert bad >= 100.0 * good

    def test_inconsistent_output_density_rejected(self):
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        with pytest.raises(InconsistentDensity):
            variational_first_residual(fx, GridDensity.gaussian(9.0), fv, 2.0)


class TestVariationalSecondForm:
    @staticmethod
    def _smooth(rng, grid):
        return np.sin(rng.uniform(0.3, 2.0) * grid + rng.normal()) * np.exp(
            -(grid**2) / rng.uniform(2.0, 9.0)
        )

    def test_negative_semidefinite_at_critical_weight(self):
        mu = 2.0
        fx = GridDensity.gaussian(1.5)
        fv = GridDensity.gaussian(0.7)
        fy = convolve_pair(fx, fv)
        rng = np.random.default_rng(17)
        for _ in range(10):
            hx = self._smooth(rng, fx.grid)
            hy = self._smooth(rng, fy.grid)
            assert variational_second_form(fx, fy, fv, mu, hx, hy, 1.0 - mu) <= 1e-10

    def test_unresolved_output_nodes_do_not_swamp_the_form(self):
        # demos/04's pairs: the FFT convolution leaves fy at exactly 0 on
        # hundreds of far-tail nodes, where hy^2 / fy^2 would dominate.
        mu = 2.0
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        fy = convolve_pair(fx, fv)
        rng = np.random.default_rng(21)
        for _ in range(12):
            hx = np.sin(rng.uniform(0.3, 2.0) * fx.grid + rng.normal()) * np.exp(-(fx.grid**2) / 4.0)
            hy = np.cos(rng.uniform(0.3, 2.0) * fy.grid + rng.normal()) * np.exp(-(fy.grid**2) / 4.0)
            val = variational_second_form(fx, fy, fv, mu, hx, hy, 1.0 - mu)
            assert -1e4 <= val <= 1e-10

    def test_positive_above_the_critical_weight(self):
        # alpha1 > 1 turns the hx^2 term positive; with hy = 0 it is all
        # that is left, so the "never positive" check can fail.
        mu = 2.0
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        fy = convolve_pair(fx, fv)
        hx = np.exp(-(fx.grid**2) / 4.0)
        assert variational_second_form(fx, fy, fv, mu, hx, np.zeros(fy.points), 1.5) > 0.1

    def test_null_ray_vanishes(self):
        mu = 3.0
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(1.0)
        fy = convolve_pair(fx, fv)
        val = variational_second_form(fx, fy, fv, mu, 0.37 * fx.values, 0.37 * fy.values, 1.0 - mu)
        assert abs(val) <= 1e-10

    def test_weight_precondition(self):
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(1.0)
        fy = convolve_pair(fx, fv)
        with pytest.raises(InvalidParameter):
            variational_second_form(fx, fy, fv, 2.0, fx.values, fy.values, -1.5)

    def test_grid_shape_enforced(self):
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(1.0)
        fy = convolve_pair(fx, fv)
        with pytest.raises(InvalidParameter):
            variational_second_form(fx, fy, fv, 2.0, np.zeros(7), np.zeros(fy.points), -1.0)


def _direct_nodes(fx, fy, fv):
    """The probes' tensor grid, selected as the direct formulas below read it."""
    sl_x, sl_y = _subsample(fx.points), _subsample(fy.points)
    x, y = fx.grid[sl_x], fy.grid[sl_y]
    dx, dy = x[1] - x[0], y[1] - y[0]
    resolved = fy.values[sl_y] > _FY_RESOLVED * float(np.max(fy.values))
    y, fyv = y[resolved], fy.values[sl_y][resolved]
    fvxy = _interp_density(fv, y[None, :] - x[:, None])
    return sl_x, sl_y, resolved, x, y, fyv, fvxy, dx, dy


def _direct_second_form(fx, fy, fv, mu, hx, hy, alpha1):
    """The second variation as the elementwise integrand summed by wx @ . @ wy."""
    sl_x, sl_y, resolved, x, y, fyv, fvxy, dx, dy = _direct_nodes(fx, fy, fv)
    fxv = np.clip(fx.values[sl_x], _SQUARE_FLOOR, None)
    hxv, hyv = hx[sl_x], hy[sl_y][resolved]
    term_xx = -(1.0 - alpha1) * (hxv**2 / fxv)[:, None] * fvxy
    term_xy = 2.0 * mu * hxv[:, None] * hyv[None, :] * fvxy / fyv[None, :]
    term_yy = -mu * fxv[:, None] * fvxy * (hyv**2 / fyv**2)[None, :]
    wx = _halved_ends(np.full(x.size, dx))
    wy = _halved_ends(np.full(y.size, dy))
    return float(wx @ (term_xx + term_xy + term_yy) @ wy)


def _direct_first_residual(fx, fy, fv, mu):
    """The first residual from np.linalg.lstsq on the full weighted design."""
    sl_x, sl_y, resolved, x, y, fyv, fvxy, _, _ = _direct_nodes(fx, fy, fv)
    conv_on_fy = _interp_density(convolve_pair(fx, fv), fy.grid)[sl_y][resolved]
    fxv = fx.values[sl_x]
    weight = fxv[:, None] * fvxy
    ln_fx = np.log(np.clip(fxv, _LOG_FLOOR, None))
    raw = (
        mu * np.log(fyv)[None, :]
        - ln_fx[:, None]
        - mu * (mu - 1.0) * np.log(np.clip(fvxy, _LOG_FLOOR, None))
        + (mu * conv_on_fy / fyv)[None, :]
    )
    ones = np.ones_like(weight)
    basis = np.stack(
        [
            ones,
            -ln_fx[:, None] * ones,
            x[:, None] * y[None, :] - (x**2)[:, None] * ones,
            (x**2)[:, None] * ones,
            ones * (y**2)[None, :],
        ],
        axis=-1,
    )
    sqw = np.sqrt(weight).ravel()
    design = basis.reshape(-1, 5) * sqw[:, None]
    target = -(raw.ravel() * sqw)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = design @ coef - target
    return math.sqrt(float(np.sum(resid**2)) / float(np.sum(weight)))


def _reference_triples():
    """Criterion 8's four Gaussian triples, then a uniform and a mixture candidate."""
    for mu, var_x, var_v in [(2.0, 1.0, 0.5), (1.5, 2.0, 1.0), (3.0, 0.8, 0.8), (2.5, 1.2, 0.4)]:
        yield mu, GridDensity.gaussian(var_x), GridDensity.gaussian(var_v)
    yield 2.0, GridDensity.uniform(-math.sqrt(3.0), math.sqrt(3.0)), GridDensity.gaussian(0.5)
    yield 2.0, GridDensity.mixture(0.3, -1.0, 0.5, 1.5, 2.0), GridDensity.gaussian(0.7)


class TestVariationalProbeReferences:
    """The probes against the direct formulas they were rewritten from."""

    def test_first_residual_matches_full_lstsq(self):
        # Reading |R[5, 5]| without the 5x5 correction is off by 9.3e-8 to
        # 1.1e-5 on the Gaussian triples, whose design is rank-deficient.
        for mu, fx, fv in _reference_triples():
            fy = convolve_pair(fx, fv)
            got = variational_first_residual(fx, fy, fv, mu)
            assert got == pytest.approx(_direct_first_residual(fx, fy, fv, mu), rel=5e-8, abs=0.0)

    def test_second_form_matches_elementwise_integrand(self):
        rng = np.random.default_rng(1408)
        for mu, fx, fv in _reference_triples():
            fy = convolve_pair(fx, fv)
            for alpha1 in (1.0 - mu, 0.5, 1.5):
                hx = np.sin(rng.uniform(0.3, 2.0) * fx.grid + rng.normal()) * np.exp(
                    -(fx.grid**2) / rng.uniform(2.0, 9.0)
                )
                hy = np.cos(rng.uniform(0.3, 2.0) * fy.grid + rng.normal()) * np.exp(
                    -(fy.grid**2) / rng.uniform(2.0, 9.0)
                )
                got = variational_second_form(fx, fy, fv, mu, hx, hy, alpha1)
                want = _direct_second_form(fx, fy, fv, mu, hx, hy, alpha1)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mu", [math.nan, math.inf, 1.0])
def test_variational_probes_reject_invalid_mu(mu):
    fx = GridDensity.gaussian(1.0)
    fv = GridDensity.gaussian(0.5)
    fy = convolve_pair(fx, fv)
    with pytest.raises(BadMu):
        variational_first_residual(fx, fy, fv, mu)
    with pytest.raises(BadMu):
        variational_second_form(fx, fy, fv, mu, fx.values, fy.values, 0.5)


def test_report_json_line_is_sorted_and_parseable():
    rep = check_epi(GridDensity.gaussian(1.0), GridDensity.gaussian(1.0))
    obj = json.loads(rep.to_json_line())
    assert list(obj) == sorted(obj)
    assert obj["check"] == "epi"
    assert obj["passed"] is True
