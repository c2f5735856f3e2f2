"""Tests for the quadrature densities, entropy checks, and variational probes."""

import json
import math
import tracemalloc

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
    _MAX_NODES,
    _MAX_POINTS,
    _SQUARE_FLOOR,
    _check_points,
    _capped_scales,
    _fft_length,
    _halved_ends,
    _interp_density,
    _resample,
    _smooth_floor,
    _subsample,
    _tensor_grid,
    _trial_draws,
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

# Each constructor, called with one grid size and otherwise fixed arguments.
_BUILDERS = {
    "gaussian": lambda points: GridDensity.gaussian(1.0, points=points),
    "uniform": lambda points: GridDensity.uniform(0.0, 1.0, points=points),
    "mixture": lambda points: GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, points=points),
    "from-callable": lambda points: GridDensity.from_callable(np.exp, 0.0, 1.0, points=points),
}


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

    def test_bad_support_and_values(self):
        with pytest.raises(InvalidParameter):
            GridDensity.uniform(1.0, 1.0)
        with pytest.raises(InvalidParameter):
            GridDensity(0.0, 1.0, np.array([1.0, 1.0]))  # too few nodes
        bad = np.full(11, 1.0)
        bad[3] = -0.5
        with pytest.raises(InvalidParameter):
            GridDensity(0.0, 1.0, bad)

    def test_node_limit(self):
        _check_points(_MAX_POINTS, "a grid")
        _check_points(3, "a grid")
        for points in (_MAX_POINTS + 1, float("inf"), float("nan"), 2, 0, -5):
            with pytest.raises(InvalidParameter, match="grid nodes"):
                _check_points(points, "a grid")

    @pytest.mark.parametrize("points", [2, 0, -5])
    def test_too_few_nodes_rejected_before_allocating(self, points):
        # numpy would otherwise fail on its own, with "negative dimensions"
        for build in (GridDensity.gaussian, GridDensity.uniform):
            with pytest.raises(InvalidParameter, match=f"needs {points} grid nodes, not 3 to"):
                build(1.0, 2.0, points=points)

    @pytest.mark.parametrize("points", [4001.0, "4001", True])
    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
    def test_point_count_must_be_an_integer(self, build, points):
        with pytest.raises(InvalidParameter, match=f"integer count of grid points, got points={points!r}"):
            build(points)

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
    def test_numpy_integer_point_count_accepted(self, build):
        assert build(np.int64(101)).points == 101

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GridDensity.gaussian(1.0, points=10**14),
            lambda: GridDensity.uniform(0.0, 1.0, points=10**14),
            lambda: GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, points=10**14),
            lambda: GridDensity.from_callable(np.exp, 0.0, 1.0, points=10**14),
            # 2 * 2e153 + 1 kernel nodes
            lambda: convolve_density(GridDensity.gaussian(1e-300), 1.0),
            # unit-variance noise resampled onto a 2.5e-13 step: 6e13 nodes
            lambda: convolve_pair(GridDensity.uniform(0.0, 1e-9), GridDensity.gaussian(1.0)),
        ],
        ids=["gaussian", "uniform", "mixture", "from-callable", "kernel", "resample"],
    )
    def test_oversized_grid_rejected_before_allocating(self, build):
        # each request needs terabytes or more, so it fails without the check too
        with pytest.raises(InvalidParameter, match="grid nodes"):
            build()

    def test_samples_are_a_read_only_copy(self):
        # a source changed after validation must not show through
        src = np.full(101, 1.0 / 1.5)
        d = GridDensity(0.25, 1.75, src)
        src[:] = -7.0
        assert d.values.min() == d.values.max() == 1.0 / 1.5
        with pytest.raises(ValueError):
            d.values[0] = -7.0


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

    def test_even_count_compares_the_same_interval(self):
        # integrand[::2] of an even count stops one node short of the fine
        # grid; comparing the two rules on different intervals read 5.8e-5
        # here, where both are exact
        est = entropy_quadrature(GridDensity.uniform(0.0, 2.0, points=4000))
        assert est.value == pytest.approx(math.log(2.0), abs=1e-15)
        assert est.error <= 1e-15

    @pytest.mark.parametrize("points", [1000, 2000])
    def test_even_count_error_tracks_the_odd_one(self, points):
        # on a truncated density with an edge jump the error is O(step^2) on
        # both parities; the even estimate read 170x and 340x the odd one
        # when it compared different intervals
        def truncated(pts):
            d = GridDensity.from_callable(lambda x: np.exp(-x), 0.0, 3.0, points=pts)
            return entropy_quadrature(d).error

        assert truncated(points) == pytest.approx(truncated(points + 1), rel=0.05)

    @pytest.mark.parametrize("points", [301, 4001])
    def test_odd_count_error_is_full_grid_richardson(self, points):
        d = GridDensity.from_callable(lambda x: np.exp(-x), 0.0, 3.0, points=points)
        integrand = -d.values * np.log(d.values)
        value = float(np.trapezoid(integrand, dx=d.step))
        coarse = float(np.trapezoid(integrand[::2], dx=2.0 * d.step))
        assert entropy_quadrature(d) == (value, abs(value - coarse) / 3.0)


def _halved_ends(vals):
    out = vals.copy()
    out[[0, -1]] *= 0.5
    return out


def _direct_gaussian_convolution(d, sigma2, out):
    """d plus N(0, sigma2) by the O(N*M) direct sum on d's step, at out's nodes.

    Every node of ``out`` must lie on d's lattice; the sampled kernel reaches
    the farthest of them and is normalized by its trapezoid sum.
    """
    nodes = (out.grid - d.support_lo) / d.step
    j = np.rint(nodes).astype(int)
    assert np.max(np.abs(nodes - j)) <= 1e-6
    m = max(-j[0], j[-1] - (d.points - 1))
    t = np.arange(-m, m + 1) * d.step
    kernel = np.exp(-0.5 * t**2 / sigma2)
    kernel /= np.trapezoid(kernel, dx=d.step)
    vals = np.convolve(_halved_ends(d.values), _halved_ends(kernel)) * d.step
    return vals[j + m]


def _undecimated_convolution(d, sigma2):
    """``(lo, hi, values)`` of the one-stage transform at d's own step, as a reference."""
    m = math.ceil(8.0 * math.sqrt(sigma2) / d.step)
    size = d.points + 2 * m
    nfft = _fft_length(size)
    f = np.arange(nfft // 2 + 1) / (nfft * d.step)
    spectrum = np.fft.rfft(_halved_ends(d.values), nfft) * np.exp(-2.0 * math.pi**2 * sigma2 * f**2)
    vals = np.clip(np.roll(np.fft.irfft(spectrum, nfft), m)[:size], 0.0, None)
    return d.support_lo - m * d.step, d.support_hi + m * d.step, vals


def _uniform_plus_gaussian_entropy(sigma2):
    """h(U[0, 1] + N(0, sigma2)) by adaptive quadrature of the closed-form density."""
    from scipy import integrate, special

    s = math.sqrt(sigma2)

    def integrand(t):
        f = special.ndtr(t / s) - special.ndtr((t - 1.0) / s)
        return -f * math.log(f) if f > 0.0 else 0.0

    edges = np.linspace(-12.0 * s, 1.0 + 12.0 * s, 5)
    return sum(
        integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def _direct_pair_convolution(d1, d2):
    d2 = _resample(d2, d1.step)
    vals = np.convolve(_halved_ends(d1.values), _halved_ends(d2.values)) * d1.step
    vals /= np.trapezoid(vals, dx=d1.step)
    return d1.support_lo + d2.support_lo, d1.support_hi + d2.support_hi, vals


def _smooth_length_case(points):
    """A uniform density on a unit step and noise of deviation 10, 80 nodes a side.

    The node count, at least ``points``, makes the output length 5-smooth, so
    its transform has no zero padding and the output's two ends are
    circular neighbours: the tightest wrap.
    """
    nodes = _fft_length(points + 160) - 160
    return GridDensity.uniform(0.0, nodes - 1.0, nodes), 100.0


class TestConvolution:
    @pytest.mark.parametrize("points", [4001, 8001])
    @pytest.mark.parametrize(
        "kind",
        ["uniform", "mixture", "gaussian", "pair-resampled", "sigma-4-steps", "smooth-length"])
    def test_matches_direct_trapezoid_sum(self, kind, points):
        if kind == "pair-resampled":
            d1 = GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, points)
            d2 = GridDensity.gaussian(0.5, points=3001)
            assert d2.step != d1.step
            out = convolve_pair(d1, d2)
            lo, hi, ref = _direct_pair_convolution(d1, d2)
        else:
            uniform = GridDensity.uniform(0.0, 1.0, points)
            d, sigma2 = {
                "uniform": (uniform, 0.25),
                "mixture": (GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, points), 1.0),
                "gaussian": (GridDensity.gaussian(2.0, points=points), 0.5),
                # the coarsest grid allowed, so the most aliasing: a step of sigma/4
                "sigma-4-steps": (uniform, (4.0 * uniform.step) ** 2),
                "smooth-length": _smooth_length_case(points),
            }[kind]
            out = convolve_density(d, sigma2)
            sigma = math.sqrt(sigma2)
            # at least 8 sigma past d's support, at a step of at most sigma/8
            # unless d's own step is above sigma/16
            assert out.support_lo <= d.support_lo - 8.0 * sigma * (1.0 - 1e-12)
            assert out.support_hi >= d.support_hi + 8.0 * sigma * (1.0 - 1e-12)
            assert out.step <= max(sigma / 8.0, d.step) * (1.0 + 1e-12)
            lo, hi = out.support_lo, out.support_hi
            ref = _direct_gaussian_convolution(d, sigma2, out)
            if kind == "smooth-length":
                assert _fft_length(ref.size) == ref.size
        assert out.points == ref.size
        assert (out.support_lo, out.support_hi) == (lo, hi)
        assert np.min(out.values) >= 0.0
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(ref)
        direct = entropy_quadrature(GridDensity(lo, hi, ref)).value
        assert entropy_quadrature(out).value == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("points", [4001, 8001])
    def test_undecimated_case_is_the_one_stage_transform(self, points):
        # a step of sigma/4 leaves nothing to decimate: the output is the
        # one-stage transform at d's step, bit for bit
        d = GridDensity.uniform(0.0, 1.0, points)
        sigma2 = (4.0 * d.step) ** 2
        out = convolve_density(d, sigma2)
        lo, hi, ref = _undecimated_convolution(d, sigma2)
        assert (out.support_lo, out.support_hi) == (lo, hi)
        assert np.array_equal(out.values, ref)

    # |h(grid) - h(closed form)| at the parent commit, rounded up in the third
    # digit; the grid uniform's edges, not the convolution, set these errors
    @pytest.mark.parametrize(
        "points, sigma2, bar",
        [
            (4001, 0.05, 4.20e-8), (4001, 0.25, 1.57e-8), (4001, 1.4, 3.52e-9),
            (8001, 0.05, 1.05e-8), (8001, 0.25, 3.92e-9), (8001, 1.4, 8.79e-10),
        ],
    )
    def test_uniform_plus_gaussian_against_closed_form(self, points, sigma2, bar):
        out = convolve_density(GridDensity.uniform(0.0, 1.0, points), sigma2)
        exact = _uniform_plus_gaussian_entropy(sigma2)
        assert abs(entropy_quadrature(out).value - exact) <= bar

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

    @pytest.mark.parametrize(
        "d, sigma2",
        [
            (GridDensity.uniform(0.0, 1.0), 0.25),
            (GridDensity.uniform(0.0, 1.0), 1e-6),
            (GridDensity.mixture(0.4, -1.0, 0.8, 2.0, 1.5, points=3000), 0.6),
            (GridDensity.from_callable(np.exp, 0.0, 3.0, points=1001), 4.0),
        ],
        ids=["uniform", "sigma-4-steps", "mixture-even", "exponential"],
    )
    def test_trapezoid_mass_is_the_input_mass(self, d, sigma2):
        # the Gaussian's transform is exactly one at frequency zero
        out = convolve_density(d, sigma2)
        mass_in = np.trapezoid(d.values, dx=d.step)
        assert np.trapezoid(out.values, dx=out.step) == pytest.approx(mass_in, abs=1e-12)

    @pytest.mark.parametrize(
        "d, sigma2",
        [
            (GridDensity.uniform(0.0, 1.0, 8001), 0.25),
            (GridDensity.uniform(0.0, 1.0, 4001), 1.4),
            (GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0, 8001), 1.0),
            (GridDensity.gaussian(2.0, points=4001), 0.5),
            # just below and above the two-stage threshold, 2 (span / 16)^2
            (GridDensity.uniform(0.0, 1.0, 4001), 2.0 / 256.0),
            (GridDensity.uniform(0.0, 1.0, 4001), 2.0 / 256.0 * (1.0 + 1e-12)),
        ],
        ids=["uniform-8001", "wide-noise", "mixture", "gaussian", "one-stage-edge", "two-stage-edge"],
    )
    def test_transforms_cost_at_most_three_input_lengths(self, d, sigma2, monkeypatch):
        # the cost guard: one transform at d's step, 72900 points each way
        # for uniform-8001 before decimation, must not come back
        lengths = []

        def counted(transform):
            def call(a, n):
                lengths.append(n)
                return transform(a, n)
            return call

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        convolve_density(d, sigma2)
        assert sum(lengths) <= 3 * d.points
        assert all(_fft_length(n) == n for n in lengths)

    def test_output_grid_checked_before_allocating(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("a transform ran before the node limit was checked")

        d = GridDensity.uniform(0.0, 1.0, 4001)
        # sigma1 = 1/16 first: 2000 noise nodes a side of d's step, 8001 nodes
        with monkeypatch.context() as patched:
            patched.setattr(np.fft, "rfft", no_transform)
            patched.setattr("eeikit.oracle._MAX_POINTS", 8000)
            with pytest.raises(InvalidParameter, match="the convolved density needs 8001 grid"):
                convolve_density(d, 0.01)
            with pytest.raises(InvalidParameter, match="the convolved density needs 8001 grid"):
                convolve_pair(d, d)
        with monkeypatch.context() as patched:
            patched.setattr(np.fft, "rfft", no_transform)
            # the first stage fits (8001 nodes); the second stage's 1.3e152 are
            # rejected before the first stage runs
            with pytest.raises(InvalidParameter, match="the convolved density needs 1.33333e\\+152 grid"):
                convolve_density(GridDensity.gaussian(1e-300), 1.0)
        monkeypatch.setattr("eeikit.oracle._MAX_POINTS", 8001)
        assert convolve_density(d, 0.01).step > d.step
        assert convolve_pair(d, d).points == 8001


def test_fft_length_is_the_least_5_smooth_length():
    limit = 10**5
    products = (2**a * 3**b * 5**c for a in range(19) for b in range(12) for c in range(9))
    smooth = np.array(sorted(n for n in products if n < 4 * limit))
    sizes = np.arange(1, limit + 1)
    expected = smooth[np.searchsorted(smooth, sizes)]
    assert [_fft_length(int(size)) for size in sizes] == expected.tolist()


def test_smooth_floor_is_the_greatest_5_smooth_count():
    limit = 10**4
    products = (2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6))
    smooth = np.array(sorted(n for n in products if n <= limit))
    # below 1, and between and on the integers
    xs = np.concatenate([[0.0, 0.5, 0.999], np.arange(1, limit + 1) + 0.5, np.arange(1, limit + 1)])
    expected = np.where(xs < 1.0, 1, smooth[np.maximum(np.searchsorted(smooth, xs, "right") - 1, 0)])
    assert [_smooth_floor(float(x)) for x in xs] == expected.tolist()


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

    def test_gaussian_side_is_closed_form(self):
        s2_wt, s2_wp = 0.7, 0.4
        rep = check_worst_noise(GridDensity.mixture(0.3, -1.0, 0.5, 1.5, 1.2), s2_wt, s2_wp)
        var = rep.params["variance"]
        assert rep.rhs == 0.5 * math.log((var + s2_wt + s2_wp) / (var + s2_wt))
        assert rep.margin == rep.lhs - rep.rhs

    def test_quadrature_budget_is_the_candidates_two_entropies(self):
        d, s2_wt, s2_wp = GridDensity.uniform(0.0, 2.0), 0.7, 0.4
        rep = check_worst_noise(d, s2_wt, s2_wp)
        err_all = entropy_quadrature(convolve_density(d, s2_wt + s2_wp)).error
        err_wt = entropy_quadrature(convolve_density(d, s2_wt)).error
        assert rep.params["quad_error"] == err_all + err_wt
        assert rep.params["step"] == d.step

    def test_convolves_only_the_candidate_twice(self, monkeypatch):
        # the cost guard: no matched Gaussian is built or convolved
        d, calls = GridDensity.uniform(0.0, 2.0), []

        def counted(dens, sigma2):
            calls.append((dens, sigma2))
            return convolve_density(dens, sigma2)

        def no_gaussian(*args, **kwargs):
            raise AssertionError("check_worst_noise built a Gaussian density")

        monkeypatch.setattr("eeikit.oracle.convolve_density", counted)
        monkeypatch.setattr(GridDensity, "gaussian", no_gaussian)
        check_worst_noise(d, 0.7, 0.4)
        assert [dens for dens, _ in calls] == [d, d]
        assert sorted(sigma2 for _, sigma2 in calls) == [0.7, 0.7 + 0.4]

    def test_fails_when_the_extra_noise_leaks_nothing(self, monkeypatch):
        # dropping s2_wp makes both convolutions equal, so the candidate leaks 0
        # against the Gaussian's positive closed-form leak
        s2_wt = 0.7
        monkeypatch.setattr(
            "eeikit.oracle.convolve_density",
            lambda dens, sigma2: convolve_density(dens, min(sigma2, s2_wt)),
        )
        rep = check_worst_noise(GridDensity.uniform(0.0, 2.0), s2_wt, 0.4)
        assert rep.lhs == 0.0
        assert rep.margin < -1e-4
        assert not rep.passed


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


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_epi(GridDensity.uniform(0.0, 1.0), GridDensity.gaussian(0.5)),
        lambda: check_worst_noise(GridDensity.uniform(0.0, 2.0), 0.7, 0.4),
        lambda: check_eei(GridDensity.uniform(0.0, 1.0), 2.0, 1.0, 1.0),
        lambda: check_eei(GridDensity.mixture(0.5, -2.0, 1.0, 2.0, 1.0), 2.0, 1.0, 10.0, s2_v=4.0),
        lambda: gaussian_search(_matrix_instance(), 300, 5),
    ],
    ids=["epi", "worst-noise", "eei", "eei-two-noise", "search"],
)
def test_reports_carry_no_clock(check):
    # every field is computed from the inputs, so identical calls give identical bytes
    assert check().to_json_line() == check().to_json_line()


def _drawn(seed, trials, n):
    """Chunk starts and the concatenated draws of a ``trials``-trial search."""
    starts, g, frac = zip(*_trial_draws(seed, trials, n))
    return list(starts), np.concatenate(g), np.concatenate(frac)


class TestGaussianSearch:
    def test_deterministic_given_seed(self):
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        a = gaussian_search(inst, 500, 7).as_dict()
        b = gaussian_search(inst, 500, 7).as_dict()
        assert a == b
        assert (a["trials"], a["seed"]) == (500, 7)

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
    def test_trials_partition_reproduces_samples(self, n, monkeypatch):
        # trial i's draw depends on neither the trial count nor the chunk size
        firsts = []
        for chunk in (1024, 37):
            monkeypatch.setattr("eeikit.oracle._SEARCH_CHUNK", chunk)
            for trials in (301, 1500):
                starts, g, frac = _drawn(17, trials, n)
                assert starts == list(range(0, trials, chunk))
                assert g.shape == (trials, n, n) and frac.shape == (trials,)
                firsts.append((g[:301], frac[:301]))
        for g, frac in firsts[1:]:
            np.testing.assert_array_equal(g, firsts[0][0])
            np.testing.assert_array_equal(frac, firsts[0][1])

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
        _, g, frac = _drawn(23, 200, 3)
        mats = g @ g.transpose(0, 2, 1)
        l_inv = np.linalg.inv(np.linalg.cholesky(r))
        scales, capped = _capped_scales(mats, frac, l_inv, np.trace(r))
        assert 0 < np.count_nonzero(capped) < 200
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
        _, g, frac = _drawn(13, 1500, 2)
        mats = g @ g.transpose(0, 2, 1)
        want = frac * np.trace(inst.r) / np.trace(mats, axis1=1, axis2=2)
        outside = np.linalg.eigvalsh(inst.r - want[:, None, None] * mats)[:, 0] < 0.0
        assert gaussian_search(inst, 1500, 13).params["clipped"] == np.count_nonzero(outside)
        scalar = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        assert gaussian_search(scalar, 500, 7).params["clipped"] == 0

    def test_box_muller_moments(self):
        # the direction factors are standard normal, the fractions in [0, 1)
        _, g, frac = _drawn(29, 25_000, 2)
        z = g.ravel()
        assert z.size == 100_000
        se = 1.0 / math.sqrt(z.size)
        assert abs(z.mean()) <= 5.0 * se
        assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0) * se
        assert 0.0 <= frac.min() and frac.max() < 1.0


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

    @pytest.mark.parametrize("block", [1, 7, 500, _MAX_NODES])
    def test_result_does_not_depend_on_the_block(self, block, monkeypatch):
        # 500 splits the 501 kept x nodes into a full and a one-node block;
        # _MAX_NODES takes them all in one
        for mu, fx, fv in _reference_triples():
            fy = convolve_pair(fx, fv)
            want = variational_first_residual(fx, fy, fv, mu)
            monkeypatch.setattr("eeikit.oracle._PROBE_BLOCK", block)
            got = variational_first_residual(fx, fy, fv, mu)
            monkeypatch.undo()
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_traced_peak_stays_small(self):
        # criterion 8's first triple; one six-column design of the whole
        # tensor grid peaked at 18 MB here
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        fy = convolve_pair(fx, fv)
        variational_first_residual(fx, fy, fv, 2.0)  # fills the kernel memo
        tracemalloc.start()
        try:
            variational_first_residual(fx, fy, fv, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6


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

    @pytest.mark.parametrize("alpha1", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, alpha1):
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        fy = convolve_pair(fx, fv)
        hx = np.exp(-(fx.grid**2) / 4.0)
        hy = np.exp(-(fy.grid**2) / 4.0)
        with pytest.raises(InvalidParameter, match="alpha1"):
            variational_second_form(fx, fy, fv, 2.0, hx, hy, alpha1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("offset", [0, 1], ids=["kept-node", "skipped-node"])
    @pytest.mark.parametrize("which", ["hx", "hy"])
    def test_non_finite_perturbation_rejected(self, which, offset, bad):
        # a subsampled node near the middle is on the probes' tensor grid
        # and the next one is not, so a check of the kept nodes alone would
        # pass the latter; unchecked, NaN read nan and inf nan with a
        # RuntimeWarning
        fx = GridDensity.gaussian(1.0)
        fv = GridDensity.gaussian(0.5)
        fy = convolve_pair(fx, fv)
        h = {"hx": np.exp(-(fx.grid**2) / 4.0), "hy": np.exp(-(fy.grid**2) / 4.0)}
        stride = _subsample(h[which].size).step
        h[which][stride * (h[which].size // (2 * stride)) + offset] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            variational_second_form(fx, fy, fv, 2.0, h["hx"], h["hy"], -1.0)

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


def _memo_triple(name):
    """Freshly built probe inputs; "a" and "b" share fx and every grid shape.

    Only fv's samples differ, so a kernel left over from the other triple
    would be read without any shape error.
    """
    mu = 2.0
    fx = GridDensity.gaussian(1.0)
    fv = GridDensity.gaussian(0.5)
    if name == "b":
        fv = GridDensity.from_callable(lambda t: np.exp(-(t**2) / 0.6), fv.support_lo, fv.support_hi)
    fy = convolve_pair(fx, fv)
    hx = np.sin(1.3 * fx.grid + 0.2) * np.exp(-(fx.grid**2) / 4.0)
    hy = np.cos(0.7 * fy.grid - 0.4) * np.exp(-(fy.grid**2) / 5.0)
    return fx, fy, fv, mu, hx, hy


def _first(fx, fy, fv, mu, hx, hy):
    return variational_first_residual(fx, fy, fv, mu)


def _second(fx, fy, fv, mu, hx, hy):
    return variational_second_form(fx, fy, fv, mu, hx, hy, 1.0 - mu)


def _cold(probe, name):
    """The probe on freshly built densities with the kernel memo emptied."""
    args = _memo_triple(name)
    _tensor_grid.cache_clear()
    return probe(*args)


class TestTensorGridMemo:
    """The probes' shared kernel is built once per triple and never read stale."""

    @pytest.mark.parametrize("probe", [_first, _second])
    def test_repeated_call_equals_cold(self, probe):
        args = _memo_triple("a")
        assert probe(*args) == probe(*args) == _cold(probe, "a")

    @pytest.mark.parametrize("probe", [_first, _second])
    def test_alternating_triples_read_their_own_kernel(self, probe):
        cold_a, cold_b = _cold(probe, "a"), _cold(probe, "b")
        assert cold_a != cold_b
        a, b = _memo_triple("a"), _memo_triple("b")
        assert [probe(*a), probe(*b), probe(*a)] == [cold_a, cold_b, cold_a]

    def test_first_then_second_builds_one_kernel(self):
        cold = [_cold(_first, "a"), _cold(_second, "a")]
        args = _memo_triple("a")
        _tensor_grid.cache_clear()
        warm = [_first(*args)] + [_second(*args) for _ in range(3)]
        assert warm == cold + cold[1:] * 2
        info = _tensor_grid.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert not any(a.flags.writeable for a in _tensor_grid(*args[:3]))

    @pytest.mark.parametrize("probe", [_first, _second])
    def test_warm_call_convolves_nothing(self, probe, monkeypatch):
        # the memo convolves the triple once, on the call that builds it
        calls = []

        def counted(d1, d2):
            calls.append((d1, d2))
            return convolve_pair(d1, d2)

        monkeypatch.setattr("eeikit.oracle.convolve_pair", counted)
        args = _memo_triple("a")
        _tensor_grid.cache_clear()
        cold = probe(*args)
        assert calls == [(args[0], args[2])]
        assert [probe(*args) for _ in range(3)] == [cold] * 3
        assert len(calls) == 1

    def test_second_form_rejects_an_inconsistent_triple(self):
        # fy's variance is 0.5 above var_x + var_v = 1.5
        fx, fv = GridDensity.gaussian(1.0), GridDensity.gaussian(0.5)
        fy = GridDensity.gaussian(2.0)
        hx, hy = np.zeros(fx.points), np.zeros(fy.points)
        for _ in range(2):  # an inconsistent triple is never kept
            with pytest.raises(InconsistentDensity, match="fy deviates"):
                variational_second_form(fx, fy, fv, 2.0, hx, hy, 0.5)

    def test_mutated_source_changes_nothing(self):
        fx, fy, fv, mu, hx, hy = _memo_triple("a")
        src = fx.values.copy()
        fx = GridDensity(fx.support_lo, fx.support_hi, src)
        before = [_first(fx, fy, fv, mu, hx, hy), _second(fx, fy, fv, mu, hx, hy)]
        src[:] = -7.0
        assert fx.values.min() >= 0.0
        for probe, want in zip((_first, _second), before):
            assert probe(fx, fy, fv, mu, hx, hy) == want
            _tensor_grid.cache_clear()
            assert probe(fx, fy, fv, mu, hx, hy) == want


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
    assert "trials" not in obj and "seed" not in obj
