"""Grid-based numerical verification of the entropy inequalities.

Everything here is deliberately independent of the closed-form machinery
in :mod:`eeikit.construct`: densities live on uniform grids, entropies
come from trapezoidal quadrature, and Gaussian optima are challenged by
random search.  Agreement between the two routes is the evidence the
package offers, so none of these checks may call back into the formulas
they are meant to validate.

Convolutions are trapezoid-rule sums computed by real FFTs at the
smallest ``2^a 3^b 5^c`` length that holds the whole output, so no
output node wraps onto another; in a Gaussian convolution every circular
alias reaches a node from more than 8 sigma away.  Gaussian noise enters
through its closed-form transform ``exp(-2 pi^2 sigma2 f^2)``, not a
sampled kernel.  Against the Gaussian sampled on the grid and cut at 8
sigma, that transform errs by at most ``e^-32`` of the kernel's peak (the
cut tails) plus ``e^-79`` (aliasing, on a step of at most sigma/4).  The
smoothed density is sampled at the largest 5-smooth multiple of the input's
step that is at most sigma/8, so the bins its inverse transform drops hold
at most ``e^-316`` of the peak, and wide noise is applied in two stages.

Reports are emitted as :class:`VerificationReport` records which
serialize to JSON lines.  The random search reads two numpy streams keyed
by the seed, ``default_rng([seed, 0])`` for its normals and
``default_rng([seed, 1])`` for its scale fractions, both in trial order.
Every check and the search reject a ``tol`` that is negative or not
finite, before any quadrature or sampling.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from .construct import EEIInstance, eei_optimum, validated_mu
from .errors import (
    GridTooCoarse,
    InconsistentDensity,
    InvalidParameter,
    UnnormalizedDensity,
)
from .gaussmat import LOG_2PI_E

__all__ = [
    "GridDensity",
    "EntropyEstimate",
    "VerificationReport",
    "entropy_quadrature",
    "convolve_density",
    "convolve_pair",
    "check_epi",
    "check_worst_noise",
    "check_eei",
    "gaussian_search",
    "variational_first_residual",
    "variational_second_form",
]

# Densities are clipped here before taking logs; keeps ln f finite
# without perturbing any integral at double precision.
_LOG_FLOOR = 1e-300
# Separate floor for expressions with squared densities in denominators,
# chosen so the square still stays inside the double range.
_SQUARE_FLOOR = 1e-154
_MASS_TOL = 1e-6
# Gaussian and mixture grids span this many standard deviations each side.
_HALF_WIDTH = 8.0
# The variational probes subsample each grid to at most this many nodes.
_MAX_NODES = 512
# The variational probes use only output nodes above this share of the
# output density's peak: below about 1e-16 of it an FFT convolution is
# rounding (or exact zero), whose logarithm would set the first residual's
# floor and whose square would blow up the second form.
_FY_RESOLVED = 1e-13
# A grid sized from the inputs has at most this many nodes (128 MiB of
# doubles); a larger one is an input error, raised before it is allocated.
_MAX_POINTS = 1 << 24


def _check_points(points, what: str) -> None:
    if not 3 <= points <= _MAX_POINTS:  # NaN fails too
        raise InvalidParameter(f"{what} needs {points:.6g} grid nodes, not 3 to {_MAX_POINTS}")


def _whole(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(points, what: str) -> None:
    """A caller's grid size: an integer that is not a bool, from 3 to ``_MAX_POINTS``."""
    if not _whole(points):
        raise InvalidParameter(f"{what} needs an integer count of grid points, got points={points!r}")
    _check_points(points, what)


def _normal(x: NDArray, mean: float, variance: float) -> NDArray:
    return np.exp(-0.5 * (x - mean) ** 2 / variance) / math.sqrt(
        2.0 * math.pi * variance
    )


@dataclass(frozen=True, eq=False)
class GridDensity:
    """One-dimensional probability density sampled on a uniform grid.

    ``values[i]`` is the density at ``support_lo + i * step``.  The
    trapezoidal integral must equal one within ``1e-6`` and all samples
    must be nonnegative; violations raise at construction time.  The
    samples are a read-only copy of the input, so a density cannot change
    after it is validated.
    """

    support_lo: float
    support_hi: float
    values: NDArray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        if vals.ndim != 1 or vals.size < 3:
            raise InvalidParameter("density needs a 1-D grid with at least 3 nodes")
        if not (np.isfinite(self.support_lo) and np.isfinite(self.support_hi)):
            raise InvalidParameter("support bounds must be finite")
        if not self.support_hi > self.support_lo:
            raise InvalidParameter("support_hi must exceed support_lo")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameter("density samples must be finite")
        if np.min(vals) < 0.0:
            raise InvalidParameter("density samples must be nonnegative")
        object.__setattr__(self, "values", vals)
        mass = float(np.trapezoid(vals, dx=self.step))
        if abs(mass - 1.0) > _MASS_TOL:
            raise UnnormalizedDensity(
                f"trapezoidal mass {mass:.8f} deviates from 1 beyond {_MASS_TOL}"
            )

    @property
    def points(self) -> int:
        return int(self.values.size)

    @property
    def step(self) -> float:
        return (self.support_hi - self.support_lo) / (self.values.size - 1)

    @property
    def grid(self) -> NDArray:
        return np.linspace(self.support_lo, self.support_hi, self.points)

    def mean(self) -> float:
        x = self.grid
        return float(np.trapezoid(x * self.values, dx=self.step))

    def variance(self) -> float:
        x = self.grid
        m = self.mean()
        return float(np.trapezoid((x - m) ** 2 * self.values, dx=self.step))

    @classmethod
    def gaussian(
        cls,
        variance: float,
        mean: float = 0.0,
        points: int = 4001,
    ) -> "GridDensity":
        """Normal density on ``mean +- 8 sigma``."""
        if not (0.0 < variance < math.inf and math.isfinite(mean)):
            raise InvalidParameter("variance must be positive and finite, mean finite")
        _check_count(points, "the gaussian density")
        sigma = math.sqrt(variance)
        lo = mean - _HALF_WIDTH * sigma
        hi = mean + _HALF_WIDTH * sigma
        x = np.linspace(lo, hi, points)
        return cls(lo, hi, _normal(x, mean, variance))

    @classmethod
    def uniform(cls, lo: float, hi: float, points: int = 4001) -> "GridDensity":
        """Uniform density with the support endpoints placed on grid nodes."""
        if not hi > lo:
            raise InvalidParameter("uniform support needs hi > lo")
        _check_count(points, "the uniform density")
        vals = np.full(points, 1.0 / (hi - lo))
        return cls(lo, hi, vals)

    @classmethod
    def mixture(
        cls,
        weight: float,
        mean_a: float,
        var_a: float,
        mean_b: float,
        var_b: float,
        points: int = 4001,
    ) -> "GridDensity":
        """Two-component normal mixture on 8 sigma of each component; ``weight`` goes to a."""
        if not 0.0 <= weight <= 1.0:
            raise InvalidParameter("mixture weight must lie in [0, 1]")
        if not (0.0 < var_a < math.inf and 0.0 < var_b < math.inf
                and math.isfinite(mean_a) and math.isfinite(mean_b)):
            raise InvalidParameter("component variances must be positive and finite, means finite")
        _check_count(points, "the mixture density")
        sa, sb = math.sqrt(var_a), math.sqrt(var_b)
        lo = min(mean_a - _HALF_WIDTH * sa, mean_b - _HALF_WIDTH * sb)
        hi = max(mean_a + _HALF_WIDTH * sa, mean_b + _HALF_WIDTH * sb)
        x = np.linspace(lo, hi, points)
        va, vb = _normal(x, mean_a, var_a), _normal(x, mean_b, var_b)
        return cls(lo, hi, weight * va + (1.0 - weight) * vb)

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[NDArray], NDArray],
        lo: float,
        hi: float,
        points: int = 4001,
    ) -> "GridDensity":
        """Sample ``fn`` on the grid and renormalize its mass to one."""
        _check_count(points, "the sampled density")
        x = np.linspace(lo, hi, points)
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape != x.shape:
            raise InvalidParameter("callable must return one value per grid node")
        vals = np.clip(vals, 0.0, None)
        mass = float(np.trapezoid(vals, x))
        if not (np.isfinite(mass) and mass > 0.0):
            raise InvalidParameter("callable has nonpositive or divergent mass")
        return cls(lo, hi, vals / mass)


class EntropyEstimate(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numeric check, serializable as a JSON line.

    ``margin`` is oriented so that nonnegative means the claim holds:
    ``lhs - rhs`` for lower-bound claims and ``rhs - lhs`` for
    upper-bound claims.  ``passed`` is derived solely from
    ``margin >= -tol``.  No field reads a clock, so identical calls give
    identical JSON lines.
    """

    check: str
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields in order, with ``params`` flattened in after them."""
        out = asdict(self)
        out.update(out.pop("params"))
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameter(f"tol must be finite and non-negative, got {tol!r}")


def _report(check, lhs, rhs, margin, tol, params) -> VerificationReport:
    return VerificationReport(
        check=check,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        tol=float(tol),
        passed=bool(margin >= -tol),
        params=params,
    )


def entropy_quadrature(d: GridDensity) -> EntropyEstimate:
    """Differential entropy in nats by trapezoidal quadrature.

    The integrand uses the convention ``0 * ln 0 = 0``.  The reported
    error is a Richardson estimate from comparing against the
    half-resolution grid on the interval both grids span, so it reflects
    the quadrature truncation, not any bias in the density samples
    themselves.
    """
    vals = d.values
    integrand = np.where(
        vals > 0.0, -vals * np.log(np.clip(vals, _LOG_FLOOR, None)), 0.0
    )
    value = float(np.trapezoid(integrand, dx=d.step))
    # The half-resolution grid takes every other node from the first; on an
    # even count it stops one node short, and the fine rule is read there too.
    kept = integrand[: integrand.size - 1 + integrand.size % 2]
    fine = value if kept.size == integrand.size else float(np.trapezoid(kept, dx=d.step))
    coarse = float(np.trapezoid(kept[::2], dx=2.0 * d.step))
    return EntropyEstimate(value=value, error=abs(fine - coarse) / 3.0)


def _halved_ends(vals: NDArray) -> NDArray:
    out = vals.copy()
    out[0] *= 0.5
    out[-1] *= 0.5
    return out


def _fft_length(size: int) -> int:
    """Smallest ``2^a 3^b 5^c`` at or above ``size``, a length pocketfft transforms fast."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches size
            best = min(best, p35 << ((size - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _smooth_floor(x: float) -> int:
    """Largest ``2^a 3^b 5^c`` at or below ``x``, and 1 when ``x < 1``."""
    best, p5 = 1, 1
    while p5 <= x:
        p35 = p5
        while p35 <= x:
            # p35 times the greatest power of two that stays at or below x
            best = max(best, p35 << int(x // p35).bit_length() - 1)
            p35 *= 3
        p5 *= 5
    return best


def _decimation(points: int, step: float, sigma2: float):
    """``(k, m, size)`` of one Gaussian smoothing of ``points`` samples at ``step``.

    The output step is ``k * step``, k the largest 5-smooth integer with
    ``k * step <= sigma / 8`` (at least 1); the output has m nodes each side
    of the input's span, ``m * k * step >= 8 sigma``, and ``size`` nodes in
    all.  The fine grid those nodes decimate is checked against the node
    limit as a float, before any count is made an integer.
    """
    sigma = math.sqrt(sigma2)
    # numpy's ceil, since a subnormal step makes this count inf
    _check_points(points + 2.0 * np.ceil(8.0 * sigma / step), "the convolved density")
    k = _smooth_floor(sigma / (8.0 * step))
    m = math.ceil(8.0 * sigma / (k * step))
    return k, m, -(-(points - 1) // k) + 2 * m + 1


def _smoothed(d: GridDensity, sigma2: float, k: int, m: int, size: int) -> GridDensity:
    """One trapezoid-rule Gaussian convolution, sampled at k times d's step.

    ``(k, m, size)`` is :func:`_decimation`'s.  With n the
    :func:`_fft_length` of size, the samples are transformed at ``k n``; the
    first ``n // 2 + 1`` bins times ``exp(-2 pi^2 sigma2 f^2) / k`` are
    transformed back at n, which keeps every k-th node of the fine result.
    """
    step = k * d.step
    n = _fft_length(size)
    f = np.arange(n // 2 + 1) / (n * step)
    gain = np.exp(-2.0 * math.pi**2 * sigma2 * f**2) / k
    spectrum = np.fft.rfft(_halved_ends(d.values), k * n)[: n // 2 + 1] * gain
    # the Gaussian is centred on node 0, so the m output nodes left of d's
    # grid wrap to the end of the transform; rolling by m puts them first
    out = np.roll(np.fft.irfft(spectrum, n), m)[:size]
    # the last output node lies k (size - 2m - 1) fine steps right of d's first
    hi = d.support_hi + (k * (size - 2 * m - 1) - (d.points - 1)) * d.step + m * step
    return GridDensity(d.support_lo - m * step, hi, np.clip(out, 0.0, None))


def convolve_density(d: GridDensity, sigma2: float) -> GridDensity:
    """Density of X + N(0, sigma2), sampled at the step its smoothness needs.

    The trapezoid-rule convolution with the unit-mass Gaussian, on a grid
    that reaches at least 8 sigma past d's support each side.  Its step is
    ``H = k * d.step``, k the largest 5-smooth integer with ``H <= sigma/8``
    (k = 1 when d's step is above sigma/16).  The samples, end nodes
    halved, are transformed at k times :func:`_fft_length` of the output
    length, N, and the first ``N // 2 + 1`` bins are multiplied by
    ``exp(-2 pi^2 sigma2 f^2) / k`` at ``f = q / (N H)`` and transformed back
    at N: every k-th node of the fine convolution, with no kernel sampled.
    The bins dropped lie at ``f >= 1 / (2H)``, where the factor is at most
    ``exp(-pi^2 sigma2 / (2 H^2)) <= e^-316``.  The factor is the transform
    of the Gaussian's samples at d's step summed over the period, to within
    ``e^-79`` since that step is at most sigma/4, and those samples differ
    from the kernel cut at the output grid's 8 sigma by at most ``e^-32`` of
    its peak.  Its value at frequency zero is exactly one, so the output's
    trapezoid mass equals d's to rounding.

    Noise that is wide against d's span is applied in two stages: when
    ``sigma2 > 2 sigma1^2``, with ``sigma1 = max(span / 16, 4 d.step)`` (so
    ``8 sigma1`` is half the span on 65 nodes or more), d is smoothed by
    ``sigma1^2`` first and the result by ``sigma2 - sigma1^2``.  Gaussians
    compose exactly; the first stage's transform is about twice d's length
    and leaves about 256 nodes.  Every stage's grid is checked against the
    node limit before the first transform.

    The output is clipped at zero, since FFT rounding leaves tiny negative
    values in the far tails where the exact convolution is nonnegative.
    Grids coarser than a quarter of the noise deviation are rejected
    because the Gaussian would be undersampled.
    """
    if not 0.0 < sigma2 < math.inf:
        raise InvalidParameter("noise variance must be positive and finite")
    sigma = math.sqrt(sigma2)
    step = d.step
    if step > sigma / 4.0:
        raise GridTooCoarse(
            f"grid step {step:.3e} exceeds sigma/4 = {sigma / 4.0:.3e}"
        )
    first = max((d.support_hi - d.support_lo) / 16.0, 4.0 * step) ** 2
    stages = (first, sigma2 - first) if sigma2 > 2.0 * first else (sigma2,)
    plans, points = [], d.points
    for s2 in stages:
        plans.append(_decimation(points, step, s2))
        k, _, points = plans[-1]
        step *= k
    for s2, plan in zip(stages, plans):
        d = _smoothed(d, s2, *plan)
    return d


def _interp_density(d: GridDensity, points: NDArray) -> NDArray:
    return np.interp(points, d.grid, d.values, left=0.0, right=0.0)


def _resample(d: GridDensity, step: float) -> GridDensity:
    """Linear resampling onto a grid with the requested step."""
    points = max(np.floor((d.support_hi - d.support_lo) / step) + 1.0, 3.0)
    _check_points(points, "the resampled density")
    points = int(points)
    hi = d.support_lo + (points - 1) * step
    x = np.linspace(d.support_lo, hi, points)
    vals = _interp_density(d, x)
    mass = float(np.trapezoid(vals, dx=step))
    return GridDensity(d.support_lo, hi, vals / mass)


def convolve_pair(d1: GridDensity, d2: GridDensity) -> GridDensity:
    """Density of the sum of two independent variables on d1's grid step.

    ``d2`` is linearly resampled onto that step when the steps differ.
    Halving the end samples of both inputs makes their discrete
    convolution the trapezoid rule applied to the defining integral.  It is
    computed by a real FFT zero-padded to :func:`_fft_length` of the output
    length, which is checked against the node limit first, clipped at zero
    (FFT rounding leaves values around -1e-19 in the far tails, where the
    exact convolution is nonnegative) and renormalized to unit mass.
    """
    if abs(d2.step - d1.step) > 1e-12 * d1.step:
        d2 = _resample(d2, d1.step)
    size = d1.points + d2.points - 1
    _check_points(size, "the convolved density")
    nfft = _fft_length(size)
    a, b = (np.fft.rfft(_halved_ends(g.values), nfft) for g in (d1, d2))
    out = np.clip(np.fft.irfft(a * b, nfft)[:size], 0.0, None)
    mass = float(np.trapezoid(out, dx=d1.step))
    return GridDensity(
        d1.support_lo + d2.support_lo, d1.support_hi + d2.support_hi, out / mass
    )


def check_epi(d1: GridDensity, d2: GridDensity, tol: float = 1e-4) -> VerificationReport:
    """Entropy of a sum of independent variables vs matched Gaussians.

    The comparison Gaussians carry the same individual entropies, so the
    right-hand side is the entropy of a normal whose variance is the sum
    of the two entropy powers.  The margin ``lhs - rhs`` must be
    nonnegative up to quadrature tolerance.  ``quad_error`` is the
    Richardson error of each entropy weighted by its share of the margin:
    one for the sum, the entropy-power shares for ``h1`` and ``h2``.
    ``step`` is d1's grid step, on which the sum is computed.
    """
    _check_tol(tol)
    h1, err1 = entropy_quadrature(d1)
    h2, err2 = entropy_quadrature(d2)
    lhs, err_sum = entropy_quadrature(convolve_pair(d1, d2))
    pow1 = math.exp(2.0 * h1) / (2.0 * math.pi * math.e)
    pow2 = math.exp(2.0 * h2) / (2.0 * math.pi * math.e)
    rhs = 0.5 * math.log(2.0 * math.pi * math.e * (pow1 + pow2))
    quad_error = err_sum + (pow1 * err1 + pow2 * err2) / (pow1 + pow2)
    return _report(
        "epi", lhs, rhs, lhs - rhs, tol,
        {"h1": h1, "h2": h2, "n": 1, "quad_error": quad_error, "step": d1.step},
    )


def check_worst_noise(
    d_x: GridDensity, s2_wt: float, s2_wp: float, tol: float = 1e-4
) -> VerificationReport:
    """Information leaked by extra Gaussian noise, non-Gaussian vs Gaussian source.

    The candidate's leak ``h(X + all noise) - h(X + first noise)`` is an
    entropy difference by quadrature on d_x's two convolutions.  The
    Gaussian source with d_x's variance ``var`` leaks, in closed form,
    ``0.5 ln((var + s2_wt + s2_wp) / (var + s2_wt))``.  The non-Gaussian
    source must leak at least as much.  ``quad_error`` sums the
    Richardson errors of the candidate's two entropies; ``step`` is d_x's
    grid step.
    """
    _check_tol(tol)
    if s2_wt <= 0.0 or s2_wp <= 0.0:
        raise InvalidParameter("noise variances must be positive")
    (h_all, err_all), (h_wt, err_wt) = (
        entropy_quadrature(convolve_density(d_x, s2)) for s2 in (s2_wt + s2_wp, s2_wt)
    )
    var = d_x.variance()
    lhs, rhs = h_all - h_wt, 0.5 * math.log((var + s2_wt + s2_wp) / (var + s2_wt))
    return _report(
        "worst_noise", lhs, rhs, lhs - rhs, tol,
        {
            "s2_wt": s2_wt, "s2_wp": s2_wp, "variance": var, "n": 1,
            "quad_error": err_all + err_wt, "step": d_x.step,
        },
    )


def check_eei(
    d_x: GridDensity,
    mu: float,
    s2_w: float,
    r: float,
    s2_v: Optional[float] = None,
    tol: float = 1e-3,
) -> VerificationReport:
    """Quadrature objective of a candidate source vs the Gaussian optimum.

    Without ``s2_v`` the single-noise objective ``h(X) - mu h(X + W)`` is
    compared against the dominating construction at the candidate's own
    variance.  With ``s2_v`` the two-noise objective is compared against
    the certified band optimum.  The margin ``rhs - lhs`` absorbs the
    quadrature budget ``tol``.  ``quad_error`` is the Richardson error of
    the first entropy plus ``mu`` times that of the second; ``step`` is
    d_x's grid step.
    """
    _check_tol(tol)
    var = d_x.variance()
    if not var <= r * (1.0 + 1e-9) < math.inf:
        raise InvalidParameter(
            f"candidate variance {var:.6f} exceeds the budget {r:.6f}, "
            "or the budget is not finite"
        )
    if s2_v is None:
        h1, err1 = entropy_quadrature(d_x)
        h2, err2 = entropy_quadrature(convolve_density(d_x, s2_w))
    else:
        h1, err1 = entropy_quadrature(convolve_density(d_x, s2_w))
        h2, err2 = entropy_quadrature(convolve_density(d_x, s2_v))
    _, rhs, _ = eei_optimum(EEIInstance.from_scalars(mu, s2_w, var if s2_v is None else r, s2_v))
    lhs = h1 - mu * h2
    return _report(
        "eei", lhs, rhs, rhs - lhs, tol,
        {
            "mu": mu, "s2_w": s2_w, "s2_v": s2_v, "r": r, "variance": var, "n": 1,
            "quad_error": err1 + mu * err2, "step": d_x.step,
        },
    )


def _capped_scales(mats: NDArray, frac: NDArray, l_inv: NDArray, trace_r: float):
    """Scale each direction to ``frac`` of the budget trace, capped inside the band.

    With ``R = L L^T``, ``R - s A`` stays PSD exactly while
    ``s <= 1 / lambda_max(L^-1 A L^-T)``; ``l_inv`` is ``L^-1`` and
    ``trace_r`` is ``tr R``, both computed once per search.  Returns the
    scales and a mask of the trials whose scale was capped at that boundary.
    """
    want = frac * trace_r / np.maximum(np.trace(mats, axis1=1, axis2=2), 1e-30)
    cap = 1.0 / np.linalg.eigvalsh(l_inv @ mats @ l_inv.T)[:, -1]
    clipped = want > cap
    return np.where(clipped, cap, want), clipped


# Trials are sampled, capped and scored this many at a time, which keeps
# the working set flat in the trial count.
_SEARCH_CHUNK = 1024


def _trial_draws(seed: int, trials: int, n: int):
    """Yield ``(start, g, frac)`` for each chunk of ``_SEARCH_CHUNK`` trials.

    ``g`` holds the chunk's normal factors (direction ``g g^T``), read from
    ``default_rng([seed, 0])``, and ``frac`` its scale fractions, read from
    ``default_rng([seed, 1])``.  Both streams are read in trial order, so
    trial ``i``'s draw depends on neither the trial count nor the chunk size.
    """
    normals = np.random.default_rng([seed, 0])
    fractions = np.random.default_rng([seed, 1])
    for start in range(0, trials, _SEARCH_CHUNK):
        count = min(_SEARCH_CHUNK, trials - start)
        yield start, normals.standard_normal((count, n, n)), fractions.random(count)


def gaussian_search(
    instance: EEIInstance, trials: int, seed: int, tol: float = 1e-6
) -> VerificationReport:
    """Random search over feasible covariances against the constructed optimum.

    Samples random PSD directions ``g g^T``, ``g`` standard normal from
    ``default_rng([seed, 0])``, scales each by a fraction of the budget
    trace, uniform from ``default_rng([seed, 1])``, and caps the scale at
    the largest one that keeps the draw inside the band.  The best sampled
    objective (earliest trial on ties) must not beat :func:`eei_optimum`'s
    answer, single-noise or two-noise, by more than ``tol``; ``clipped``
    counts the trials capped at the band boundary.  The report's params
    carry ``trials`` and ``seed``, the only check with either.  ``trials``
    must be a positive and ``seed`` a non-negative integer, not a bool.
    """
    if not _whole(trials) or trials < 1:
        raise InvalidParameter(
            f"at least one trial is required: trials must be a positive integer, got {trials!r}")
    if not _whole(seed) or seed < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r}")
    _check_tol(tol)
    w, v, r, mu = instance.s_w, instance.s_v, instance.r, instance.mu
    n = instance.dim

    def stacked_entropy(mats_stack):
        sign, logdet = np.linalg.slogdet(mats_stack)
        logdet = np.where(sign > 0, logdet, -np.inf)
        return 0.5 * (n * LOG_2PI_E + logdet)

    first, second = (0.0, w) if v is None else (w, v)
    l_inv, trace_r = np.linalg.inv(np.linalg.cholesky(r)), np.trace(r)
    best, lhs, clipped = 0, -math.inf, 0
    for start, g, frac in _trial_draws(seed, trials, n):
        mats = g @ g.transpose(0, 2, 1)
        scales, capped = _capped_scales(mats, frac, l_inv, trace_r)
        clipped += int(np.count_nonzero(capped))
        sigma = scales[:, None, None] * mats
        values = stacked_entropy(sigma + first) - mu * stacked_entropy(sigma + second)
        top = int(np.argmax(values))
        if values[top] > lhs:
            best, lhs = start + top, float(values[top])
    _, rhs, _ = eei_optimum(instance)
    return _report(
        "search", lhs, rhs, rhs - lhs, tol,
        {"mu": mu, "n": n, "best_trial": best, "clipped": clipped,
         "trials": int(trials), "seed": int(seed)},
    )


def _subsample(idx_count: int) -> slice:
    stride = max(1, int(math.ceil(idx_count / _MAX_NODES)))
    return slice(0, idx_count, stride)


@functools.lru_cache(maxsize=1)
def _tensor_grid(fx: GridDensity, fy: GridDensity, fv: GridDensity):
    """Kept nodes, kernel ``F[i, j] = fv(y_j - x_i)``, convolution and weights of the probes.

    ``convolve_pair(fx, fv)`` must match fy on fy's grid within 1e-4 in
    sup norm, else :class:`InconsistentDensity` is raised.  Each grid keeps
    every k-th node, k the least stride that leaves at most ``_MAX_NODES``;
    fy's grid then keeps only the nodes where fy exceeds ``_FY_RESOLVED``
    of its peak.  Returns the kept indices ``ix`` and ``iy`` into fx's and
    fy's grids, F (zero outside fv's support), ``fx conv fv`` on the kept
    fy nodes and the trapezoid weights ``wx`` and ``wy`` of the kept nodes.

    A triple's arrays are built once and reused: the last triple's arrays
    are kept, keyed on the three densities' identities, and shared by both
    probes and every repeated call.  That is sound because a
    :class:`GridDensity` compares by identity and its samples are
    read-only; the returned arrays are read-only too.  An inconsistent
    triple is not kept, so every call on it raises.
    """
    conv_on_fy = _interp_density(convolve_pair(fx, fv), fy.grid)
    dev = float(np.max(np.abs(fy.values - conv_on_fy)))
    if dev > 1e-4:
        raise InconsistentDensity(
            f"fy deviates from fx conv fv by {dev:.3e} in sup norm"
        )
    sx, sy = _subsample(fx.points), _subsample(fy.points)
    ix = np.arange(fx.points)[sx]
    iy = np.arange(fy.points)[sy]
    iy = iy[fy.values[iy] > _FY_RESOLVED * float(np.max(fy.values))]
    fvxy = _interp_density(fv, fy.grid[iy][None, :] - fx.grid[ix][:, None])
    conv = conv_on_fy[iy]
    wx = _halved_ends(np.full(ix.size, fx.step * sx.step))
    wy = _halved_ends(np.full(iy.size, fy.step * sy.step))
    for a in (ix, iy, fvxy, conv, wx, wy):
        a.setflags(write=False)
    return ix, iy, fvxy, conv, wx, wy


# The first-variation probe factors this many x nodes at a time, which keeps
# a block's four weighted columns near 1 MB on a 512-node fy grid.
_PROBE_BLOCK = 64


def variational_first_residual(
    fx: GridDensity,
    fy: GridDensity,
    fv: GridDensity,
    mu: float,
) -> float:
    """Weighted RMS residual of the first-variation stationarity equation.

    The output-density multiplier is pinned by the output variation to
    ``-mu * (fx conv fv)(y) / fy(y)``; the remaining multipliers (the
    constant, the entropy-constraint coefficient, and the quadratic
    moment coefficients) are fitted by least squares weighted by
    ``fx(x) * fv(y - x)`` on the nodes of :func:`_tensor_grid`, which
    also holds the convolution on those nodes and rejects fy when it is
    not that convolution.  Gaussian triples satisfy the equation up to
    grid error; non-stationary triples leave an order-one residual.

    The design has six weighted columns: the basis 1, ``-ln fx``,
    ``xy - x^2``, ``x^2``, ``y^2`` and the target, each times
    ``s = sqrt(fx(x) fv(y - x))``.  Only its R factor is formed, and the
    six columns never are.  On x node i, with ``d = y - x_i`` and t the
    target, all six lie in the span of four centred columns
    ``A_i = (s, d s, d^2 s, t s)``: they are ``A_i C_i`` for the fixed
    4x6 matrix C_i whose columns give ``1``, ``-ln fx_i``, ``x_i d``,
    ``x_i^2``, ``y^2 = d^2 + 2 x_i d + x_i^2`` and ``t``.  So with
    ``A_i = Q_i R_i`` the design's R factor is that of the stacked
    ``R_i C_i``.  The A_i are built and factored ``_PROBE_BLOCK`` x nodes
    at a time, so the working set stays flat in the x grid; centring on
    x_i keeps the columns' scales close, where the basis ``(s, y s,
    y^2 s, t s)`` would lose digits to cancellation.

    The squared residual is ``R[5, 5]^2 + ||R5 c - r5||^2`` with
    ``R5, r5 = R[:5, :5], R[:5, 5]`` and c the least-squares solution of
    ``R5 c = r5`` under the full design's rank cutoff: for Gaussian fx,
    ``-ln fx`` is a combination of the columns 1 and x^2, so R5 is
    singular up to rounding.
    """
    mu = validated_mu(mu)
    ix, iy, fvxy, conv, _, _ = _tensor_grid(fx, fy, fv)
    x, fxv = fx.grid[ix], fx.values[ix]
    y, fyv = fy.grid[iy], fy.values[iy]
    ln_fx = np.log(np.clip(fxv, _LOG_FLOOR, None))
    # the target -(mu ln fy - ln fx - mu (mu - 1) ln fv - lam) is
    # mu (mu - 1) ln fv + ln fx - target_y
    target_y = mu * (np.log(fyv) + conv / fyv)
    # C_i, replaced block by block by R_i C_i
    rc = np.zeros((x.size, 4, 6))
    rc[:, 0, 0] = 1.0
    rc[:, 0, 1] = -ln_fx
    rc[:, 1, 2] = x
    rc[:, 0, 3] = rc[:, 0, 4] = x**2
    rc[:, 1, 4] = 2.0 * x
    rc[:, 2, 4] = rc[:, 3, 5] = 1.0
    for lo in range(0, x.size, _PROBE_BLOCK):
        blk = slice(lo, lo + _PROBE_BLOCK)
        f, d = fvxy[blk], y - x[blk, None]
        a = np.empty((4,) + f.shape)
        np.sqrt(fxv[blk, None] * f, out=a[0])
        np.multiply(d, a[0], out=a[1])
        np.multiply(d, a[1], out=a[2])
        a[3] = mu * (mu - 1.0) * np.log(np.clip(f, _LOG_FLOOR, None)) + ln_fx[blk, None]
        a[3] -= target_y
        a[3] *= a[0]
        rc[blk] = np.linalg.qr(a.transpose(1, 2, 0), mode="r") @ rc[blk]
    r = np.linalg.qr(rc.reshape(-1, 6), mode="r")
    coef, *_ = np.linalg.lstsq(r[:5, :5], r[:5, 5], rcond=np.finfo(float).eps * fvxy.size)
    fit = r[:5, :5] @ coef - r[:5, 5]
    return math.sqrt((r[5, 5] ** 2 + float(fit @ fit)) / float(fxv @ np.sum(fvxy, axis=1)))


def variational_second_form(
    fx: GridDensity,
    fy: GridDensity,
    fv: GridDensity,
    mu: float,
    hx: NDArray,
    hy: NDArray,
    alpha1: float,
) -> float:
    """Second-variation quadratic form for a perturbation pair.

    Evaluates the double integral of
    ``-(1 - alpha1) fv hx^2 / fx + 2 mu fv hx hy / fy
    - mu fx fv hy^2 / fy^2``
    by the trapezoid rule on the nodes of :func:`_tensor_grid`.  At
    ``alpha1 = 1 - mu`` the integrand is a completed square and the value
    cannot be positive beyond rounding; the direction ``hx = fx * hy / fy``
    annihilates it.

    The integrand is ``F_ij (a_i + b_i c_j + d_i e_j)`` with
    ``a = -(1 - alpha1) hx^2 / fx``, ``b = 2 mu hx``, ``c = hy / fy``,
    ``d = -mu fx`` and ``e = c^2``: three bilinear forms in F and the
    trapezoid weights, read from one ``(nx, ny) @ (ny, 3)`` product.
    F and the weights come from :func:`_tensor_grid`, which builds them
    once per triple, so repeated calls on one triple cost only that
    product; it raises :class:`InconsistentDensity` when fy is not
    ``fx conv fv``.
    """
    mu = validated_mu(mu)
    if not 1.0 - mu - 1e-12 <= alpha1 < math.inf:
        raise InvalidParameter(f"alpha1 must be finite and at least 1 - mu, got {alpha1}")
    hx = np.asarray(hx, dtype=float)
    hy = np.asarray(hy, dtype=float)
    if hx.shape != (fx.points,) or hy.shape != (fy.points,):
        raise InvalidParameter("perturbations must match the density grids")
    if not (np.all(np.isfinite(hx)) and np.all(np.isfinite(hy))):
        raise InvalidParameter("perturbations must be finite")
    ix, iy, fvxy, _, wx, wy = _tensor_grid(fx, fy, fv)
    fxv, hxv = np.clip(fx.values[ix], _SQUARE_FLOOR, None), hx[ix]
    c = hy[iy] / fy.values[iy]
    rows = np.stack([-(1.0 - alpha1) * hxv**2 / fxv, 2.0 * mu * hxv, -mu * fxv], axis=1)
    cols = np.stack([np.ones_like(c), c, c**2], axis=1)
    return float(np.sum(wx[:, None] * rows * (fvxy @ (wy[:, None] * cols))))
