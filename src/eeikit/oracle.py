"""Grid-based numerical verification of the entropy inequalities.

Everything here is deliberately independent of the closed-form machinery
in :mod:`eeikit.construct`: densities live on uniform grids, entropies
come from trapezoidal quadrature, and Gaussian optima are challenged by
random search.  Agreement between the two routes is the evidence the
package offers, so none of these checks may call back into the formulas
they are meant to validate.

Reports are emitted as :class:`VerificationReport` records which
serialize to JSON lines.  Random-search trial ``i`` reads a fixed block
of one counter-based Philox stream keyed by the seed, so a batch can be
partitioned across workers in any way without changing the result.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from .construct import (
    EEIInstance,
    construct_l,
    eei_optimum,
    objective_single_noise,
    validated_mu,
)
from .errors import (
    GridTooCoarse,
    InconsistentDensity,
    InvalidParameter,
    UnnormalizedDensity,
)

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


@dataclass(frozen=True, eq=False)
class GridDensity:
    """One-dimensional probability density sampled on a uniform grid.

    ``values[i]`` is the density at ``support_lo + i * step``.  The
    trapezoidal integral must equal one within ``1e-6`` and all samples
    must be nonnegative; violations raise at construction time.
    """

    support_lo: float
    support_hi: float
    values: NDArray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
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
        if variance <= 0.0:
            raise InvalidParameter("variance must be positive")
        sigma = math.sqrt(variance)
        lo = mean - _HALF_WIDTH * sigma
        hi = mean + _HALF_WIDTH * sigma
        x = np.linspace(lo, hi, points)
        vals = np.exp(-0.5 * (x - mean) ** 2 / variance) / math.sqrt(
            2.0 * math.pi * variance
        )
        return cls(lo, hi, vals)

    @classmethod
    def uniform(cls, lo: float, hi: float, points: int = 4001) -> "GridDensity":
        """Uniform density with the support endpoints placed on grid nodes."""
        if not hi > lo:
            raise InvalidParameter("uniform support needs hi > lo")
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
        if var_a <= 0.0 or var_b <= 0.0:
            raise InvalidParameter("component variances must be positive")
        sa, sb = math.sqrt(var_a), math.sqrt(var_b)
        lo = min(mean_a - _HALF_WIDTH * sa, mean_b - _HALF_WIDTH * sb)
        hi = max(mean_a + _HALF_WIDTH * sa, mean_b + _HALF_WIDTH * sb)
        x = np.linspace(lo, hi, points)
        va = np.exp(-0.5 * (x - mean_a) ** 2 / var_a) / math.sqrt(
            2.0 * math.pi * var_a
        )
        vb = np.exp(-0.5 * (x - mean_b) ** 2 / var_b) / math.sqrt(
            2.0 * math.pi * var_b
        )
        return cls(lo, hi, weight * va + (1.0 - weight) * vb)

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[NDArray], NDArray],
        lo: float,
        hi: float,
        points: int = 4001,
        normalize: bool = True,
    ) -> "GridDensity":
        """Sample ``fn`` on the grid, optionally renormalizing its mass."""
        x = np.linspace(lo, hi, points)
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape != x.shape:
            raise InvalidParameter("callable must return one value per grid node")
        vals = np.clip(vals, 0.0, None)
        if normalize:
            mass = float(np.trapezoid(vals, x))
            if not (np.isfinite(mass) and mass > 0.0):
                raise InvalidParameter("callable has nonpositive or divergent mass")
            vals = vals / mass
        return cls(lo, hi, vals)


class EntropyEstimate(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numeric check, serializable as a JSON line.

    ``margin`` is oriented so that nonnegative means the claim holds:
    ``lhs - rhs`` for lower-bound claims and ``rhs - lhs`` for
    upper-bound claims.  ``passed`` is derived solely from
    ``margin >= -tol``.
    """

    check: str
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool
    trials: int
    seed: int
    elapsed: float
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "passed": self.passed,
            "trials": self.trials,
            "seed": self.seed,
            "elapsed": self.elapsed,
        }
        out.update(self.params)
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _report(check, lhs, rhs, margin, tol, trials, seed, t0, params) -> VerificationReport:
    return VerificationReport(
        check=check,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        tol=float(tol),
        passed=bool(margin >= -tol),
        trials=int(trials),
        seed=int(seed),
        elapsed=time.perf_counter() - t0,
        params=params,
    )


def entropy_quadrature(d: GridDensity) -> EntropyEstimate:
    """Differential entropy in nats by trapezoidal quadrature.

    The integrand uses the convention ``0 * ln 0 = 0``.  The reported
    error is a Richardson estimate from comparing against the
    half-resolution grid, so it reflects the quadrature truncation, not
    any bias in the density samples themselves.
    """
    vals = d.values
    mass = float(np.trapezoid(vals, dx=d.step))
    if abs(mass - 1.0) > _MASS_TOL:
        raise UnnormalizedDensity(f"density mass {mass:.8f} is not 1 within {_MASS_TOL}")
    integrand = np.where(
        vals > 0.0, -vals * np.log(np.clip(vals, _LOG_FLOOR, None)), 0.0
    )
    value = float(np.trapezoid(integrand, dx=d.step))
    coarse = float(np.trapezoid(integrand[::2], dx=2.0 * d.step))
    return EntropyEstimate(value=value, error=abs(value - coarse) / 3.0)


def _halved_ends(vals: NDArray) -> NDArray:
    out = vals.copy()
    out[0] *= 0.5
    out[-1] *= 0.5
    return out


def _trapezoid_convolution(a: NDArray, b: NDArray, step: float) -> NDArray:
    """Full linear convolution of two grids with common step, by the trapezoid rule.

    Halving the end samples of both inputs makes the discrete convolution
    the trapezoid rule applied to the defining integral.  It is computed
    through a real FFT zero-padded to the next power of two.  The exact
    convolution of nonnegative samples is nonnegative, but FFT rounding
    leaves values around -1e-19 in the far tails, so the output is clipped
    at zero.
    """
    size = a.size + b.size - 1
    nfft = 1 << (size - 1).bit_length()
    spectrum = np.fft.rfft(_halved_ends(a), nfft) * np.fft.rfft(_halved_ends(b), nfft)
    return np.clip(np.fft.irfft(spectrum, nfft)[:size], 0.0, None) * step


def convolve_density(d: GridDensity, sigma2: float) -> GridDensity:
    """Density of X + N(0, sigma2) on a grid enlarged by 8 sigma per side.

    Trapezoid-rule convolution against a trapezoid-normalized Gaussian
    kernel, computed by FFT; mass is preserved within 1e-8.  The output is
    clipped at zero, since FFT rounding leaves tiny negative values in the
    far tails where the exact convolution is nonnegative.  Grids coarser
    than a quarter of the noise deviation are rejected because the kernel
    would be undersampled.
    """
    if not sigma2 > 0.0:
        raise InvalidParameter("noise variance must be positive")
    sigma = math.sqrt(sigma2)
    step = d.step
    if step > sigma / 4.0:
        raise GridTooCoarse(
            f"grid step {step:.3e} exceeds sigma/4 = {sigma / 4.0:.3e}"
        )
    m = int(math.ceil(8.0 * sigma / step))
    t = np.arange(-m, m + 1) * step
    kernel = np.exp(-0.5 * t**2 / sigma2)
    kernel /= np.trapezoid(kernel, dx=step)
    out = _trapezoid_convolution(d.values, kernel, step)
    # The trapezoid rule carries the product of the two unit masses over
    # to the output.
    return GridDensity(d.support_lo - m * step, d.support_hi + m * step, out)


def _resample(d: GridDensity, step: float) -> GridDensity:
    """Linear resampling onto a grid with the requested step."""
    points = max(int(math.floor((d.support_hi - d.support_lo) / step)) + 1, 3)
    hi = d.support_lo + (points - 1) * step
    x = np.linspace(d.support_lo, hi, points)
    vals = np.interp(x, d.grid, d.values, left=0.0, right=0.0)
    mass = float(np.trapezoid(vals, dx=step))
    return GridDensity(d.support_lo, hi, vals / mass)


def convolve_pair(d1: GridDensity, d2: GridDensity) -> GridDensity:
    """Density of the sum of two independent variables on d1's grid step.

    ``d2`` is linearly resampled onto that step when the steps differ.  The
    trapezoid-rule convolution is computed by FFT, clipped at zero (FFT
    rounding leaves tiny negative values in the far tails, where the exact
    convolution is nonnegative) and renormalized to unit mass.
    """
    if abs(d2.step - d1.step) > 1e-12 * d1.step:
        d2 = _resample(d2, d1.step)
    step = d1.step
    out = _trapezoid_convolution(d1.values, d2.values, step)
    mass = float(np.trapezoid(out, dx=step))
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
    t0 = time.perf_counter()
    h1, err1 = entropy_quadrature(d1)
    h2, err2 = entropy_quadrature(d2)
    lhs, err_sum = entropy_quadrature(convolve_pair(d1, d2))
    pow1 = math.exp(2.0 * h1) / (2.0 * math.pi * math.e)
    pow2 = math.exp(2.0 * h2) / (2.0 * math.pi * math.e)
    rhs = 0.5 * math.log(2.0 * math.pi * math.e * (pow1 + pow2))
    quad_error = err_sum + (pow1 * err1 + pow2 * err2) / (pow1 + pow2)
    return _report(
        "epi", lhs, rhs, lhs - rhs, tol, 1, 0, t0,
        {"h1": h1, "h2": h2, "n": 1, "quad_error": quad_error, "step": d1.step},
    )


def _matched_gaussian(d: GridDensity) -> GridDensity:
    """Normal density with d's mean and variance on its own full-width grid.

    The comparison density gets the standard eight-deviation support
    rather than d's grid: a compactly supported candidate would truncate
    the Gaussian tails and silently change its variance.
    """
    return GridDensity.gaussian(d.variance(), mean=d.mean(), points=d.points)


def check_worst_noise(
    d_x: GridDensity, s2_wt: float, s2_wp: float, tol: float = 1e-4
) -> VerificationReport:
    """Information leaked by extra Gaussian noise, non-Gaussian vs Gaussian source.

    Both mutual informations are evaluated as entropy differences,
    ``h(X + all noise) - h(X + first noise)``, once for ``d_x`` and once
    for a Gaussian source with matching variance on the same grid.  The
    non-Gaussian source must leak at least as much.  ``quad_error`` sums
    the Richardson errors of the four entropies; ``step`` is d_x's grid
    step.
    """
    if s2_wt <= 0.0 or s2_wp <= 0.0:
        raise InvalidParameter("noise variances must be positive")
    t0 = time.perf_counter()

    def leak(d):
        (h_all, e_all), (h_wt, e_wt) = (
            entropy_quadrature(convolve_density(d, s2)) for s2 in (s2_wt + s2_wp, s2_wt)
        )
        return h_all - h_wt, e_all + e_wt

    lhs, err_x = leak(d_x)
    rhs, err_g = leak(_matched_gaussian(d_x))
    return _report(
        "worst_noise", lhs, rhs, lhs - rhs, tol, 1, 0, t0,
        {
            "s2_wt": s2_wt, "s2_wp": s2_wp, "variance": d_x.variance(), "n": 1,
            "quad_error": err_x + err_g, "step": d_x.step,
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
    t0 = time.perf_counter()
    var = d_x.variance()
    if not (var <= r * (1.0 + 1e-9)):
        raise InvalidParameter(
            f"candidate variance {var:.6f} exceeds the budget {r:.6f}"
        )
    if s2_v is None:
        h1, err1 = entropy_quadrature(d_x)
        h2, err2 = entropy_quadrature(convolve_density(d_x, s2_w))
        cert = construct_l(np.array([[var]]), np.array([[s2_w]]), mu)
        rhs = objective_single_noise(cert.s_x_star, np.array([[s2_w]]), mu)
    else:
        h1, err1 = entropy_quadrature(convolve_density(d_x, s2_w))
        h2, err2 = entropy_quadrature(convolve_density(d_x, s2_v))
        instance = EEIInstance.from_scalars(mu, w=s2_w, r=r, v=s2_v)
        _, rhs, _ = eei_optimum(instance)
    lhs = h1 - mu * h2
    return _report(
        "eei", lhs, rhs, rhs - lhs, tol, 1, 0, t0,
        {
            "mu": mu, "s2_w": s2_w, "s2_v": s2_v, "r": r, "variance": var, "n": 1,
            "quad_error": err1 + mu * err2, "step": d_x.step,
        },
    )


def _trial_directions(seed: int, start: int, count: int, n: int):
    """Normal factors ``g`` (direction ``g g^T``) and scale fractions.

    Trial ``i`` reads its own fixed block of the ``Philox(seed)`` stream:
    ``2 * ceil(n*n / 2)`` uniforms that Box-Muller turns into the ``n*n``
    normals, one for the fraction, padded to a multiple of four because
    Philox emits four doubles per counter step.  Trials ``start`` to
    ``start + count - 1`` therefore come out the same whichever way a
    batch is partitioned.
    """
    half = (n * n + 1) // 2
    block = -(-(2 * half + 1) // 4) * 4
    bits = np.random.Philox(seed)
    bits.advance(start * block // 4)
    u = np.random.Generator(bits).random((count, block))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
    angle = 2.0 * math.pi * u[:, half : 2 * half]
    normals = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
    return normals[:, : n * n].reshape(count, n, n), u[:, 2 * half]


def _capped_scales(mats: NDArray, frac: NDArray, r: NDArray):
    """Scale each direction to ``frac`` of the budget trace, capped inside the band.

    With ``R = L L^T``, ``R - s A`` stays PSD exactly while
    ``s <= 1 / lambda_max(L^-1 A L^-T)``.  Returns the scales and a mask of
    the trials whose scale was capped at that boundary.
    """
    l_inv = np.linalg.inv(np.linalg.cholesky(r))
    want = frac * np.trace(r) / np.maximum(np.trace(mats, axis1=1, axis2=2), 1e-30)
    cap = 1.0 / np.linalg.eigvalsh(l_inv @ mats @ l_inv.T)[:, -1]
    clipped = want > cap
    return np.where(clipped, cap, want), clipped


# Trials are sampled, capped and scored this many at a time, which keeps
# the working set flat in the trial count.
_SEARCH_CHUNK = 1024


def gaussian_search(
    instance: EEIInstance, trials: int, seed: int, tol: float = 1e-6
) -> VerificationReport:
    """Random search over feasible covariances against the constructed optimum.

    Samples random PSD directions, scales each by a uniform fraction of
    the budget trace, and caps the scale at the largest one that keeps
    the draw inside the band.  The best sampled objective (earliest trial
    on ties) must not beat the certified optimum by more than ``tol``;
    ``clipped`` counts the trials capped at the band boundary.
    """
    if trials < 1:
        raise InvalidParameter("at least one trial is required")
    t0 = time.perf_counter()
    w, v, r, mu = instance.s_w, instance.s_v, instance.r, instance.mu
    n = instance.dim

    def stacked_entropy(mats_stack):
        sign, logdet = np.linalg.slogdet(mats_stack)
        logdet = np.where(sign > 0, logdet, -np.inf)
        return 0.5 * (n * (math.log(2.0 * math.pi) + 1.0) + logdet)

    best, lhs, clipped = 0, -math.inf, 0
    for start in range(0, trials, _SEARCH_CHUNK):
        g, frac = _trial_directions(seed, start, min(_SEARCH_CHUNK, trials - start), n)
        mats = g @ g.transpose(0, 2, 1)
        scales, capped = _capped_scales(mats, frac, r)
        clipped += int(np.count_nonzero(capped))
        sigma = scales[:, None, None] * mats
        if v is None:
            values = stacked_entropy(sigma) - mu * stacked_entropy(sigma + w[None])
        else:
            values = stacked_entropy(sigma + w[None]) - mu * stacked_entropy(
                sigma + v[None]
            )
        top = int(np.argmax(values))
        if values[top] > lhs:
            best, lhs = start + top, float(values[top])
    if v is None:
        star = construct_l(r, w, mu).s_x_star
        rhs = objective_single_noise(star, w, mu)
    else:
        _, rhs, _ = eei_optimum(instance)
    return _report(
        "search", lhs, rhs, rhs - lhs, tol, trials, seed, t0,
        {"mu": mu, "n": n, "best_trial": best, "clipped": clipped},
    )


def _subsample(idx_count: int) -> slice:
    stride = max(1, int(math.ceil(idx_count / _MAX_NODES)))
    return slice(0, idx_count, stride)


def _interp_density(d: GridDensity, points: NDArray) -> NDArray:
    return np.interp(points, d.grid, d.values, left=0.0, right=0.0)


def _tensor_grid(fx: GridDensity, fy: GridDensity, fv: GridDensity):
    """Kept nodes of the variational probes and ``F[i, j] = fv(y_j - x_i)``.

    Each grid keeps every k-th node, k the least stride that leaves at
    most ``_MAX_NODES``; fy's grid then keeps only the nodes where fy
    exceeds ``_FY_RESOLVED`` of its peak.  Returns the kept indices ``ix``
    and ``iy`` into fx's and fy's grids, and F, zero outside fv's support.
    """
    ix = np.arange(fx.points)[_subsample(fx.points)]
    iy = np.arange(fy.points)[_subsample(fy.points)]
    iy = iy[fy.values[iy] > _FY_RESOLVED * float(np.max(fy.values))]
    fvxy = _interp_density(fv, fy.grid[iy][None, :] - fx.grid[ix][:, None])
    return ix, iy, fvxy


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
    ``fx(x) * fv(y - x)`` on the nodes of :func:`_tensor_grid`.  Gaussian
    triples satisfy the equation up to grid error; non-stationary triples
    leave an order-one residual.

    The weighted basis columns and target fill one six-column design, of
    which only the R factor is formed: a QR per x node's rows, then one of
    the stacked factors.  The squared residual is then
    ``R[5, 5]^2 + ||R5 c - r5||^2`` with ``R5, r5 = R[:5, :5], R[:5, 5]``
    and c the least-squares solution of ``R5 c = r5`` under the full
    design's rank cutoff: for Gaussian fx, ``-ln fx`` is a combination of
    the columns 1 and x^2, so R5 is singular up to rounding.
    """
    mu = validated_mu(mu)
    conv = convolve_pair(fx, fv)
    conv_on_fy = _interp_density(conv, fy.grid)
    dev = float(np.max(np.abs(fy.values - conv_on_fy)))
    if dev > 1e-4:
        raise InconsistentDensity(
            f"fy deviates from fx conv fv by {dev:.3e} in sup norm"
        )
    ix, iy, fvxy = _tensor_grid(fx, fy, fv)
    x, fxv = fx.grid[ix][:, None], fx.values[ix][:, None]
    y, fyv = fy.grid[iy], fy.values[iy]
    ln_fx = np.log(np.clip(fxv, _LOG_FLOOR, None))
    weight = fxv * fvxy
    # the basis 1, -ln fx, xy - x^2, x^2, y^2 and the target
    # -(mu ln fy - ln fx - mu (mu - 1) ln fv - lam), each times sqrt(weight)
    a = np.empty((6,) + weight.shape)
    a[0], a[1], a[2], a[3], a[4] = 1.0, -ln_fx, x * y - x**2, x**2, y**2
    a[5] = mu * (mu - 1.0) * np.log(np.clip(fvxy, _LOG_FLOOR, None)) + ln_fx
    a[5] -= mu * (np.log(fyv) + conv_on_fy[iy] / fyv)
    a *= np.sqrt(weight)
    r = np.linalg.qr(a.transpose(1, 2, 0), mode="r").reshape(-1, 6)
    r = np.linalg.qr(r, mode="r")
    coef, *_ = np.linalg.lstsq(r[:5, :5], r[:5, 5], rcond=np.finfo(float).eps * weight.size)
    fit = r[:5, :5] @ coef - r[:5, 5]
    return math.sqrt((r[5, 5] ** 2 + float(fit @ fit)) / float(np.sum(weight)))


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
    """
    mu = validated_mu(mu)
    if alpha1 < 1.0 - mu - 1e-12:
        raise InvalidParameter("alpha1 must be at least 1 - mu")
    hx = np.asarray(hx, dtype=float)
    hy = np.asarray(hy, dtype=float)
    if hx.shape != (fx.points,) or hy.shape != (fy.points,):
        raise InvalidParameter("perturbations must match the density grids")
    ix, iy, fvxy = _tensor_grid(fx, fy, fv)
    fxv, hxv = np.clip(fx.values[ix], _SQUARE_FLOOR, None), hx[ix]
    c = hy[iy] / fy.values[iy]
    rows = np.stack([-(1.0 - alpha1) * hxv**2 / fxv, 2.0 * mu * hxv, -mu * fxv], axis=1)
    cols = np.stack([np.ones_like(c), c, c**2], axis=1)
    wx = _halved_ends(np.full(ix.size, fx.step * _subsample(fx.points).step))
    wy = _halved_ends(np.full(iy.size, fy.step * _subsample(fy.points).step))
    return float(np.sum(wx[:, None] * rows * (fvxy @ (wy[:, None] * cols))))
