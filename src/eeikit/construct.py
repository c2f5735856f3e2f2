"""Constructive solvers for the extremal entropy inequality.

Two Gaussian objectives appear throughout:

* single-noise form ``F(S) = h(S) - mu * h(S + W)``;
* two-noise form ``F(S) = h(S + W) - mu * h(S + V)`` maximized over
  ``0 <= S <= R`` in the PSD order.

The split constructions return a :class:`ConstructionCertificate` whose
residuals numerically witness the algebra that makes a Gaussian input
optimal: a PSD multiplier annihilating part of the split, which also
zeroes its Markov-chain kernel, and a reduced noise below the original.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BadMu,
    DimensionMismatch,
    DominationFailed,
    InvalidParameter,
    NoConvergence,
    SplitInfeasible,
)
from .gaussmat import (
    LOG_2PI_E,
    cov_to_json,
    gaussian_entropies,
    gaussian_entropy,
    min_eig,
    simdiag_basis,
    spectral_scale,
    symmetrize,
    validated_pd,
)

__all__ = [
    "EEIInstance",
    "ConstructionCertificate",
    "objective_single_noise",
    "objective_two_noise",
    "matched_alpha",
    "f_alpha",
    "f_alpha_argmax",
    "construct_l",
    "construct_k",
    "dominating_gaussian",
    "eei_optimum",
]

# Threshold comparisons against mu - 1 (or its inverse) use this absolute
# slack; exactly at the boundary both branch formulas agree at zero.
_BRANCH_TOL = 1e-12


def validated_mu(mu) -> float:
    """``mu`` as a float, after checking that it is finite and exceeds 1."""
    mu = float(mu)
    if not (1.0 < mu < math.inf):
        raise BadMu(f"mu must exceed 1 and be finite, got {mu}")
    return mu


@dataclass(frozen=True)
class EEIInstance:
    """Problem data: weight mu > 1, noise covariances, and the constraint R.

    ``s_v`` is optional; when absent the instance describes the single-noise
    objective ``h(S) - mu * h(S + W)``.
    """

    mu: float
    s_w: NDArray
    r: NDArray
    s_v: Optional[NDArray] = None

    def __post_init__(self):
        validated_mu(self.mu)
        w = validated_pd(self.s_w, "s_w")
        r = validated_pd(self.r, "r")
        object.__setattr__(self, "s_w", w)
        object.__setattr__(self, "r", r)
        if self.s_v is not None:
            v = validated_pd(self.s_v, "s_v")
            object.__setattr__(self, "s_v", v)
            if v.shape != w.shape:
                raise DimensionMismatch("s_v and s_w dimensions differ")
        if r.shape != w.shape:
            raise DimensionMismatch("r and s_w dimensions differ")

    @property
    def dim(self) -> int:
        return self.s_w.shape[0]

    @classmethod
    def from_scalars(cls, mu: float, w: float, r: float, v: float | None = None):
        return cls(
            mu=mu,
            s_w=np.array([[float(w)]]),
            r=np.array([[float(r)]]),
            s_v=None if v is None else np.array([[float(v)]]),
        )


@dataclass(frozen=True)
class ConstructionCertificate:
    """Numerical witness of a noise/source split.

    Fields
    ------
    multiplier:
        The PSD matrix whose support is confined to the annihilated part of
        the split (called L for the source split, K for the noise split).
    s_w_tilde:
        Reduced noise covariance, below the original noise in PSD order.
    s_x_star:
        The optimal Gaussian covariance produced by the split.
    s_complement:
        The companion matrix of the split: the removed source part for the
        source split, or the second reduced-noise covariance for the noise
        split.
    zero_product_residual:
        ``||multiplier @ annihilated||_F``; exact zero in exact arithmetic.
        The split chain's Markov kernel is ``E + E^T`` with ``||E||`` at
        most a matrix norm times this residual.
    order_residual:
        Most negative eigenvalue over all PSD claims of the certificate
        (positive when every claim holds strictly).
    """

    multiplier: NDArray
    s_w_tilde: NDArray
    s_x_star: NDArray
    s_complement: NDArray
    zero_product_residual: float
    order_residual: float

    def as_dict(self) -> dict:
        return {name: cov_to_json(v) if isinstance(v, np.ndarray) else float(v)
                for name, v in vars(self).items()}


def objective_single_noise(s, s_w, mu: float) -> float:
    """h(S) - mu * h(S + W) for Gaussian covariances, in nats."""
    s = np.asarray(s, dtype=float)
    w = np.asarray(s_w, dtype=float)
    return gaussian_entropy(s) - mu * gaussian_entropy(s + w)


def objective_two_noise(s, s_w, s_v, mu: float) -> float:
    """h(S + W) - mu * h(S + V) for Gaussian covariances, in nats."""
    s = np.asarray(s, dtype=float)
    w, v = np.asarray(s_w, dtype=float), np.asarray(s_v, dtype=float)
    return gaussian_entropy(s + w) - mu * gaussian_entropy(s + v)


def matched_alpha(h_x: float, s_w) -> float:
    """Scale alpha so that a Gaussian with covariance alpha * W has entropy h_x.

    Closed form: ``alpha = exp(2 h_x / n) / (2 pi e * det(W)^(1/n))``.
    """
    w = validated_pd(s_w, "s_w")
    n = w.shape[0]
    log_det = float(np.sum(np.log(np.linalg.eigvalsh(w))))
    return math.exp(2.0 * h_x / n - LOG_2PI_E - log_det / n)


def f_alpha(alpha: float, instance: EEIInstance) -> float:
    """Unconstrained scale objective h(alpha*W) - mu * h((alpha+1)*W)."""
    if not (alpha > 0.0):
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    w = instance.s_w
    return gaussian_entropy(alpha * w) - instance.mu * gaussian_entropy((alpha + 1.0) * w)


def f_alpha_argmax(instance: EEIInstance) -> float:
    """Argmax of :func:`f_alpha`, which is ``1 / (mu - 1)``.

    ``f_alpha = (n/2)(ln alpha - mu ln(alpha + 1)) + const``, whose
    derivative ``(n/2)(1/alpha - mu/(alpha + 1))`` vanishes only there.
    """
    return 1.0 / (instance.mu - 1.0)


def _mode_split(a, b, names: tuple, thr: float, rule: Callable):
    """Validated a and b, the multiplier and the reduced noise in ``simdiag_basis(a, b)``.

    Per mode the multiplier ``Q diag(m) Q^T`` has ``m = 0`` where ``d <= thr`` (with
    ``_BRANCH_TOL`` slack), else ``rule(d)``; the reduced noise is ``P^T diag(min(d, thr)) P``.
    """
    a, b, q, d, p = simdiag_basis(a, b, names, b_pd=True)
    m = np.where(d <= thr + _BRANCH_TOL, 0.0, rule(d))
    t = np.minimum(d, thr)
    return a, b, symmetrize(q @ (m[:, None] * q.T)), symmetrize(p.T @ (t[:, None] * p))


def construct_l(s_x, s_w, mu: float) -> ConstructionCertificate:
    """Split a source X = X* + X' so that a PSD multiplier L annihilates X'.

    In the basis where ``Q^T X Q = I`` and ``Q^T W Q = diag(d)``, with
    ``P = Q^-1``, each mode of ``L = Q diag(d_l) Q^T`` gets

        d_l = 0                                if d <= mu - 1,
        d_l = (d - (mu - 1)) / (mu (1 + d))    otherwise.

    The reduced noise is explicit, ``W~ = P^T diag(min(d, mu - 1)) P``, and
    solves ``inv(X + W~) = inv(X + W) + L``.  ``X* = W~ / (mu - 1)`` and
    ``X' = X - X*``.  The certificate checks L @ X' = 0 and the orderings
    ``X* <= X`` and ``W~ <= W``; the chain (X'; X' + X* + W~; X + W) has
    Markov kernel ``E + E^T`` with ``E = (X + W~) L X'``.
    """
    mu = validated_mu(mu)
    x, w, l_mat, w_tilde = _mode_split(s_x, s_w, ("s_x", "s_w"), mu - 1.0,
                                       lambda d: (d - (mu - 1.0)) / (mu * (1.0 + d)))
    x_star = w_tilde / (mu - 1.0)
    x_prime = symmetrize(x - x_star)
    order = min_eig(x_prime, w - w_tilde, w_tilde, l_mat)
    return ConstructionCertificate(
        multiplier=l_mat,
        s_w_tilde=w_tilde,
        s_x_star=x_star,
        s_complement=x_prime,
        zero_product_residual=float(np.linalg.norm(l_mat @ x_prime)),
        order_residual=order,
    )


def dominating_gaussian(s_x, s_w, mu: float):
    """Gaussian covariance dominating X for the single-noise objective.

    Returns ``(s_x_star, certificate)`` where the domination
    ``F(X*) >= F(X)`` is verified numerically; a violation beyond 1e-8
    raises :class:`DominationFailed` (it would indicate a bug, not a
    property of the inputs).
    """
    cert = construct_l(s_x, s_w, mu)
    x, w, star = np.asarray(s_x, dtype=float), np.asarray(s_w, dtype=float), cert.s_x_star
    h = gaussian_entropies(x, x + w, star, star + w)
    f_at_x, f_at_star = h[0] - mu * h[1], h[2] - mu * h[3]
    if f_at_star < f_at_x - 1e-8:
        raise DominationFailed(
            f"constructed covariance scores {f_at_star} below input's {f_at_x}"
        )
    return cert.s_x_star, cert


def construct_k(s_w, s_v_tilde, mu: float) -> ConstructionCertificate:
    """Split a noise W = W~ + W' against a target second noise V~.

    In the basis where ``Q^T V~ Q = I`` and ``Q^T W Q = diag(d)``, with ``P = Q^-1``,
    ``K = Q diag(d_k) Q^T`` has ``d_k = 0`` if ``d <= 1/(mu-1)`` and ``d_k = mu - 1 - 1/d``
    otherwise.  The reduced noise is explicit, ``W~ = P^T diag(min(d, 1/(mu - 1))) P``,
    and solves ``inv(W~) = inv(W) + K``; ``X* = V~ / (mu - 1) - W~``.  The certificate
    checks K @ X* = 0 and the orderings ``W~ <= V~ / (mu - 1)`` and ``W~ <= W``; the chain
    (X*; X* + W~; X* + W) has Markov kernel ``E + E^T`` with
    ``E = W~ K X* (I - inv(X* + W) X*)``.
    """
    mu = validated_mu(mu)
    v_tilde, w, k_mat, w_tilde = _mode_split(s_v_tilde, s_w, ("s_v_tilde", "s_w"),
                                             1.0 / (mu - 1.0), lambda d: (mu - 1.0) - 1.0 / d)
    x_star = symmetrize(v_tilde / (mu - 1.0) - w_tilde)
    order = min_eig(x_star, w - w_tilde, w_tilde, k_mat)
    return ConstructionCertificate(
        multiplier=k_mat,
        s_w_tilde=w_tilde,
        s_x_star=x_star,
        s_complement=v_tilde,
        zero_product_residual=float(np.linalg.norm(k_mat @ x_star)),
        order_residual=order,
    )


# ---------------------------------------------------------------------------
# Constrained two-noise optimum: one path, in R's whitened coordinates
# (S = Y diag(lam) Y^T, R = Y Y^T).  The unconstrained stationary point
# S0 = (V - mu W)/(mu - 1), where S + V = mu (S + W), clipped strictly inside
# the band {0 <= S <= R} gives the start.  A fixed ladder of log-barrier
# stages, each centred by trust-region Newton steps (most from the secant of
# the last two centres), follows the path to the maximizer; one stacked eigh
# of each candidate's whitened form, S + W and S + V scores it and feeds the
# next step, whose gradient is read on the upper triangle.  Modes near a face
# are pinned onto it, with K (S = 0) or N (S = R) from G + K - N = 0.
# ---------------------------------------------------------------------------

# First and last barrier weights; each stage divides tau by 30 (ten stages).
_TAU_START = 3e-2
_TAU_FLOOR = 1e-14


def _whitened_spectrum(s: NDArray, l: NDArray, l_inv: NDArray):
    """``(lam, y)`` with ``R = Y Y^T`` and ``S = Y diag(lam) Y^T``.

    With R's Cholesky factor ``l`` and its inverse, the band is ``0 <= X <= I``
    for ``X = L^-1 S L^-T``; ``lam`` and Q are the eigenpairs of X, ``Y = L Q``.
    """
    lam, q = np.linalg.eigh(symmetrize(l_inv @ s @ l_inv.T))
    return lam, l @ q


def _band_start(s0: NDArray, l: NDArray, l_inv: NDArray) -> NDArray:
    """Strictly interior start: s0 clipped to the band in R's whitened coordinates.

    The whitened eigenvalues of s0 (:func:`_whitened_spectrum`) are clipped
    to [0, 1] and mapped to ``1/8 + 3/4 * clip``, so S and R - S are
    positive definite for any PD R.
    """
    lam, y = _whitened_spectrum(s0, l, l_inv)
    return symmetrize(y @ ((0.125 + 0.75 * np.clip(lam, 0.0, 1.0))[:, None] * y.T))


def _sym_coords(k: int):
    """Coordinates (i, j, c) of k x k symmetric matrices over the upper triangle.

    a moves ``B_a = c_a (E_ij + E_ji)``, c = 1/2 on the diagonal and 1 off it;
    ``<G, B_a> = 2 c_a G_ij`` and ``sum_a delta_a B_a`` sets ``D_ij = D_ji = delta_a``.
    """
    i, j = np.triu_indices(k)
    return i, j, np.where(i == j, 0.5, 1.0)


def _newton_frame(n: int):
    """A Newton step's indices, once per solve: ``(i, j, 2c, flat, mirror, diag, gathers)``.

    Over :func:`_sym_coords`: ``flat = i n + j`` in a flat n x n matrix, ``mirror`` flat then
    ``j n + i`` (one ``put`` of m values fills both triangles), ``diag`` the coordinates i = j,
    ``gathers`` the four (m, m) flat positions and weights of :func:`_trace_products`.
    """
    i, j, c = _sym_coords(n)
    flat, pairs = i * n + j, ((i, i), (j, j), (i, j), (j, i))
    gathers = tuple(np.add.outer(a * n, b) for a, b in pairs) + (2.0 * np.outer(c, c),)
    return i, j, 2.0 * c, flat, np.concatenate((flat, j * n + i)), np.flatnonzero(i == j), gathers


def _trace_products(p: NDArray, gathers: tuple) -> NDArray:
    """``tr(P B_a P B_b) = 2 c_a c_b (P_ik P_jl + P_il P_jk)``, b = (k, l), for each P in p.

    ``gathers`` are the flat positions of the four factors and the weights ``2 c_a c_b``.
    """
    pf, (ii, jj, ij, ji, weights) = p.reshape(len(p), -1), gathers
    return weights * (pf.take(ii, 1) * pf.take(jj, 1) + pf.take(ij, 1) * pf.take(ji, 1))


def _band_barrier(lam: NDArray, i: NDArray, j: NDArray, c2: NDArray):
    """``(h, d)``: the band barrier ``log det S + log det(R - S)`` moved by ``Y E Y^T``.

    That is ``log det(diag(lam) + E) + log det(I - diag(lam) - E)`` plus a constant: gradient
    ``diag(d)``, ``d = 1/lam - 1/(1 - lam)``, and Hessian ``-diag(h)`` in :func:`_sym_coords`,
    ``h_a = 2 c_a (1/(lam_i lam_j) + 1/((1 - lam_i)(1 - lam_j)))``; ``c2`` is ``2 c``.
    """
    a, b = 1.0 / lam, 1.0 / (1.0 - lam)
    return c2 * (a[i] * a[j] + b[i] * b[j]), a - b


def _face_columns(u: NDArray) -> NDArray:
    """Columns ``vec(c_a (u_i u_j^T + u_j u_i^T))``: symmetric matrices on span u."""
    i, j, c = _sym_coords(u.shape[1])
    outer = u[:, None, i] * u[None, :, j]
    return (c * (outer + outer.transpose(1, 0, 2))).reshape(u.shape[0] ** 2, i.size)


def _face_multipliers(g: NDArray, u0: NDArray, u1: NDArray):
    """Least-squares solve of ``G + K - N = 0`` on the pinned faces.

    K is a symmetric matrix on the span of u0 (the face S = 0) and N one
    on the span of u1 (the face S = R), both expanded in
    :func:`_face_columns`.  The solution is unique, since a vector in both
    spans would be a null vector of R.  Whether K and N are PSD is left
    to the caller.
    """
    d0, d1 = _face_columns(u0), _face_columns(u1)
    coef = np.linalg.lstsq(np.hstack((d0, -d1)), -g.ravel(), rcond=None)[0]
    m = d0.shape[1]
    k = (d0 @ coef[:m]).reshape(g.shape)
    n_mat = (d1 @ coef[m:]).reshape(g.shape)
    # Adding 0.0 turns a -0.0 entry (from a zero gradient) into 0.0.
    return k + 0.0, n_mat + 0.0


def _barrier_value(
    s: NDArray, x: NDArray, y: NDArray, wv: NDArray, mu: float, tau: float, log_det_r: float
):
    """``h(S + W) - mu h(S + V) + tau (log det S + log det(R - S))``, -inf off the band.

    S comes whitened, ``S = Y X Y^T`` and ``R = Y Y^T``, wv is ``(W, V)``.  One ``eigh`` of the
    stack ``(X, S + wv)``, bit for bit separate calls, gives ``X = U diag(lam) U^T``, the test
    0 < lam < 1 (before any log), the band terms ``sum log(lam (1 - lam)) + 2 log det R``, the
    entropies as :func:`gaussian_entropy` computes them, and the inverses.  Returns ``(phi,
    lam, Y U, P)``, ``P = (Y U)^T (S + wv)^-1 (Y U)``, or ``(-inf, None, None, None)``.
    """
    ev, vec = np.linalg.eigh(np.concatenate((x[None], s + wv)))
    lam, ev, u, vec = ev[0], ev[1:], vec[0], vec[1:]
    if not (lam[0] > 0.0 and lam[-1] < 1.0):
        return -math.inf, None, None, None
    h_w, h_v = 0.5 * (s.shape[0] * LOG_2PI_E + np.log(ev).sum(axis=1))
    barrier = float(np.log(lam * (1.0 - lam)).sum()) + 2.0 * log_det_r
    y = y @ u
    # B B^T is exactly symmetric, as the gather in _trace_products needs.
    b = (y.T @ vec) / np.sqrt(ev)[:, None, :]
    return float((h_w - mu * h_v) + tau * barrier), lam, y, b @ b.transpose(0, 2, 1)


def _trust_region_step(lam: NDArray, gq: NDArray, shift: float, radius: float):
    """Shifted Newton step ``z = gq / (shift - lam)`` cut to length ``radius``.

    ``lam`` is the spectrum of the whitened Hessian and ``gq`` the gradient in its
    eigenvectors; ``shift > max(lam)``.  While ``||z|| = sqrt(z.z)`` exceeds ``1.2 * radius``
    the shift is raised by at most 8 Moré–Sorensen Newton steps on the secular equation
    ``1 / ||z(shift)|| = 1 / radius``, which approach its root from below, so the raised
    shift never passes it.  A step still longer than ``radius`` is scaled down to it.
    Returns ``(z, shift)``.
    """
    z = gq / (shift - lam)
    norm_z = math.sqrt(z.dot(z))
    for _ in range(8):
        if norm_z <= 1.2 * radius:
            break
        shift += norm_z**2 / float((z**2 / (shift - lam)).sum()) * (norm_z - radius) / radius
        z = gq / (shift - lam)
        norm_z = math.sqrt(z.dot(z))
    if norm_z > radius:
        z = z * (radius / norm_z)
    return z, shift


def _barrier_stage(
    starts: tuple, wv: NDArray, mu: float, tau: float, l: NDArray, l_inv: NDArray, frame: tuple,
    log_det_r: float,
) -> NDArray:
    """Trust-region Newton centering for the log-barrier surrogate.

    It begins from the one of ``starts`` that :func:`_barrier_value` at tau scores highest,
    the first on ties, each whitened from S itself (``Y = L``).  Each step moves
    ``S = Y diag(lam) Y^T`` by ``Y E Y^T``, E in :func:`_sym_coords` (``frame`` is its
    :func:`_newton_frame`), where the barrier Hessian is diagonal (:func:`_band_barrier`)
    and whitens the Newton system exactly; the gradient is read on P's upper triangle.
    Scoring a candidate is one stacked ``eigh`` of ``diag(lam) + E``, S + W and S + V; an
    accepted one carries its ``(lam, Y)`` and inverses into the next step.  One ``eigh`` of
    the whitened Hessian gives the trust-region step (:func:`_trust_region_step`) inside the
    Dikin ellipsoid of radius ``0.8 sqrt(tau)``, which keeps every iterate strictly feasible;
    its shift starts just above the top eigenvalue (or at zero), and a step that does not
    raise the barrier value is retried with a larger shift.  The stage ends once the scaled
    gradient norm is at most ``0.25 sqrt(tau)``, at the first candidate whose barrier value
    lies in ``[phi - 1e-15, phi]`` (S is as centred as rounding allows), after 40 rejected
    tries in a row, after 30 steps, at a ``LinAlgError``, or at once if no start is in the band.
    """
    i, j, c2, flat, mirror, diag, gathers = frame
    scored = [_barrier_value(x, symmetrize(l_inv @ x @ l_inv.T), l, wv, mu, tau, log_det_r)
              for x in starts]
    start, (phi, lam, y, p) = max(zip(starts, scored), key=lambda pair: pair[1][0])
    if phi == -math.inf:
        return start
    s, root_tau, damp, half_mu, n = start, math.sqrt(tau), 0.0, 0.5 * mu, len(lam)
    for _ in range(30):
        h_bar, d = _band_barrier(lam, i, j, c2)
        ci = 1.0 / np.sqrt(tau * h_bar)
        p_t = p.reshape(2, -1).take(flat, 1)
        g_t = 0.5 * p_t[0] - half_mu * p_t[1]
        g_t[diag] += tau * d
        g_t *= ci * c2
        if math.sqrt(g_t.dot(g_t)) <= 0.25 * root_tau:
            break
        h = _trace_products(p, gathers)
        try:
            # ci turns the barrier Hessian -tau diag(h_bar) into -I: a shift by -1.
            lam_t, vec = np.linalg.eigh(ci[:, None] * (half_mu * h[1] - 0.5 * h[0]) * ci)
        except np.linalg.LinAlgError:
            break
        lam_t -= 1.0
        top = max(0.0, float(lam_t[-1]))
        gq, back = vec.T @ g_t, ci[:, None] * vec
        t_scale = max(-float(lam_t[0]), float(lam_t[-1]), 1e-30)
        damp = max(damp, 1e-12 * t_scale)
        for _ in range(40):
            z, shift = _trust_region_step(lam_t, gq, top + damp, 0.8 * root_tau)
            e = np.zeros((n, n))
            e.put(mirror, back @ z)
            cand = s + symmetrize(y @ e @ y.T)
            e.ravel()[:: n + 1] += lam
            phi_new, *factors = _barrier_value(cand, e, y, wv, mu, tau, log_det_r)
            if phi_new > phi:
                s, phi, (lam, y, p) = cand, phi_new, factors
                damp = max(damp / 10.0, 1e-12 * t_scale)
                break
            if phi_new >= phi - 1e-15:
                break
            damp = 10.0 * (shift - top)
        if s is not cand:
            break
    # Each sum S + Y E Y^T rounds in R's coordinates, which whitening magnifies up to
    # cond(R)-fold; a centre that moved is rebuilt from its factors, with one rounding.
    return s if s is start else symmetrize(y @ (lam[:, None] * y.T))


def _interior_newton(s: NDArray, wv: NDArray, mu: float, l: NDArray, l_inv: NDArray) -> NDArray:
    """Log-barrier path following for the band-constrained maximum.

    From a strictly interior S (:func:`_band_start`), Newton-centers barrier surrogates
    whose weight tau falls 30-fold per stage from ``_TAU_START`` to ``_TAU_FLOOR`` and
    returns the last centre: strictly feasible, near the maximizer, its nearly active modes
    orders of magnitude from the inactive ones, for :func:`_pin_faces` to pin.  From the
    third stage on, a stage is also offered the secant ``S_k + (S_k - S_k-1) / 30`` of the
    path ``S(tau) ~ S* + tau D``, except at tau <= ``1e3 * _TAU_FLOOR``, where the guess's
    error in the face-free cross block, hidden by the centring test's ``1/sqrt(tau h)``
    weights, is worth less to phi than its rounding.
    """
    frame, log_det_r = _newton_frame(s.shape[0]), 2.0 * float(np.sum(np.log(np.diag(l))))
    tau, prev, starts = _TAU_START, None, (s,)
    while True:
        s = _barrier_stage(starts, wv, mu, tau, l, l_inv, frame, log_det_r)
        if tau <= _TAU_FLOOR:
            return s
        tau = max(tau / 30.0, _TAU_FLOOR)
        secant = prev is not None and tau > 1e3 * _TAU_FLOOR
        starts, prev = ((s, s + (s - prev) / 30.0) if secant else (s,)), s


def _pin_faces(s: NDArray, l: NDArray, l_inv: NDArray, tol: float):
    """Set the modes of S (:func:`_whitened_spectrum`) within tol of a face onto it.

    The one place that decides the active set, each mode on its nearer face only: ``lam_i``
    ``<= 1/2`` becomes 0 if ``lam_i ||y_i||^2 < tol``, else 1 if ``(1 - lam_i) ||y_i||^2 < tol``.
    Returns ``(s, u0, u1)``: S rebuilt from that spectrum and the columns
    of ``Y^-T`` at its 0s and 1s, exact null vectors of S and of R - S.
    """
    lam, y = _whitened_spectrum(s, l, l_inv)
    size = np.sum(y * y, axis=0)
    low = lam <= 0.5
    on_zero = low & (lam * size < tol)
    on_r = ~low & ((1.0 - lam) * size < tol)
    lam = np.where(on_zero, 0.0, np.where(on_r, 1.0, lam))
    dual = np.linalg.inv(y).T
    return symmetrize(y @ (lam[:, None] * y.T)), dual[:, on_zero], dual[:, on_r]


def _optimum_certificate(
    s_star: NDArray, k: NDArray, w: NDArray, v: NDArray, r: NDArray, mu: float, scale_wv: float
) -> ConstructionCertificate:
    """Noise-split certificate at the constrained maximizer, given K.

    ``k`` is the first-order multiplier of the face S = 0 that :func:`eei_optimum` solved
    for; it is checked, not refitted.  The split uses ``2K`` (the multiplier of the entropy
    form without the factor 1/2), so ``W~ = (W^-1 + 2K)^-1``.  ``zero_product_residual`` reads
    ``||2K S*||`` and ``order_residual`` the most negative eigenvalue over the band, the split
    orderings and ``2K`` itself.  A split gap below ``-1e-6 * scale_wv``, ``scale_wv`` the
    caller's ``spectral_scale(W, V)`` (relative at every scale), raises :class:`SplitInfeasible`.
    """
    k_mat = 2.0 * k
    w_tilde = symmetrize(np.linalg.inv(np.linalg.inv(w) + k_mat))
    v_tilde = (mu - 1.0) * symmetrize(s_star + w_tilde)
    v_prime_gap = symmetrize(v - w_tilde - v_tilde)
    split_gap = min_eig(w - w_tilde, v - w_tilde)
    if split_gap < -1e-6 * scale_wv:
        raise SplitInfeasible(
            f"no admissible reduced noise: ordering violated by {split_gap:.3e}"
        )
    order = min_eig(s_star, r - s_star, w - w_tilde, v_tilde, v_prime_gap, k_mat)
    return ConstructionCertificate(
        multiplier=k_mat,
        s_w_tilde=w_tilde,
        s_x_star=symmetrize(s_star),
        s_complement=v_tilde,
        zero_product_residual=float(np.linalg.norm(k_mat @ s_star)),
        order_residual=order,
    )


def eei_optimum(instance: EEIInstance):
    """Maximize h(S + W) - mu * h(S + V) over the band 0 <= S <= R.

    In one dimension the derivative ``((1-mu)s + v - mu*w)/((s+w)(s+v))`` changes sign
    once, so ``s = clip(s0, 0, r)`` with ``s0 = (v - mu*w)/(mu - 1)`` is exact.  Otherwise
    the vertices are tested first, one ``eigvalsh`` each: S = 0, with every mode on that
    face, when the gradient ``G(0) = (W^-1 - mu V^-1) / 2 <= 0``, and S = R, with every mode
    on that face, when ``G(R) >= 0``.  Failing both, the same ``s0``, the point where
    ``S + V = mu (S + W)``, clipped strictly inside the
    band in R's whitened coordinates (:func:`_band_start`) starts the solve, which follows
    the log-barrier Newton path to the maximizer and pins the modes within
    ``1e-9 * spectral_scale(W, V)`` of a face onto it (:func:`_pin_faces`): at the last
    centre a face mode's ``lam ||y||^2`` is about tau times the noises' scale, whatever
    R's, while a free mode's is at the scale of S*, which the noises set.  The
    multipliers K on the face S = 0 and N on the face S = R then solve ``G + K - N = 0`` by
    least squares, G the gradient.  A first-order residual
    ``max(||G + K - N||_F, -min_eig K, -min_eig N)`` above ``1e-6`` of the largest entry
    of the gradient terms ``(S + W)^-1 / 2`` and ``mu (S + V)^-1 / 2`` (G itself vanishes
    at an interior optimum) raises :class:`NoConvergence`.

    Without ``s_v`` the objective is the single-noise ``h(S) - mu * h(S + W)`` over the
    same band, maximized in closed form by the source split ``construct_l(R, W, mu)``: the
    answer is its ``s_x_star``, the objective there and that certificate.

    Returns ``(s_x_star, objective, certificate)``.
    """
    w, v, r, mu = instance.s_w, instance.s_v, instance.r, instance.mu
    if v is None:
        cert = construct_l(r, w, mu)
        return cert.s_x_star, objective_single_noise(cert.s_x_star, w, mu), cert
    s0, scale_wv = (v - mu * w) / (mu - 1.0), spectral_scale(w, v)
    if instance.dim == 1:
        s = np.clip(s0, 0.0, r)
        # The clip is exact, so its faces are read off without a pin.
        one = np.ones((1, 1))
        u0, u1 = one[:, s[0] == 0.0], one[:, s[0] == r[0]]
    else:
        every, none = np.eye(instance.dim), np.zeros((instance.dim, 0))
        # 2 G(0) and 2 G(R): S = 0 is a KKT point with K = -G(0) when G(0) <= 0, and
        # S = R one with N = G(R) when G(R) >= 0
        p = np.linalg.inv(np.stack((w, v, r + w, r + v)))
        g2 = p[0::2] - mu * p[1::2]
        ends = np.linalg.eigvalsh(symmetrize(g2))
        if ends[0, -1] <= 0.0:
            s, u0, u1 = np.zeros_like(r), every, none
        elif ends[1, 0] >= 0.0:
            s, u0, u1 = r.copy(), none, every
        else:
            l_inv = np.linalg.inv(l := np.linalg.cholesky(r))
            s = _interior_newton(_band_start(s0, l, l_inv), np.stack((w, v)), mu, l, l_inv)
            s, u0, u1 = _pin_faces(s, l, l_inv, 1e-9 * scale_wv)
    g_w, g_v = 0.5 * np.linalg.inv(s + w), 0.5 * mu * np.linalg.inv(s + v)
    k, n_mat = _face_multipliers(g := symmetrize(g_w - g_v), u0, u1)
    res = max(float(np.linalg.norm(g + k - n_mat)), -min_eig(k, n_mat))
    if res > 1e-6 * max(float(np.max(np.abs(g_w))), float(np.max(np.abs(g_v)))):
        raise NoConvergence(f"barrier path stalled with first-order residual {res:.3e}")
    cert = _optimum_certificate(s, k, w, v, r, mu, scale_wv)
    h = gaussian_entropies(s + w, s + v)
    return s, h[0] - mu * h[1], cert
