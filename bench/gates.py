"""Reference gates for the benchmark, in plain numpy.

Every gate recomputes its reference from the inputs with its own code:
closed forms, a first-order (KKT) check of the band optimum, recomputed
certificate residuals, and byte identity of repeated CLI reports.  No
gate calls into eeikit, so a wrong answer from eeikit cannot also move
its own reference.

Each gate returns a :class:`Verdict`: whether the output passed, and the
relative error against the reference where one exists (``None`` for a
pass/fail-only check).  ``digits`` turns that error into correct decimal
digits, capped at 16.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0

# Band-optimum KKT gate: residual relative to the gradient scale, as in
# the acceptance contract for the solver's own tangent residual.
KKT_TOL = 1e-6
# Eigenvalues of S or R - S below this share of R's scale span the
# active faces on which multipliers may live.
KKT_ACTIVE = 1e-7


class Verdict(NamedTuple):
    passed: bool
    rel_error: Optional[float]
    detail: str = ""


def digits(rel_error: float) -> float:
    """Correct decimal digits, ``-log10(max(rel_error, 1e-16))``."""
    return -math.log10(max(rel_error, 1e-16))


def close(value: float, ref: float, tol: float, floor: float = 1e-300) -> Verdict:
    """Relative closeness ``|value - ref| / max(|ref|, floor) <= tol``."""
    value, ref = float(value), float(ref)
    err = abs(value - ref) / max(abs(ref), floor)
    return Verdict(bool(err <= tol), err, f"got {value!r}, reference {ref!r}")


def worst(*verdicts: Verdict) -> Verdict:
    """All must pass; the error is the largest one reported."""
    errs = [v.rel_error for v in verdicts if v.rel_error is not None]
    failed = [v.detail for v in verdicts if not v.passed]
    return Verdict(not failed, max(errs) if errs else None, "; ".join(failed))


def check(passed: bool, detail: str) -> Verdict:
    return Verdict(bool(passed), None, "" if passed else detail)


# --------------------------------------------------------------------------
# Gaussian closed forms
# --------------------------------------------------------------------------


def sym(a):
    """Symmetric part of a matrix."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def entropy(s) -> float:
    """Gaussian differential entropy in nats."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    sign, logdet = np.linalg.slogdet(s)
    if sign <= 0:
        return -math.inf
    return 0.5 * (s.shape[0] * LOG_2PI_E + logdet)


def scalar_band_optimum(mu: float, w: float, v: float, r: float) -> tuple[float, float]:
    """Maximizer and value of h(s+w) - mu h(s+v) over 0 <= s <= r.

    The derivative ``((1-mu)s + v - mu w)/((s+w)(s+v))`` changes sign
    once, so the clipped stationary point is exact.
    """
    s = min(max((v - mu * w) / (mu - 1.0), 0.0), r)
    return s, entropy(s + w) - mu * entropy(s + v)


def scalar_single_noise_optimum(mu: float, w: float, var: float) -> float:
    """Value of the dominating Gaussian for h(X) - mu h(X+W) at variance var."""
    x_star = min(w, (mu - 1.0) * var) / (mu - 1.0)
    return entropy(x_star) - mu * entropy(x_star + w)


def _mat_fn(a, fn):
    w, q = np.linalg.eigh(sym(a))
    return sym((q * fn(w)) @ q.T)


def split_w_tilde_l(x, w, mu):
    """Reduced noise of the source split: X^1/2 min(X^-1/2 W X^-1/2, mu-1) X^1/2."""
    xh = _mat_fn(x, np.sqrt)
    xih = _mat_fn(x, lambda e: 1.0 / np.sqrt(e))
    return sym(xh @ _mat_fn(xih @ w @ xih, lambda e: np.minimum(e, mu - 1.0)) @ xh)


def split_w_tilde_k(w, v_tilde, mu):
    """Reduced noise of the noise split: V^1/2 min(V^-1/2 W V^-1/2, 1/(mu-1)) V^1/2."""
    vh = _mat_fn(v_tilde, np.sqrt)
    vih = _mat_fn(v_tilde, lambda e: 1.0 / np.sqrt(e))
    cap = 1.0 / (mu - 1.0)
    return sym(vh @ _mat_fn(vih @ w @ vih, lambda e: np.minimum(e, cap)) @ vh)


def spectral_scale(*mats) -> float:
    return max(1.0, *(float(np.max(np.abs(np.linalg.eigvalsh(sym(m))))) for m in mats))


def min_eig(a) -> float:
    return float(np.linalg.eigvalsh(sym(a))[0])


def markov_kernel(y1, y2, y3) -> float:
    """||sym(2 Y1 - Y2 Y3^-1 Y1 - Y1 Y3^-1 Y2)||_F."""
    c = y2 @ np.linalg.solve(sym(y3), y1)
    return float(np.linalg.norm(sym(2.0 * y1 - c - c.T)))


def gate_split(kind: str, cert, a, b, mu: float, tol: float = 1e-8) -> Verdict:
    """Source split (``kind='l'``, a=X, b=W) or noise split (``'k'``, a=W, b=V~).

    Compares the reduced noise with the closed form and recomputes the
    certificate's claims from its matrices: the zero product, the PSD
    orderings and the Markov kernel, each relative to the spectral scale.
    """
    a = sym(a)
    b = sym(b)
    mult = np.asarray(cert.multiplier)
    w_t = np.asarray(cert.s_w_tilde)
    x_star = np.asarray(cert.s_x_star)
    comp = np.asarray(cert.s_complement)
    if kind == "l":
        x, w = a, b
        ref = split_w_tilde_l(x, w, mu)
        scale = spectral_scale(x, w)
        zero = np.linalg.norm(mult @ comp)
        orders = (comp, w - w_t, w_t, mult)
        chain = markov_kernel(comp, comp + x_star + w_t, x + w)
        consistency = np.linalg.norm(x_star - w_t / (mu - 1.0)) + np.linalg.norm(
            comp - (x - x_star)
        )
    else:
        w, v_t = a, b
        ref = split_w_tilde_k(w, v_t, mu)
        scale = spectral_scale(w, v_t)
        zero = np.linalg.norm(mult @ x_star)
        orders = (x_star, w - w_t, w_t, mult, v_t / (mu - 1.0) - w_t)
        chain = markov_kernel(x_star, x_star + w_t, x_star + w)
        consistency = np.linalg.norm(x_star - (v_t / (mu - 1.0) - w_t))
    err = float(np.linalg.norm(w_t - ref)) / max(float(np.linalg.norm(ref)), 1e-300)
    residual = max(zero, chain, consistency, *(-min_eig(m) for m in orders)) / scale
    return Verdict(
        bool(err <= tol and residual <= tol),
        max(err, residual),
        f"split {kind}: closed-form error {err:.3e}, certificate residual {residual:.3e}",
    )


# --------------------------------------------------------------------------
# First-order check of the band optimum
# --------------------------------------------------------------------------


def _sym_basis(u) -> list:
    k = u.shape[1]
    out = []
    for i in range(k):
        for j in range(i, k):
            e = np.outer(u[:, i], u[:, j])
            out.append(e if i == j else e + e.T)
    return out


def _psd_part(u, coef) -> np.ndarray:
    k = u.shape[1]
    m = np.zeros((k, k))
    m[np.triu_indices(k)] = coef
    m = m + np.triu(m, 1).T
    return u @ _mat_fn(m, lambda e: np.maximum(e, 0.0)) @ u.T


def kkt_residual(s, w, v, r, mu: float) -> float:
    """First-order residual of S for max h(S+W) - mu h(S+V), 0 <= S <= R.

    Stationarity requires ``G = N - K`` with the gradient G, a PSD
    multiplier K on the near-null eigenspace of S and a PSD multiplier N
    on that of R - S.  The multipliers are fitted by least squares and
    projected onto the PSD cone; the result is the larger of the leftover
    ``max|G - N + K|`` over the gradient scale and the primal
    infeasibility of S over R's scale.
    """
    s = sym(s)
    g = sym(0.5 * np.linalg.inv(s + w) - 0.5 * mu * np.linalg.inv(s + v))
    g_scale = max(1.0, float(np.max(np.abs(g))))
    e_s, q_s = np.linalg.eigh(s)
    e_g, q_g = np.linalg.eigh(sym(r - s))
    r_scale = spectral_scale(r)
    infeasible = max(0.0, -e_s[0], -e_g[0]) / r_scale
    u0 = q_s[:, e_s <= KKT_ACTIVE * r_scale]
    u1 = q_g[:, e_g <= KKT_ACTIVE * r_scale]
    b0, b1 = _sym_basis(u0), _sym_basis(u1)
    leftover = g
    if b0 or b1:
        design = np.stack([m.ravel() for m in [-m for m in b0] + b1], axis=1)
        coef = np.linalg.lstsq(design, g.ravel(), rcond=None)[0]
        k_mult = _psd_part(u0, coef[: len(b0)]) if b0 else 0.0
        n_mult = _psd_part(u1, coef[len(b0):]) if b1 else 0.0
        leftover = g - n_mult + k_mult
    return max(float(np.max(np.abs(leftover))) / g_scale, infeasible)


def gate_kkt(s, w, v, r, mu: float) -> Verdict:
    res = kkt_residual(s, w, v, r, mu)
    return Verdict(bool(res <= KKT_TOL), res, f"KKT residual {res:.3e}")


# --------------------------------------------------------------------------
# CLI reports
# --------------------------------------------------------------------------


def gate_same_bytes(first: bytes, again: bytes) -> Verdict:
    """A repeated invocation must reproduce the first report byte for byte."""
    if first == again:
        return Verdict(True, None)
    at = next(
        (i for i, (x, y) in enumerate(zip(first, again)) if x != y),
        min(len(first), len(again)),
    )
    return Verdict(False, None, f"report differs from the first invocation at byte {at}")
