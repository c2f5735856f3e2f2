"""Dense symmetric-matrix primitives and Gaussian information quantities.

All covariances are real symmetric positive-semidefinite numpy arrays;
results are plain arrays unless stated otherwise.  Entropies are in nats.

This module owns covariance input validation: every module checks matrix
inputs with :func:`validated_square` (non-square or empty: DimensionMismatch;
NaN or inf: InvalidParameter), :func:`validated_pd` or :func:`validated_psd`
(failed eigenvalue test: NotPositiveDefinite).  Every eigenvalue tolerance is
relative to the judged matrices' largest |eigenvalue| (:func:`eig_scale`), at every scale.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotPositiveDefinite,
    SingularCovariance,
)

__all__ = [
    "SimDiagResult",
    "symmetrize",
    "spectral_scale",
    "psd_leq",
    "simdiag",
    "gaussian_entropy",
    "gaussian_conditional_cov",
    "markov_residual",
    "cov_from_json",
    "cov_to_json",
    "load_cov",
]

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0

DEFAULT_PSD_TOL = 1e-10
_SYM_RTOL = 1e-12


def symmetrize(a: NDArray) -> NDArray:
    """Symmetric part (a + a^T) / 2 of a matrix, or of each matrix in a stack, as a new array."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.mT)


def eig_scale(evals: NDArray) -> float:
    """Largest |eigenvalue| of an ascending spectrum, as eigvalsh gives (0.0, never -0.0)."""
    return max(abs(float(evals[0])), abs(float(evals[-1])))


def min_eig(*mats) -> float:
    """Smallest eigenvalue over the symmetric parts of same-shape matrices.

    One ``eigvalsh`` of their stack answers every PSD claim at once; each
    spectrum in the stack is the one a separate call would give, and ties
    resolve as ``min`` over separate calls would (first argument first).
    """
    return min(np.linalg.eigvalsh(symmetrize(mats))[:, 0].tolist())


def validated_square(a, name: str = "matrix") -> NDArray:
    """Symmetric part of ``a`` after checking it is square, non-empty and finite."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"{name} must be square and non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidParameter(f"{name} must be finite")
    return symmetrize(m)


def _require_pd(evals: NDArray, name: str) -> None:
    """Strict positive definiteness: min eigenvalue > DEFAULT_PSD_TOL * eig_scale."""
    if evals[0] <= DEFAULT_PSD_TOL * eig_scale(evals):
        raise NotPositiveDefinite(
            f"{name} must be strictly positive definite: min eigenvalue {evals[0]:.3e}"
        )


def validated_pd(a, name: str = "matrix") -> NDArray:
    """Read-only symmetric part of ``a``, strictly positive definite."""
    m = validated_square(a, name)
    _require_pd(np.linalg.eigvalsh(m), name)
    m.setflags(write=False)
    return m


def validated_psd(a, name: str = "matrix") -> NDArray:
    """Symmetric part of ``a``; min eigenvalue >= -DEFAULT_PSD_TOL * eig_scale."""
    m = validated_square(a, name)
    w = np.linalg.eigvalsh(m)
    if w[0] < -DEFAULT_PSD_TOL * eig_scale(w):
        raise NotPositiveDefinite(
            f"{name} is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    return m


def spectral_scale(*matrices) -> float:
    """Largest absolute eigenvalue over all arguments, each checked by :func:`validated_square`.

    Turns absolute tolerances into relative ones: homogeneous of degree 1, 0 on zero matrices.
    """
    return max(eig_scale(np.linalg.eigvalsh(validated_square(m))) for m in matrices)


class SimDiagResult(NamedTuple):
    """Congruence transform Q with Q.T @ a @ Q = I and Q.T @ b @ Q = diag(d)."""

    q: NDArray
    d: NDArray


def psd_leq(a, b, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff a <= b in the PSD order, within a relative eigenvalue tolerance.

    The test is ``min_eig(b - a) >= -tol * scale``, ``scale`` the largest |eigenvalue| of a
    and b (``b - a`` may be pure rounding), all from one stacked ``eigvalsh``.
    """
    a, b = validated_square(a, "a"), validated_square(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    gap, ev_a, ev_b = np.linalg.eigvalsh(np.array((b - a, a, b)))
    return bool(gap[0] >= -tol * max(eig_scale(ev_a), eig_scale(ev_b)))


def simdiag_basis(a, b, names: tuple = ("a", "b"), b_pd: bool = False):
    """``(a, b, q, d, p)``: the validated inputs, ``q.T a q = I``, ``q.T b q = diag(d)``.

    ``d`` descends and ``p = q.T a = q^-1``; q's column signs are as ``eigh`` left them.
    Each input is validated once: square and finite, ``a`` (and ``b`` if ``b_pd``)
    strictly positive definite; errors name the inputs by ``names``.
    """
    a, b = validated_square(a, names[0]), validated_square(b, names[1])
    if a.shape != b.shape:
        raise DimensionMismatch(f"{names[0]} and {names[1]} shapes differ: {a.shape} vs {b.shape}")
    w, v = np.linalg.eigh(a)
    _require_pd(w, names[0])
    if b_pd:
        _require_pd(np.linalg.eigvalsh(b), names[1])
    a_isqrt = symmetrize(v @ ((w ** -0.5)[:, None] * v.T))
    d, u = np.linalg.eigh(symmetrize(a_isqrt @ b @ a_isqrt))
    order = np.argsort(-d, kind="stable")
    q = a_isqrt @ u[:, order]
    return a, b, q, d[order], q.T @ a


def simdiag(a, b, names: tuple = ("a", "b")) -> SimDiagResult:
    """Simultaneously diagonalize a strictly PD ``a`` and PSD ``b``.

    ``q.T a q = I`` and ``q.T b q = diag(d)``, so with ``P = q^-1``, ``a = P^T P`` and
    ``b = P^T diag(d) P``: the splits' reduced noise is explicit, ``P^T diag(min(d, mu - 1)) P``
    for (X, W) and ``P^T diag(min(d, 1/(mu - 1))) P`` for (V~, W).  ``d`` descends; each column
    of q has its first entry above 1e-12 of its largest magnitude made positive, so the result
    is reproducible.
    """
    _, _, q, d, _ = simdiag_basis(a, b, names)
    mag = np.abs(q)
    big = mag > 1e-12 * mag.max(axis=0)
    lead = q[np.argmax(big, axis=0), np.arange(q.shape[1])]
    return SimDiagResult(q=np.where(lead < 0.0, -q, q), d=d)


def gaussian_entropy(s) -> float:
    """Differential entropy of a zero-mean Gaussian with covariance ``s``, in nats.

    Computes ``0.5 * ln((2*pi*e)^n * det(s))`` from the eigenvalues.
    Raises :class:`SingularCovariance` if the determinant is not strictly
    positive within tolerance.
    """
    return _entropies(np.linalg.eigvalsh(validated_square(s, "covariance")[None]))[0]


def gaussian_entropies(*covs) -> list:
    """:func:`gaussian_entropy` of each same-shape finite covariance, from one stacked ``eigvalsh``.

    Each spectrum in the stack is the one a separate call would give, and so is each value.
    """
    return _entropies(np.linalg.eigvalsh(symmetrize(covs)))


def _entropies(evals: NDArray) -> list:
    """Entropies from a stack of ascending spectra, one ``log`` and one row sum for all.

    SingularCovariance names the first spectrum whose smallest eigenvalue is at most
    ``1e-12`` of its largest |eigenvalue|.
    """
    low = evals[:, 0]
    singular = low <= 1e-12 * np.maximum(np.abs(low), np.abs(evals[:, -1]))
    if singular.any():
        raise SingularCovariance(
            f"covariance is singular within tolerance: min eigenvalue {low[np.argmax(singular)]:.3e}"
        )
    return (0.5 * (evals.shape[1] * LOG_2PI_E + np.log(evals).sum(axis=1))).tolist()


def gaussian_conditional_cov(s_x, s_z) -> NDArray:
    """Error covariance of estimating X from X + Z for independent Gaussians.

    This is the linear minimum mean-square error (LMMSE) matrix
    ``s_x - s_x @ inv(s_x + s_z) @ s_x``, PSD and below ``s_x`` in the PSD
    order, computed as ``s_z @ inv(s_x + s_z) @ s_x``, which does not cancel
    when ``s_x`` is large against ``s_z``.  Both inputs must be PSD
    (:func:`validated_psd`); an observation covariance ``s_x + s_z`` whose
    determinant is not positive raises :class:`SingularCovariance`.
    """
    x, z = validated_psd(s_x, "s_x"), validated_psd(s_z, "s_z")
    if x.shape != z.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {z.shape}")
    s_y = x + z
    sign, _ = np.linalg.slogdet(s_y)
    if sign <= 0:
        raise SingularCovariance("observation covariance is singular")
    return symmetrize(z @ np.linalg.solve(s_y, x))


def markov_residual(t: Sequence) -> float:
    """Frobenius norm of the kernel certifying Y1 -- Y3 -- Y2 factorization.

    ``t`` holds the covariances ``(S1, S2, S3)`` of three vectors.  For
    jointly Gaussian (Y1, Y2, Y3) built by independent summation, the
    moment-generating-function factorization that makes Y1 and Y2
    conditionally independent given Y3 holds iff the symmetrized matrix

        M = 2*S1 - S2 @ inv(S3) @ S1 - S1 @ inv(S3) @ S2

    vanishes.  The returned value is ``||sym(M)||_F``; 0 within tolerance
    certifies the chain.
    """
    y1, y2, y3 = (np.asarray(m, dtype=float) for m in t)
    if not (y1.shape == y2.shape == y3.shape):
        raise DimensionMismatch("triple members must share one shape")
    try:
        c = y2 @ np.linalg.solve(symmetrize(y3), y1)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("third covariance in the triple is singular") from exc
    m = 2.0 * y1 - c - c.T
    return float(np.linalg.norm(symmetrize(m)))


def cov_from_json(source) -> NDArray:
    """Parse the shared matrix JSON format ``{"dim": n, "rows": [[...], ...]}``.

    Accepts a JSON string or an already-decoded mapping.  Returns the
    read-only symmetric part after :func:`validated_psd`; rows asymmetric
    beyond 1e-12, relative to the largest entry, are rejected.  ``dim``,
    if given, must be an integer (or an integral float) equal to the row
    count: anything else is InvalidParameter, another count
    DimensionMismatch.
    """
    obj = json.loads(source) if isinstance(source, (str, bytes)) else source
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InvalidParameter("matrix JSON must be an object with a 'rows' field")
    rows = obj["rows"]
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"matrix rows are not numeric: {exc}") from exc
    m = validated_psd(a, "covariance")
    if float(np.max(np.abs(a - a.T))) > _SYM_RTOL * float(np.max(np.abs(a))):
        raise NotPositiveDefinite("matrix is not symmetric within tolerance")
    m.setflags(write=False)
    dim = obj.get("dim", m.shape[0])
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise InvalidParameter(f"declared dim must be an integer, got {dim!r}")
    if dim != m.shape[0]:
        raise DimensionMismatch(
            f"declared dim {dim} does not match rows shape {a.shape}"
        )
    return m


def cov_to_json(m) -> dict:
    """Serialize a matrix to the shared JSON format."""
    a = np.asarray(m, dtype=float)
    return {"dim": int(a.shape[0]), "rows": [[float(v) for v in row] for row in a]}


def load_cov(path) -> NDArray:
    """Read a matrix JSON file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return cov_from_json(fh.read())
