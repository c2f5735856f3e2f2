"""Application solvers built on the Gaussian entropy machinery.

Two consumers of the extremal results live here: a covariance design for
broadcasting a private message past an eavesdropping second receiver,
and the link between linear minimum mean-square error and mutual
information used for worst-case noise bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    SeparationFailed,
    SingularCovariance,
    ThresholdUnreachable,
)
from .gaussmat import (
    cov_to_json,
    gaussian_conditional_cov,
    symmetrize,
    validated_pd,
    validated_psd,
    validated_square,
)

__all__ = [
    "BroadcastInstance",
    "BroadcastDesign",
    "design_private_message",
    "mi_lower_bound",
]


def mi_lower_bound(s_x, r) -> float:
    """Worst-case mutual information floor from the LMMSE error, in nats.

    Returns ``-0.5 ln det(lmmse) + 0.5 ln det(s_x)``, which coincides
    with the Gaussian channel information ``0.5 ln det(s_x + r) / det r``
    when the noise covariance equals ``r``, and lower-bounds the true
    information for any noise of covariance at most ``r``.
    """
    err = gaussian_conditional_cov(s_x, r)
    sign_e, logdet_e = np.linalg.slogdet(err)
    sign_x, logdet_x = np.linalg.slogdet(symmetrize(s_x))
    if sign_e <= 0 or sign_x <= 0:
        raise SingularCovariance("LMMSE error matrix is singular")
    return float(0.5 * (logdet_x - logdet_e))


@dataclass(frozen=True)
class BroadcastInstance:
    """Two-receiver Gaussian channel with a trace threshold on the eavesdropper.

    Receiver 1 is the intended one (noise ``s_z1``), receiver 2 the one
    that must be kept above the estimation threshold ``Tr r``.  The
    transmit covariance is searched along the ray ``t * direction``;
    the direction defaults to ``r``.
    """

    s_z1: NDArray
    s_z2: NDArray
    r: NDArray
    direction: Optional[NDArray] = None

    def __post_init__(self):
        z1 = validated_pd(self.s_z1, "s_z1")
        z2 = validated_pd(self.s_z2, "s_z2")
        r = validated_square(self.r, "r")
        if not (z1.shape == z2.shape == r.shape):
            raise DimensionMismatch("all broadcast matrices must share one dimension")
        if float(np.trace(r)) <= 0.0:
            raise InvalidParameter("threshold matrix needs a positive trace")
        d = validated_psd(r if self.direction is None else self.direction, "direction")
        if d.shape != r.shape:
            raise DimensionMismatch("direction must match the instance dimension")
        if float(np.trace(d)) <= 0.0:
            raise InvalidParameter("search direction must be nonzero")
        object.__setattr__(self, "s_z1", z1)
        object.__setattr__(self, "s_z2", z2)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "direction", d)

    @property
    def dim(self) -> int:
        return self.s_z1.shape[0]


@dataclass(frozen=True)
class BroadcastDesign:
    """Transmit covariance pinning receiver 2 to the threshold.

    ``t_star`` is the realized scaling constant along the search ray.
    """

    s_x_star: NDArray
    t_star: float
    trace_mse_rx1: float
    trace_mse_rx2: float

    def as_dict(self) -> dict:
        return {name: cov_to_json(v) if isinstance(v, np.ndarray) else float(v)
                for name, v in vars(self).items()}


def design_private_message(inst: BroadcastInstance) -> BroadcastDesign:
    """Scale the transmit covariance until receiver 2 sits on the threshold.

    With ``s_z2 = L L^T`` and ``L^-1 D L^-T = U diag(d) U^T`` for the
    direction D, the eavesdropper's posterior trace along the ray is
    ``sum_i c_i t d_i / (1 + t d_i)`` with ``c_i = ||L u_i||^2``: one
    decomposition, then a scalar that is continuous, strictly increasing
    in t and saturates at ``sum_{d_i > 0} c_i`` (``Tr s_z2`` when D is
    nonsingular).  Thresholds at or above that trace are rejected up
    front; eigenvalues d_i within rounding of zero count as zero.  The
    scale solving ``Tr mse_2(t) = Tr r`` is found by Newton's method from
    t = 0 with no bracket: the trace is concave, so each iterate stays at or
    below the root, and the steps stop once one is at most ``1e-15 * t``
    (200 at most).  The intended receiver must end up below the threshold or
    within a relative 1e-9 of it.
    """
    tr_r = float(np.trace(inst.r))
    tr_z2 = float(np.trace(inst.s_z2))
    if tr_r >= tr_z2:
        raise ThresholdUnreachable(
            f"threshold trace {tr_r:.6g} is not below the receiver-2 "
            f"noise trace {tr_z2:.6g}"
        )
    chol = np.linalg.cholesky(inst.s_z2)
    white = np.linalg.solve(chol, np.linalg.solve(chol, inst.direction).T)
    d, u = np.linalg.eigh(symmetrize(white))
    d = np.where(d > inst.dim * np.finfo(float).eps * d[-1], d, 0.0)
    c = np.sum((chol @ u) ** 2, axis=0)
    # rx2_trace reaches exactly this sum once every t * d_i saturates; it
    # lies below Tr s_z2 only for a singular direction.
    if float(np.sum(c * (d > 0.0))) <= tr_r:
        raise ThresholdUnreachable(
            "posterior trace saturates below the threshold along this direction"
        )

    t_star = 0.0
    for _ in range(200):
        q = 1.0 + t_star * d
        step = (tr_r - float(np.sum(c * (t_star * d) / q))) / float(np.sum(c * d / q**2))
        t_star += step
        if step <= 1e-15 * t_star:
            break
    s_star = symmetrize(t_star * inst.direction)
    rx2 = float(np.trace(gaussian_conditional_cov(s_star, inst.s_z2)))
    rx1 = float(np.trace(gaussian_conditional_cov(s_star, inst.s_z1)))
    if rx1 > tr_r * (1.0 + 1e-9):
        raise SeparationFailed(
            f"receiver-1 trace {rx1:.9g} exceeds the threshold {tr_r:.9g}"
        )
    return BroadcastDesign(
        s_x_star=s_star,
        t_star=t_star,
        trace_mse_rx1=rx1,
        trace_mse_rx2=rx2,
    )
