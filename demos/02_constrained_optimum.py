"""
Constrained Gaussian optimum with two noises
============================================

Maximize h(X + W) - mu * h(X + V) over Gaussian X with covariance capped
by R.  The solver starts from the unconstrained stationary point
(V - mu W)/(mu - 1) clipped strictly inside the band, follows a
log-barrier Newton path, and pins nearly active eigenvalues onto the
faces of the band; a random sampler then tries (and fails) to beat it.
"""

import numpy as np

from eeikit import EEIInstance, eei_optimum, gaussian_search

# ---------------------------------------------------------------------------
# Scalar instances where freshman calculus gives the answer.
# ---------------------------------------------------------------------------
# d/ds [0.5 ln(s+1) - 1.0 ln(s+4)] = 0  at s = 2, inside [0, 10]
interior = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
s_star, value, cert = eei_optimum(interior)
print(f"interior instance: s* = {s_star[0, 0]:.9f} (calculus says 2), objective {value:.9f}")

# with v = 2 the derivative is negative on all of [0, 10]: boundary optimum
boundary = EEIInstance.from_scalars(2.0, 1.0, 10.0, 2.0)
s_star, value, _ = eei_optimum(boundary)
print(f"boundary instance: s* = {s_star[0, 0]:.3e} (calculus says 0), objective {value:.9f}")

# ---------------------------------------------------------------------------
# A 3x3 instance: no closed form, so the certificate and the sampler are
# the evidence.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(12)


def rand_pd(n, floor):
    f = rng.normal(size=(n, n))
    return f @ f.T + floor * np.eye(n)


inst = EEIInstance(mu=1.8, s_w=rand_pd(3, 0.4), r=rand_pd(3, 0.8), s_v=rand_pd(3, 0.4))
s_star, value, cert = eei_optimum(inst)
print("\n3x3 instance:")
print(f"  objective          {value:.9f}")
print(f"  zero-product       {cert.zero_product_residual:.2e}")
print(f"  order residual     {cert.order_residual:+.2e}")
print(f"  eigenvalues of S*  {np.round(np.linalg.eigvalsh(s_star), 6)}")

report = gaussian_search(inst, trials=20_000, seed=99)
print(f"\nrandom search over 20000 feasible covariances:")
print(f"  best sampled objective {report.lhs:.9f}")
print(f"  solver objective       {report.rhs:.9f}")
print(f"  margin (solver - best) {report.margin:+.3e}  -> sampler never wins")
print(f"  draws capped at R      {report.params['clipped']}")
