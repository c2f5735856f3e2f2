"""
Noise-split constructions and their certificates
================================================

Both constructions split a Gaussian noise W into independent parts
W-tilde + W-prime so that a chosen entropy difference is maximized by a
Gaussian input.  Each returns a certificate whose residuals are checkable
numbers, not trust-me flags.  The Markov-chain kernel printed beside them
is computed here from the certificate's matrices; its zero product
already bounds it.
"""

import numpy as np

from eeikit import (
    construct_k,
    construct_l,
    dominating_gaussian,
    markov_residual,
    objective_single_noise,
)


def source_chain_kernel(cert, x, w):
    """Markov kernel of the source split's chain (X'; X' + X* + W~; X + W)."""
    x_prime = cert.s_complement
    return markov_residual((x_prime, x_prime + cert.s_x_star + cert.s_w_tilde, x + w))


# ---------------------------------------------------------------------------
# Scalar case: the split obeys a simple threshold rule.
# ---------------------------------------------------------------------------
mu = 2.0
for x, w in [(1.0, 3.0), (1.0, 0.5)]:
    s_x, s_w = np.array([[x]]), np.array([[w]])
    cert = construct_l(s_x, s_w, mu)
    print(f"source var {x}, noise var {w}:")
    print(f"  kept noise  = {cert.s_w_tilde[0, 0]:.6f}  (rule: min(w, (mu-1)*x) = {min(w, (mu - 1) * x)})")
    print(f"  multiplier  = {cert.multiplier[0, 0]:.6f}")
    print(f"  residuals: zero-product {cert.zero_product_residual:.2e}, "
          f"markov {source_chain_kernel(cert, s_x, s_w):.2e}, "
          f"order {cert.order_residual:+.2e}")

# ---------------------------------------------------------------------------
# Matrix case: thresholding happens per direction after a joint change of
# basis, so the certificate is the honest way to see it worked.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(5)
f = rng.normal(size=(3, 3))
s_x = f @ f.T + 0.3 * np.eye(3)
g = rng.normal(size=(3, 3))
s_w = g @ g.T + 0.3 * np.eye(3)

cert = construct_l(s_x, s_w, 1.7)
print("\n3x3 source split:")
print(f"  zero-product residual {cert.zero_product_residual:.2e}")
print(f"  markov residual       {source_chain_kernel(cert, s_x, s_w):.2e}")
print(f"  order residual        {cert.order_residual:+.2e}  (>= 0 means all PSD claims hold)")

# The split certifies that replacing the source with its Gaussian optimum
# never lowers the single-noise objective.
s_star, _ = dominating_gaussian(s_x, s_w, 1.7)
before = objective_single_noise(s_x, s_w, 1.7)
after = objective_single_noise(s_star, s_w, 1.7)
print(f"  objective at X: {before:.6f}  at X*: {after:.6f}  (gain {after - before:+.2e})")

# ---------------------------------------------------------------------------
# The companion construction reduces the noise against a second noise
# budget; the scalar rule swaps the threshold direction.
# ---------------------------------------------------------------------------
w_k = np.array([[2.0]])
cert_k = construct_k(w_k, np.array([[1.0]]), 3.0)
x_k = cert_k.s_x_star
markov_k = markov_residual((x_k, x_k + cert_k.s_w_tilde, x_k + w_k))
print("\nnoise-side split (w=2, v-tilde=1, mu=3):")
print(f"  kept noise = {cert_k.s_w_tilde[0, 0]:.6f}  (rule: min(2, 1/(mu-1)) = {min(2.0, 0.5)})")
print(f"  worst residual = "
      f"{max(cert_k.zero_product_residual, markov_k, -cert_k.order_residual):.2e}")
