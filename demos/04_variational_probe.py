"""
Variational probes of the optimality conditions
===============================================

Two direct numerical reads of the calculus-of-variations argument: the
Euler stationarity residual should vanish only when the candidate pair
is the Gaussian optimizer, and the second-variation quadratic form is
never positive at the lowest admissible weight.
"""

import math

import numpy as np

from eeikit import (
    GridDensity,
    convolve_pair,
    variational_first_residual,
    variational_second_form,
)

mu = 2.0
fv = GridDensity.gaussian(0.5)

# ---------------------------------------------------------------------------
# Stationarity: Gaussian candidate vs a uniform imposter of equal variance.
# ---------------------------------------------------------------------------
fx_gauss = GridDensity.gaussian(1.0)
fy_gauss = convolve_pair(fx_gauss, fv)
r_gauss = variational_first_residual(fx_gauss, fy_gauss, fv, mu)

half = math.sqrt(3.0)
fx_unif = GridDensity.uniform(-half, half)
fy_unif = convolve_pair(fx_unif, fv)
r_unif = variational_first_residual(fx_unif, fy_unif, fv, mu)

print("first-variation stationarity residual (weighted RMS):")
print(f"  gaussian candidate : {r_gauss:.3e}")
print(f"  uniform candidate  : {r_unif:.3e}   ({r_unif / r_gauss:.0f}x larger)")

# ---------------------------------------------------------------------------
# Second variation at the critical weight 1 - mu: a completed square with
# a one-ray null space, so every perturbation pair scores <= 0.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(21)
vals = []
for _ in range(12):
    hx = np.sin(rng.uniform(0.3, 2.0) * fx_gauss.grid + rng.normal()) * np.exp(
        -(fx_gauss.grid**2) / 4.0
    )
    hy = np.cos(rng.uniform(0.3, 2.0) * fy_gauss.grid + rng.normal()) * np.exp(
        -(fy_gauss.grid**2) / 4.0
    )
    vals.append(variational_second_form(fx_gauss, fy_gauss, fv, mu, hx, hy, 1.0 - mu))

print("\nsecond-variation form at weight 1 - mu over 12 random perturbation pairs:")
print(f"  max  {max(vals):+.3e}")
print(f"  min  {min(vals):+.3e}")

# the null ray: perturb both densities proportionally to themselves
null_val = variational_second_form(
    fx_gauss, fy_gauss, fv, mu, 0.3 * fx_gauss.values, 0.3 * fy_gauss.values, 1.0 - mu
)
print(f"  along the proportional ray: {null_val:+.3e}  (the form's null direction)")
