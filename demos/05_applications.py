"""
Channel applications: LMMSE information bound and broadcast design
==================================================================

Two downstream uses of the extremal machinery: a mutual-information
lower bound that is tight for Gaussian noise, and a covariance design
that separates two receivers by their estimation error.
"""

import math

import numpy as np

from eeikit import (
    BroadcastInstance,
    GridDensity,
    convolve_density,
    design_private_message,
    entropy_quadrature,
    gaussian_conditional_cov,
    mi_lower_bound,
)

# ---------------------------------------------------------------------------
# LMMSE bound: exact for Gaussian noise, a true lower bound otherwise.
# ---------------------------------------------------------------------------
s_x = np.array([[1.0]])
budget = np.array([[1.0]])
lmmse = gaussian_conditional_cov(s_x, budget)[0, 0]
print(f"LMMSE error for unit signal and unit noise: {lmmse:.6f}")

bound = mi_lower_bound(s_x, budget)
print(f"information bound: {bound:.6f} nats  (closed form 0.5 ln 2 = {0.5 * math.log(2):.6f})")

# worst case over noise of variance <= 1 is Gaussian; uniform noise of the
# same variance carries strictly more information
half = math.sqrt(3.0)
noise = GridDensity.uniform(-half, half)
h_sum = entropy_quadrature(convolve_density(noise, 1.0)).value
mi_uniform = h_sum - math.log(2.0 * half)
print(f"quadrature MI with uniform noise: {mi_uniform:.6f} nats "
      f"(exceeds the bound by {mi_uniform - bound:+.4f})")

# ---------------------------------------------------------------------------
# Broadcast design: place the signal covariance so receiver 2 sits exactly
# at the error threshold while receiver 1 beats it.
# ---------------------------------------------------------------------------
inst = BroadcastInstance(
    s_z1=np.array([[0.5]]),
    s_z2=np.array([[2.0]]),
    r=np.array([[0.5]]),
    direction=np.array([[1.0]]),
)
design = design_private_message(inst)
print("\nscalar broadcast instance (noise 0.5 vs 2.0, error threshold 0.5):")
print(f"  signal variance  t* = {design.t_star:.9f}  (algebra: 2/3)")
print(f"  receiver-1 error    = {design.trace_mse_rx1:.9f}  (algebra: 2/7)")
print(f"  receiver-2 error    = {design.trace_mse_rx2:.9f}  (pinned to the threshold)")

# a 2x2 instance: same story, no hand algebra available
inst2 = BroadcastInstance(
    s_z1=0.4 * np.eye(2),
    s_z2=np.array([[2.0, 0.3], [0.3, 1.5]]),
    r=np.array([[0.6, 0.1], [0.1, 0.5]]),
)
design2 = design_private_message(inst2)
print("\n2x2 broadcast instance:")
print(f"  receiver-1 error {design2.trace_mse_rx1:.6f} < threshold "
      f"{np.trace(inst2.r):.6f} = receiver-2 error {design2.trace_mse_rx2:.6f}")
