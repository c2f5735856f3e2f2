"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL
line per criterion.  Every tolerance and time budget below is part of
the package contract; loosening one is a release decision, not a test
fix.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from eeikit import (
    BroadcastInstance,
    EEIInstance,
    GridDensity,
    ThresholdUnreachable,
    check_eei,
    check_epi,
    check_worst_noise,
    construct_k,
    construct_l,
    design_private_message,
    dominating_gaussian,
    eei_optimum,
    f_alpha,
    gaussian_entropy,
    gaussian_search,
    markov_residual,
    mi_lower_bound,
    objective_single_noise,
    psd_leq,
    spectral_scale,
    symmetrize,
    variational_first_residual,
    variational_second_form,
)
from eeikit.cli import main as cli_main
from eeikit.oracle import convolve_density, convolve_pair, entropy_quadrature

GOLD = 0.5 * (math.sqrt(5.0) - 1.0)


def _rand_pd(rng, n, lo=0.05):
    f = rng.normal(size=(n, n))
    return symmetrize(f @ f.T) + lo * np.eye(n)


def _golden_argmax(fn, lo, hi, iters=200):
    a, b = lo, hi
    c = b - GOLD * (b - a)
    d = a + GOLD * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLD * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLD * (b - a)
            fd = fn(d)
        if b - a < 1e-12:
            break
    return 0.5 * (a + b)


def test_criterion_1_scalar_closed_forms():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.05, 5.0)
        w = rng.uniform(0.05, 5.0)
        vt = rng.uniform(0.05, 5.0)
        mu = rng.uniform(1.01, 5.0)
        cl = construct_l(np.array([[x]]), np.array([[w]]), mu)
        ck = construct_k(np.array([[w]]), np.array([[vt]]), mu)
        worst = max(
            worst,
            abs(cl.s_w_tilde[0, 0] - min(w, (mu - 1.0) * x)),
            abs(ck.s_w_tilde[0, 0] - min(w, vt / (mu - 1.0))),
        )
    elapsed = time.perf_counter() - started
    print(f"criterion 1: worst closed-form deviation {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed <= 1.0


def test_criterion_2_certificate_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_rel = 0.0
    worst_domination = 0.0
    for i in range(1000):
        n = (i % 5) + 1
        mu = rng.uniform(1.0 + 1e-6, 5.0)
        sx = _rand_pd(rng, n)
        sw = _rand_pd(rng, n)
        svt = _rand_pd(rng, n)

        cl = construct_l(sx, sw, mu)
        scale_l = spectral_scale(sx, sw)
        # the Markov kernel of each split's chain, from the certificate's matrices
        x_prime = cl.s_complement
        markov_l = markov_residual((x_prime, x_prime + cl.s_x_star + cl.s_w_tilde, sx + sw))
        rel = max(
            cl.zero_product_residual, markov_l, max(0.0, -cl.order_residual)
        ) / scale_l
        worst_rel = max(worst_rel, rel)

        s_star, _ = dominating_gaussian(sx, sw, mu)
        gap = objective_single_noise(s_star, sw, mu) - objective_single_noise(sx, sw, mu)
        worst_domination = min(worst_domination, gap)

        ck = construct_k(sw, svt, mu)
        scale_k = spectral_scale(sw, svt)
        x_star = ck.s_x_star
        markov_k = markov_residual((x_star, x_star + ck.s_w_tilde, x_star + sw))
        rel_k = max(
            ck.zero_product_residual, markov_k, max(0.0, -ck.order_residual)
        ) / scale_k
        worst_rel = max(worst_rel, rel_k)
        assert psd_leq(ck.s_w_tilde, sw, tol=1e-8 * scale_k)
        assert psd_leq(ck.s_w_tilde, svt / (mu - 1.0), tol=1e-8 * scale_k)
    elapsed = time.perf_counter() - started
    print(
        f"criterion 2: worst residual/scale {worst_rel:.3e}, "
        f"worst domination gap {worst_domination:.3e} in {elapsed:.2f}s"
    )
    assert worst_rel <= 1e-8
    assert worst_domination >= -1e-9
    assert elapsed <= 30.0


def test_criterion_3_profile_argmax():
    started = time.perf_counter()
    worst = 0.0
    for mu in (1.1, 1.5, 2.0, 3.0, 10.0):
        inst = EEIInstance.from_scalars(mu, 1.0, 10.0)
        found = _golden_argmax(lambda a: f_alpha(a, inst), 1e-4, 64.0)
        worst = max(worst, abs(found - 1.0 / (mu - 1.0)))
    elapsed = time.perf_counter() - started
    print(f"criterion 3: worst argmax deviation {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed <= 1.0


def test_criterion_4_oracle_non_domination():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst_margin = math.inf
    for i in range(100):
        n = (i % 4) + 1
        inst = EEIInstance(
            mu=rng.uniform(1.1, 4.0),
            s_w=_rand_pd(rng, n, lo=0.2),
            r=_rand_pd(rng, n, lo=0.5),
            s_v=_rand_pd(rng, n, lo=0.2),
        )
        report = gaussian_search(inst, trials=10_000, seed=2000 + i)
        worst_margin = min(worst_margin, report.margin)

    # scalar calculus oracles: derivative 1/(s+w) - mu/(s+v) never positive
    # on [0, r] for (w=1, v=2, mu=2), so the maximum sits at s=0; for
    # (w=1, v=4, mu=2) it vanishes at s=2 inside the interval.
    boundary = EEIInstance.from_scalars(2.0, 1.0, 10.0, 2.0)
    s0, obj0, _ = eei_optimum(boundary)
    assert abs(s0[0, 0]) <= 1e-6
    expected0 = gaussian_entropy(np.array([[1.0]])) - 2.0 * gaussian_entropy(np.array([[2.0]]))
    assert abs(obj0 - expected0) <= 1e-6

    interior = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
    s1, obj1, _ = eei_optimum(interior)
    assert abs(s1[0, 0] - 2.0) <= 1e-6
    expected1 = gaussian_entropy(np.array([[3.0]])) - 2.0 * gaussian_entropy(np.array([[6.0]]))
    assert abs(obj1 - expected1) <= 1e-6

    elapsed = time.perf_counter() - started
    print(f"criterion 4: worst search margin {worst_margin:.3e} in {elapsed:.2f}s")
    assert worst_margin >= -1e-6
    assert elapsed <= 300.0


def test_criterion_5_non_gaussian_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)

    densities = []
    for i in range(20):
        if i % 2 == 0:
            center = rng.uniform(-1.0, 1.0)
            width = rng.uniform(0.5, 3.0)
            densities.append(GridDensity.uniform(center - width / 2.0, center + width / 2.0))
        else:
            sep = rng.uniform(0.5, 2.5)
            densities.append(
                GridDensity.mixture(
                    rng.uniform(0.3, 0.7),
                    -sep,
                    rng.uniform(0.5, 1.5),
                    sep,
                    rng.uniform(0.5, 1.5),
                )
            )

    worst_eei = math.inf
    for i, d in enumerate(densities):
        mu = rng.uniform(1.3, 3.0)
        w = rng.uniform(0.3, 2.0)
        r = d.variance() * rng.uniform(1.05, 3.0)
        s2_v = w + rng.uniform(0.2, 2.0) if i % 2 else None
        rep = check_eei(d, mu, w, r, s2_v=s2_v)
        worst_eei = min(worst_eei, rep.margin)
    assert worst_eei >= -1e-3

    # equality cases: the constructed Gaussian optimum itself
    eq3 = check_eei(GridDensity.gaussian(1.0), 2.0, 1.0, 1.0)
    assert abs(eq3.margin) <= 1e-4
    eq4 = check_eei(GridDensity.gaussian(2.0), 2.0, 1.0, 10.0, s2_v=4.0)
    assert abs(eq4.margin) <= 1e-4

    worst_epi = math.inf
    for i, d in enumerate(densities):
        other = densities[(i + 7) % len(densities)]
        worst_epi = min(worst_epi, check_epi(d, other).margin)
    assert worst_epi >= -1e-4
    epi_eq = check_epi(GridDensity.gaussian(1.5), GridDensity.gaussian(0.5))
    assert abs(epi_eq.margin) <= 1e-5

    worst_wn = math.inf
    for d in densities:
        s2_wt = rng.uniform(0.2, 1.0)
        s2_wp = rng.uniform(0.2, 1.0)
        worst_wn = min(worst_wn, check_worst_noise(d, s2_wt, s2_wp).margin)
    assert worst_wn >= -1e-4
    wn_eq = check_worst_noise(GridDensity.gaussian(1.0), 0.5, 0.5)
    assert abs(wn_eq.margin) <= 1e-5

    elapsed = time.perf_counter() - started
    print(
        f"criterion 5: worst margins eei {worst_eei:.3e}, epi {worst_epi:.3e}, "
        f"worst-noise {worst_wn:.3e} in {elapsed:.2f}s"
    )
    assert elapsed <= 120.0


def test_criterion_6_lmmse_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for i in range(100):
        n = (i % 4) + 1
        sx = _rand_pd(rng, n)
        r = _rand_pd(rng, n)
        gauss = 0.5 * (np.linalg.slogdet(sx + r)[1] - np.linalg.slogdet(r)[1])
        worst = max(worst, abs(mi_lower_bound(sx, r) - gauss))
    assert worst <= 1e-10

    scalar = mi_lower_bound(np.array([[1.0]]), np.array([[1.0]]))
    assert abs(scalar - 0.5 * math.log(2.0)) <= 1e-12

    # quadrature route: X ~ N(0,1), additive uniform noise with variance 1
    half = math.sqrt(3.0)
    noise = GridDensity.uniform(-half, half)
    h_sum = entropy_quadrature(convolve_density(noise, 1.0)).value
    mi_quad = h_sum - math.log(2.0 * half)
    assert mi_quad >= scalar - 1e-3

    elapsed = time.perf_counter() - started
    print(
        f"criterion 6: worst MI deviation {worst:.3e}, quadrature slack "
        f"{mi_quad - scalar:.3e} in {elapsed:.2f}s"
    )
    assert elapsed <= 10.0


def test_criterion_7_broadcast_design():
    started = time.perf_counter()
    inst = BroadcastInstance(
        np.array([[0.5]]), np.array([[2.0]]), np.array([[0.5]]), direction=np.array([[1.0]])
    )
    design = design_private_message(inst)
    assert abs(design.t_star - 2.0 / 3.0) <= 1e-8
    assert abs(design.trace_mse_rx1 - 2.0 / 7.0) <= 1e-8

    with pytest.raises(ThresholdUnreachable):
        design_private_message(
            BroadcastInstance(np.array([[0.5]]), np.array([[2.0]]), np.array([[3.0]]))
        )
    elapsed = time.perf_counter() - started
    print(
        f"criterion 7: t*={design.t_star:.10f}, rx1={design.trace_mse_rx1:.10f} "
        f"in {elapsed:.2f}s"
    )
    assert elapsed <= 10.0


def test_criterion_8_variational_checks():
    started = time.perf_counter()
    stationary = []
    combos = [
        (2.0, 1.0, 0.5),
        (1.5, 2.0, 1.0),
        (3.0, 0.8, 0.8),
        (2.5, 1.2, 0.4),
    ]
    pairs_per_combo = 25
    worst_form = -math.inf
    rng = np.random.default_rng(1008)
    for mu, var_x, var_v in combos:
        fx = GridDensity.gaussian(var_x)
        fv = GridDensity.gaussian(var_v)
        fy = convolve_pair(fx, fv)
        stationary.append(variational_first_residual(fx, fy, fv, mu))
        for _ in range(pairs_per_combo):
            hx = np.sin(rng.uniform(0.3, 2.0) * fx.grid + rng.normal()) * np.exp(
                -(fx.grid**2) / rng.uniform(2.0, 9.0)
            )
            hy = np.cos(rng.uniform(0.3, 2.0) * fy.grid + rng.normal()) * np.exp(
                -(fy.grid**2) / rng.uniform(2.0, 9.0)
            )
            # evaluated at the lowest admissible weight, where the
            # integrand is a completed square and negativity is exact
            val = variational_second_form(fx, fy, fv, mu, hx, hy, 1.0 - mu)
            worst_form = max(worst_form, val)
    elapsed = time.perf_counter() - started
    print(
        f"criterion 8: worst stationarity {max(stationary):.3e}, worst second "
        f"form {worst_form:.3e} over {len(combos) * pairs_per_combo} pairs in {elapsed:.2f}s"
    )
    assert max(stationary) <= 1e-3
    assert worst_form <= 1e-10
    assert elapsed <= 60.0


def test_criterion_9_reproducibility(capsys, tmp_path):
    started = time.perf_counter()
    argv = [
        "search", "--w", "1", "--v", "4", "--r", "10", "--mu", "2",
        "--trials", "2000", "--seed", "7",
    ]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(first) > 0

    # same property through the real process boundary
    cmd = [sys.executable, "-m", "eeikit.cli", "verify-epi", "--density", "uniform",
           "--density2", "gaussian:0.5", "--seed", "11"]
    out_a = subprocess.run(cmd, capture_output=True, timeout=60).stdout
    out_b = subprocess.run(cmd, capture_output=True, timeout=60).stdout
    assert out_a == out_b
    elapsed = time.perf_counter() - started
    print(f"criterion 9: {len(first)}-byte reports byte-identical in {elapsed:.2f}s")
    assert elapsed <= 10.0
