"""Tests for the noise-split constructions and the constrained Gaussian optimum."""

import math

import numpy as np
import pytest

import eeikit
from eeikit import (
    BadMu,
    DimensionMismatch,
    EEIInstance,
    NotPositiveDefinite,
    construct_k,
    construct_l,
    dominating_gaussian,
    eei_optimum,
    f_alpha,
    f_alpha_argmax,
    gaussian_entropy,
    gaussian_search,
    matched_alpha,
    objective_single_noise,
    objective_two_noise,
    spectral_scale,
    symmetrize,
)


def _rand_pd(rng, n, lo=0.05):
    f = rng.normal(size=(n, n))
    return symmetrize(f @ f.T) + lo * np.eye(n)


def _cert_ok(cert, scale, tol=1e-8):
    assert cert.zero_product_residual <= tol * scale
    assert cert.markov_residual <= tol * scale
    assert cert.order_residual >= -tol * scale


class TestScalarClosedForms:
    def test_construct_l_threshold(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            x = rng.uniform(0.05, 5.0)
            w = rng.uniform(0.05, 5.0)
            mu = rng.uniform(1.01, 5.0)
            cert = construct_l(np.array([[x]]), np.array([[w]]), mu)
            expected = min(w, (mu - 1.0) * x)
            assert abs(cert.s_w_tilde[0, 0] - expected) <= 1e-12

    def test_construct_k_threshold(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            w = rng.uniform(0.05, 5.0)
            vt = rng.uniform(0.05, 5.0)
            mu = rng.uniform(1.01, 5.0)
            cert = construct_k(np.array([[w]]), np.array([[vt]]), mu)
            expected = min(w, vt / (mu - 1.0))
            assert abs(cert.s_w_tilde[0, 0] - expected) <= 1e-12

    def test_construct_l_clipped_scalar_example(self):
        # wide noise: the split removes the excess above (mu-1)*x
        cert = construct_l(np.array([[1.0]]), np.array([[3.0]]), 2.0)
        assert cert.multiplier[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert cert.s_w_tilde[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cert.s_x_star[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cert.s_complement[0, 0] == pytest.approx(0.0, abs=1e-12)
        _cert_ok(cert, 3.0)

    def test_construct_l_interior_scalar_keeps_noise(self):
        cert = construct_l(np.array([[1.0]]), np.array([[1.0]]), 2.0)
        assert cert.s_w_tilde[0, 0] == pytest.approx(1.0, abs=1e-12)
        _cert_ok(cert, 1.0)


class TestMatrixCertificates:
    def test_construct_l_batch(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            sx = _rand_pd(rng, n)
            sw = _rand_pd(rng, n)
            mu = rng.uniform(1.05, 5.0)
            cert = construct_l(sx, sw, mu)
            _cert_ok(cert, spectral_scale(sx, sw))
            # s_x_star + s_complement recovers the source
            np.testing.assert_allclose(
                cert.s_x_star + cert.s_complement, sx, atol=1e-9 * spectral_scale(sx)
            )

    def test_construct_k_batch(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            sw = _rand_pd(rng, n)
            svt = _rand_pd(rng, n)
            mu = rng.uniform(1.05, 5.0)
            cert = construct_k(sw, svt, mu)
            _cert_ok(cert, spectral_scale(sw, svt))
            # reduced noise sits below the original and below (mu-1)^-1 * v_tilde
            assert eeikit.psd_leq(cert.s_w_tilde, sw, tol=1e-8)
            assert eeikit.psd_leq(cert.s_w_tilde, svt / (mu - 1.0), tol=1e-8)

    def test_dominating_gaussian_battery(self):
        rng = np.random.default_rng(203)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            sx = _rand_pd(rng, n)
            sw = _rand_pd(rng, n)
            mu = rng.uniform(1.05, 5.0)
            s_star, cert = dominating_gaussian(sx, sw, mu)
            f_at_x = objective_single_noise(sx, sw, mu)
            f_at_star = objective_single_noise(s_star, sw, mu)
            assert f_at_star >= f_at_x - 1e-9
            np.testing.assert_allclose(s_star, cert.s_x_star)


class TestUnconstrainedProfile:
    def test_known_value(self):
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0)
        assert f_alpha(1.0, inst) == pytest.approx(-2.112085713764618, abs=1e-12)

    def test_argmax_closed_form(self):
        for mu in (1.1, 1.5, 2.0, 3.0, 10.0):
            inst = EEIInstance.from_scalars(mu, 1.0, 10.0)
            assert f_alpha_argmax(inst) == pytest.approx(1.0 / (mu - 1.0), rel=1e-12)

    def test_argmax_is_local_max(self):
        inst = EEIInstance(2.5, np.diag([1.0, 2.0]), 10.0 * np.eye(2))
        a_star = f_alpha_argmax(inst)
        best = f_alpha(a_star, inst)
        for delta in (1e-3, 1e-2, 0.1):
            assert best >= f_alpha(a_star + delta, inst)
            assert best >= f_alpha(max(a_star - delta, 1e-6), inst)

    def test_matched_alpha_round_trip(self):
        rng = np.random.default_rng(301)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            sw = _rand_pd(rng, n)
            alpha = rng.uniform(0.1, 5.0)
            h = gaussian_entropy(alpha * sw)
            assert matched_alpha(h, sw) == pytest.approx(alpha, rel=1e-10)


class TestConstrainedOptimum:
    def test_scalar_boundary_instance(self):
        # one-dimensional calculus: derivative negative on [0, r], optimum at 0
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0, 2.0)
        s_star, obj, cert = eei_optimum(inst)
        assert s_star[0, 0] == 0.0
        expected = gaussian_entropy(np.array([[1.0]])) - 2.0 * gaussian_entropy(np.array([[2.0]]))
        assert obj == pytest.approx(expected, abs=1e-6)
        _cert_ok(cert, 10.0, tol=1e-6)

    def test_scalar_interior_instance(self):
        # stationarity 1/(s+1) = 2/(s+4) gives s = 2 inside (0, 10)
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        s_star, obj, cert = eei_optimum(inst)
        assert s_star[0, 0] == pytest.approx(2.0, abs=1e-6)
        expected = gaussian_entropy(np.array([[3.0]])) - 2.0 * gaussian_entropy(np.array([[6.0]]))
        assert obj == pytest.approx(expected, abs=1e-8)
        _cert_ok(cert, 10.0, tol=1e-6)

    def test_equal_noises_collapse_to_zero(self):
        inst = EEIInstance.from_scalars(3.0, 1.5, 8.0, 1.5)
        s_star, obj, _ = eei_optimum(inst)
        assert abs(s_star[0, 0]) <= 1e-6
        assert obj == pytest.approx((1.0 - 3.0) * gaussian_entropy(np.array([[1.5]])), abs=1e-6)

    def test_matrix_battery_certificates_and_domination(self):
        rng = np.random.default_rng(401)
        for i in range(25):
            n = int(rng.integers(2, 4))
            inst = EEIInstance(
                mu=rng.uniform(1.1, 4.0),
                s_w=_rand_pd(rng, n, lo=0.2),
                r=_rand_pd(rng, n, lo=0.5),
                s_v=_rand_pd(rng, n, lo=0.2),
            )
            s_star, obj, cert = eei_optimum(inst)
            scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
            assert cert.markov_residual <= 1e-6 * scale
            assert cert.zero_product_residual <= 1e-6 * scale
            assert cert.order_residual >= -1e-6 * scale
            assert obj == pytest.approx(
                objective_two_noise(s_star, inst.s_w, inst.s_v, inst.mu), abs=1e-9
            )
            report = gaussian_search(inst, trials=400, seed=1000 + i)
            assert report.margin >= -1e-6

    def test_determinism(self):
        inst = EEIInstance(
            2.0,
            np.array([[1.0, 0.2], [0.2, 0.8]]),
            np.array([[5.0, 0.0], [0.0, 4.0]]),
            np.array([[2.0, -0.1], [-0.1, 3.0]]),
        )
        s1, o1, _ = eei_optimum(inst)
        s2, o2, _ = eei_optimum(inst)
        assert o1 == o2
        np.testing.assert_array_equal(s1, s2)


class TestOptimumGuardRails:
    """Closed forms and invariances the band optimum must reproduce."""

    @staticmethod
    def _random_instance(rng, n):
        return EEIInstance(
            mu=rng.uniform(1.1, 4.0),
            s_w=_rand_pd(rng, n, lo=0.2),
            r=_rand_pd(rng, n, lo=0.5),
            s_v=_rand_pd(rng, n, lo=0.2),
        )

    def test_commuting_instances_match_per_mode_closed_form(self):
        # W, V, R share eigenvectors Q, so the band problem splits into one
        # scalar problem per mode, whose derivative changes sign once
        rng = np.random.default_rng(601)
        for n in range(2, 7):
            mu = rng.uniform(1.2, 4.0)
            w = rng.uniform(0.2, 2.0, n)
            v = mu * w + (mu - 1.0) * w * rng.uniform(-0.5, 3.0, n)
            r = rng.uniform(0.3, 3.0, n)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))

            def turn(d):
                return symmetrize(q @ (d[:, None] * q.T))

            inst = EEIInstance(mu=mu, s_w=turn(w), r=turn(r), s_v=turn(v))
            s_star, obj, _ = eei_optimum(inst)
            s_ref = turn(np.clip((v - mu * w) / (mu - 1.0), 0.0, r))
            scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
            assert float(np.max(np.abs(s_star - s_ref))) <= 1e-6 * scale
            assert obj == pytest.approx(
                objective_two_noise(s_ref, inst.s_w, inst.s_v, mu), abs=1e-9
            )

    def test_scale_covariance(self):
        # S*(cW, cV, cR) = c S*(W, V, R)
        rng = np.random.default_rng(602)
        for n in (2, 3):
            inst = self._random_instance(rng, n)
            s_star, _, _ = eei_optimum(inst)
            scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
            for c in (1e-3, 1e3):
                s_c, _, _ = eei_optimum(
                    EEIInstance(inst.mu, c * inst.s_w, c * inst.r, c * inst.s_v)
                )
                assert float(np.max(np.abs(s_c / c - s_star))) <= 1e-7 * scale

    def test_orthogonal_invariance(self):
        # S*(Q W Q^T, Q V Q^T, Q R Q^T) = Q S*(W, V, R) Q^T
        rng = np.random.default_rng(603)
        for n in (2, 3, 4):
            inst = self._random_instance(rng, n)
            s_star, _, _ = eei_optimum(inst)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            turned = EEIInstance(
                inst.mu,
                symmetrize(q @ inst.s_w @ q.T),
                symmetrize(q @ inst.r @ q.T),
                symmetrize(q @ inst.s_v @ q.T),
            )
            s_q, _, _ = eei_optimum(turned)
            scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
            assert float(np.max(np.abs(s_q - q @ s_star @ q.T))) <= 1e-7 * scale


class TestErrorPaths:
    def test_bad_mu_message(self):
        with pytest.raises(BadMu, match="mu must exceed 1"):
            construct_l(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        with pytest.raises(BadMu):
            EEIInstance.from_scalars(0.5, 1.0, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            construct_l(np.array([[1.0]]), np.eye(2), 2.0)
        with pytest.raises(DimensionMismatch):
            EEIInstance(2.0, np.eye(2), np.eye(3))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            construct_l(np.array([[-1.0]]), np.array([[1.0]]), 2.0)
        with pytest.raises(NotPositiveDefinite):
            construct_k(np.array([[1.0]]), np.array([[0.0]]), 2.0)
