"""Tests for the noise-split constructions and the constrained Gaussian optimum."""

import dataclasses
import functools
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eeikit
from eeikit import (
    BadMu,
    DimensionMismatch,
    DominationFailed,
    EEIInstance,
    NoConvergence,
    NotPositiveDefinite,
    SplitInfeasible,
    construct_k,
    construct_l,
    cov_to_json,
    dominating_gaussian,
    eei_optimum,
    f_alpha,
    f_alpha_argmax,
    gaussian_entropy,
    gaussian_search,
    markov_residual,
    matched_alpha,
    objective_single_noise,
    objective_two_noise,
    spectral_scale,
    symmetrize,
)
from eeikit import construct
from eeikit.cli import COMMANDS, _certificate_outcome, main
from eeikit.gaussmat import simdiag_basis

# Property tests draw a fixed example sequence, so the suite stays
# deterministic; solves are too slow for hypothesis's default deadline.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=10)
_SEEDS = st.integers(0, 2**32 - 1)


def _rand_pd(rng, n, lo=0.05):
    f = rng.normal(size=(n, n))
    return symmetrize(f @ f.T) + lo * np.eye(n)


def _l_chain(cert, x, w):
    """The source split's Markov chain (X'; X' + X* + W~; X + W)."""
    x_prime = cert.s_complement
    return x_prime, x_prime + cert.s_x_star + cert.s_w_tilde, x + w


def _k_chain(cert, w):
    """The noise split's and band optimum's Markov chain (X*; X* + W~; X* + W)."""
    x = cert.s_x_star
    return x, x + cert.s_w_tilde, x + w


def _cert_ok(cert, scale, chain, tol=1e-8):
    assert cert.zero_product_residual <= tol * scale
    assert markov_residual(chain) <= tol * scale
    assert cert.order_residual >= -tol * scale


def _assert_markov_follows_from_zero_product(cert, w, scale):
    """``||M||_F <= 2 ||W~||_2 (1 + ||(X* + W)^-1 X*||_2) ||2K X*||_F``, plus rounding.

    With ``W~ = (W^-1 + 2K)^-1`` (Woodbury), the Markov kernel of the chain
    (X*; X* + W~; X* + W) is ``M = E + E^T`` for
    ``E = W~ (2K X* - 2K X* (X* + W)^-1 X*)``, so a certificate whose
    zero product vanishes has a vanishing Markov residual.
    """
    x = cert.s_x_star
    bound = (
        2.0
        * np.linalg.norm(cert.s_w_tilde, 2)
        * (1.0 + np.linalg.norm(np.linalg.solve(x + w, x), 2))
        * cert.zero_product_residual
    )
    assert markov_residual(_k_chain(cert, w)) <= bound + 1e-13 * scale


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
        x, w = np.array([[1.0]]), np.array([[3.0]])
        cert = construct_l(x, w, 2.0)
        assert cert.multiplier[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert cert.s_w_tilde[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cert.s_x_star[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cert.s_complement[0, 0] == pytest.approx(0.0, abs=1e-12)
        _cert_ok(cert, 3.0, _l_chain(cert, x, w))

    def test_construct_l_interior_scalar_keeps_noise(self):
        one = np.array([[1.0]])
        cert = construct_l(one, one, 2.0)
        assert cert.s_w_tilde[0, 0] == pytest.approx(1.0, abs=1e-12)
        _cert_ok(cert, 1.0, _l_chain(cert, one, one))


class TestMatrixCertificates:
    def test_construct_l_batch(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            sx = _rand_pd(rng, n)
            sw = _rand_pd(rng, n)
            mu = rng.uniform(1.05, 5.0)
            cert = construct_l(sx, sw, mu)
            _cert_ok(cert, spectral_scale(sx, sw), _l_chain(cert, sx, sw))
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
            _cert_ok(cert, spectral_scale(sw, svt), _k_chain(cert, sw))
            # reduced noise sits below the original and below (mu-1)^-1 * v_tilde
            assert eeikit.psd_leq(cert.s_w_tilde, sw, tol=1e-8)
            assert eeikit.psd_leq(cert.s_w_tilde, svt / (mu - 1.0), tol=1e-8)

    def test_construct_k_markov_residual_follows_from_zero_product(self):
        rng = np.random.default_rng(204)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sw, svt = _rand_pd(rng, n, lo=0.2), _rand_pd(rng, n, lo=0.2)
            cert = construct_k(sw, svt, rng.uniform(1.1, 4.0))
            _assert_markov_follows_from_zero_product(cert, sw, spectral_scale(sw, svt))

    def test_construct_l_markov_residual_follows_from_zero_product(self):
        # X + W~ = (inv(X + W) + L)^-1, so the Markov kernel of the chain
        # (X'; X + W~; X + W) is E + E^T with E = (X + W~) L X', and
        # ||M||_F <= 2 ||X + W~||_2 ||L X'||_F.
        rng = np.random.default_rng(205)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sx, sw = _rand_pd(rng, n, lo=0.2), _rand_pd(rng, n, lo=0.2)
            cert = construct_l(sx, sw, rng.uniform(1.1, 4.0))
            bound = (
                2.0
                * np.linalg.norm(sx + cert.s_w_tilde, 2)
                * cert.zero_product_residual
            )
            kernel = markov_residual(_l_chain(cert, sx, sw))
            assert kernel <= bound + 1e-13 * spectral_scale(sx, sw)

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

    def test_dominating_gaussian_can_fail(self, monkeypatch):
        # a split whose X* scores below X must not pass as dominating
        split = construct.construct_l

        def shrunk(s_x, s_w, mu):
            cert = split(s_x, s_w, mu)
            return dataclasses.replace(cert, s_x_star=1e-6 * cert.s_x_star)

        monkeypatch.setattr(construct, "construct_l", shrunk)
        with pytest.raises(DominationFailed, match="below input"):
            dominating_gaussian(np.eye(2), np.diag([0.5, 3.0]), 2.0)


def _split_battery():
    """700 draws ``(mu, A, B)`` at n = 1..5 for ``construct_l(A, B)`` and ``construct_k(B, A)``.

    A has eigenvalues in [0.1, 10].  By ``i % 4``, B is random with such
    eigenvalues; ``c A`` (every mode of d tied); A's eigenvectors with a
    tied pair of eigenvalues; or ``(mu - 1) A``, every mode of the source
    split on its threshold.
    """
    rng = np.random.default_rng(2027)

    def rotated(ev):
        q, _ = np.linalg.qr(rng.normal(size=(ev.size, ev.size)))
        return symmetrize((q * ev) @ q.T), q

    for i in range(700):
        n, mu = i % 5 + 1, float(rng.uniform(1.05, 5.0))
        a, q = rotated(rng.uniform(0.1, 10.0, n))
        kind = i % 4
        if kind == 0:
            b, _ = rotated(rng.uniform(0.1, 10.0, n))
        elif kind == 1:
            b = float(rng.uniform(0.1, 10.0)) * a
        elif kind == 2:
            ev = rng.uniform(0.1, 10.0, n)
            ev[1:2] = ev[0]
            b = symmetrize((q * ev) @ q.T)
        else:
            b = (mu - 1.0) * a
        yield mu, a, b


@functools.cache
def _battery_splits():
    """``(mu, A, B, construct_l(A, B, mu), construct_k(B, A, mu))`` over the battery."""
    return [(mu, a, b, construct_l(a, b, mu), construct_k(b, a, mu))
            for mu, a, b in _split_battery()]


def _simdiag_rule_multipliers():
    """Each battery split with L and K rebuilt as ``Q diag(m) Q^T`` from :func:`simdiag`.

    simdiag's Q differs from the splits' basis in column signs only, which the
    product does not see: this is how the inverse-chain splits built L and K.
    """
    def rule_of(a, b, thr, rule):
        q, d = eeikit.simdiag(a, b)
        m = np.where(d <= thr + construct._BRANCH_TOL, 0.0, rule(d))
        return symmetrize(q @ (m[:, None] * q.T))

    return [(mu, a, b, cl, ck,
             rule_of(a, b, mu - 1.0, lambda d: (d - (mu - 1.0)) / (mu * (1.0 + d))),
             rule_of(a, b, 1.0 / (mu - 1.0), lambda d: (mu - 1.0) - 1.0 / d))
            for mu, a, b, cl, ck in _battery_splits()]


def _split_with_clip_shift(shift):
    """``construct._mode_split`` with the clip threshold of the reduced noise moved by shift."""
    def split(a, b, names, thr, rule):
        a, b, q, d, p = simdiag_basis(a, b, names, b_pd=True)
        m = np.where(d <= thr + construct._BRANCH_TOL, 0.0, rule(d))
        t = np.minimum(d, thr + shift)
        return a, b, symmetrize(q @ (m[:, None] * q.T)), symmetrize(p.T @ (t[:, None] * p))
    return split


def _relative_gap(lhs, rhs):
    return float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(rhs))


# sha256 over the bytes of L, then K, draw by draw over _split_battery(), as the
# splits that computed W~ by the inverse chains W~ = inv(inv(X + W) + L) - X and
# W~ = inv(inv(W) + K) gave them (numpy 2.4, OpenBLAS 0.3.31, x86-64).
_RECORDED_MULTIPLIERS = "8e3f0458fb4572a8f541c17a2eebc96108e7280b49cd20d49b42e2c242861762"


class TestExplicitSplits:
    """The splits write W~ per mode; the paper's defining identities still hold."""

    def test_battery_covers_every_dimension_and_tied_spectra(self):
        draws = list(_split_battery())
        assert len(draws) >= 600
        assert {a.shape[0] for _, a, _ in draws} == {1, 2, 3, 4, 5}
        spectra = [simdiag_basis(a, b)[3] for _, a, b in draws if a.shape[0] > 1]
        tied = [d for d in spectra if np.min(np.abs(np.diff(d))) <= 1e-9 * d[0]]
        assert len(tied) >= len(spectra) // 2

    def test_defining_identities_hold(self):
        for mu, a, b, cl, ck in _battery_splits():
            # source split: (X + W~)^-1 = (X + W)^-1 + L
            rhs = np.linalg.inv(a + b) + cl.multiplier
            assert _relative_gap(np.linalg.inv(a + cl.s_w_tilde), rhs) <= 1e-10
            # noise split: W~^-1 = W^-1 + K
            rhs = np.linalg.inv(b) + ck.multiplier
            assert _relative_gap(np.linalg.inv(ck.s_w_tilde), rhs) <= 1e-10

    def test_multipliers_are_the_simdiag_rule_bit_for_bit(self):
        for _, _, _, cl, ck, ref_l, ref_k in _simdiag_rule_multipliers():
            assert cl.multiplier.tobytes() == ref_l.tobytes()
            assert ck.multiplier.tobytes() == ref_k.tobytes()

    def test_multipliers_match_the_recorded_inverse_chain_run(self):
        library, reference = hashlib.sha256(), hashlib.sha256()
        for *_, cl, ck, ref_l, ref_k in _simdiag_rule_multipliers():
            library.update(cl.multiplier.tobytes() + ck.multiplier.tobytes())
            reference.update(ref_l.tobytes() + ref_k.tobytes())
        if reference.hexdigest() != _RECORDED_MULTIPLIERS:
            pytest.skip("this BLAS/LAPACK rounds the simdiag rule differently from the recording")
        assert library.hexdigest() == _RECORDED_MULTIPLIERS

    def test_unshifted_copy_is_the_library(self, monkeypatch):
        # the mutation below edits this copy of _mode_split, not another rule
        splits = _battery_splits()
        monkeypatch.setattr(construct, "_mode_split", _split_with_clip_shift(0.0))
        for mu, a, b, cl, ck in splits:
            for ours, lib in ((construct_l(a, b, mu), cl), (construct_k(b, a, mu), ck)):
                assert json.dumps(ours.as_dict()) == json.dumps(lib.as_dict())

    def test_wrong_clip_threshold_fails_the_cli_gate(self, monkeypatch):
        # W~ = P^T diag(min(d, mu)) P for the source split (and min(d, 1/(mu-1) + 1)
        # for the noise split) breaks L X' = 0 or an ordering wherever a mode
        # has d above the true threshold.
        clipped = []
        for mu, a, b in _split_battery():
            d = simdiag_basis(a, b)[3]
            if d[0] > (mu - 1.0) + 1e-3 and d[0] > 1.0 / (mu - 1.0) + 1e-3:
                clipped.append((mu, a, b))
        assert len(clipped) >= 200
        gate = COMMANDS["construct-l"].tol
        for mu, a, b in clipped:
            worst = _certificate_outcome(construct_l(a, b, mu), a, b).lhs
            assert worst <= gate
        monkeypatch.setattr(construct, "_mode_split", _split_with_clip_shift(1.0))
        for mu, a, b in clipped:
            assert _certificate_outcome(construct_l(a, b, mu), a, b).lhs > gate
            assert _certificate_outcome(construct_k(b, a, mu), b, a).lhs > gate


class TestUnconstrainedProfile:
    def test_known_value(self):
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0)
        assert f_alpha(1.0, inst) == pytest.approx(-2.112085713764618, abs=1e-12)

    def test_argmax_closed_form(self):
        for mu in (1.1, 1.5, 2.0, 3.0, 10.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.0002, 1.0005, 1e4, 1e9):
            inst = EEIInstance.from_scalars(mu, 1.0, 10.0)
            assert f_alpha_argmax(inst) == pytest.approx(1.0 / (mu - 1.0), rel=1e-12)

    def test_argmax_is_local_max(self):
        # Steps relative to the argmax, which runs from 1e-9 to 1e9 over these mu.
        for mu in (2.5, 1.0 + 1e-9, 1.0 + 1e-6, 1.0002, 1.0005, 1e4, 1e9):
            inst = EEIInstance(mu, np.diag([1.0, 2.0]), 10.0 * np.eye(2))
            a_star = f_alpha_argmax(inst)
            best = f_alpha(a_star, inst)
            for rel in (1e-3, 1e-2, 0.1):
                assert best >= f_alpha(a_star * (1.0 + rel), inst), (mu, rel)
                assert best >= f_alpha(a_star * (1.0 - rel), inst), (mu, rel)

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
        _cert_ok(cert, 10.0, _k_chain(cert, inst.s_w), tol=1e-6)

    def test_scalar_interior_instance(self):
        # stationarity 1/(s+1) = 2/(s+4) gives s = 2 inside (0, 10)
        inst = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)
        s_star, obj, cert = eei_optimum(inst)
        assert s_star[0, 0] == pytest.approx(2.0, abs=1e-6)
        expected = gaussian_entropy(np.array([[3.0]])) - 2.0 * gaussian_entropy(np.array([[6.0]]))
        assert obj == pytest.approx(expected, abs=1e-8)
        _cert_ok(cert, 10.0, _k_chain(cert, inst.s_w), tol=1e-6)

    def test_equal_noises_collapse_to_zero(self):
        inst = EEIInstance.from_scalars(3.0, 1.5, 8.0, 1.5)
        s_star, obj, _ = eei_optimum(inst)
        assert abs(s_star[0, 0]) <= 1e-6
        assert obj == pytest.approx((1.0 - 3.0) * gaussian_entropy(np.array([[1.5]])), abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("gap", [1e-4, 1e-3, 1e-2])
    def test_equal_noises_collapse_to_zero_near_mu_one(self, n, gap):
        # W = V = R = I: G(0) = (1 - mu) I / 2 <= 0, so S* = 0 with every
        # mode on the face S = 0, however weakly (multiplier (mu - 1)/2)
        eye = np.eye(n)
        s_star, _, _ = eei_optimum(EEIInstance(1.0 + gap, eye, eye, eye))
        assert np.all(s_star == 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("gap", [1e-7, 1e-6, 1e-5])
    def test_equal_noises_collapse_to_zero_at_weaker_multipliers(self, n, gap):
        # The barrier path cannot find these: its last stage leaves each mode
        # at lam ~ tau / multiplier, above the pin tolerance.  G(0) <= 0 names
        # the vertex S = 0 before any barrier stage.
        eye = np.eye(n)
        s_star, _, _ = eei_optimum(EEIInstance(1.0 + gap, eye, eye, eye))
        assert np.all(s_star == 0.0)

    @staticmethod
    def _check_battery_instance(inst, seed):
        s_star, obj, cert = eei_optimum(inst)
        scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
        assert markov_residual(_k_chain(cert, inst.s_w)) <= 1e-6 * scale
        assert cert.zero_product_residual <= 1e-6 * scale
        assert cert.order_residual >= -1e-6 * scale
        assert obj == pytest.approx(
            objective_two_noise(s_star, inst.s_w, inst.s_v, inst.mu), abs=1e-9
        )
        report = gaussian_search(inst, trials=400, seed=seed)
        assert report.margin >= -1e-6

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
            self._check_battery_instance(inst, 1000 + i)

    @_PROPERTY
    @given(seed=_SEEDS, n=st.sampled_from((2, 3)), mu=st.sampled_from((1.0 + 1e-6, 1e4)))
    def test_matrix_battery_at_extreme_mu(self, seed, n, mu):
        # mu just above 1 and mu large, the ends of the weight range
        rng = np.random.default_rng(seed)
        inst = EEIInstance(
            mu=mu,
            s_w=_rand_pd(rng, n, lo=0.2),
            r=_rand_pd(rng, n, lo=0.5),
            s_v=_rand_pd(rng, n, lo=0.2),
        )
        self._check_battery_instance(inst, seed % 1000)

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

    def test_single_noise_is_the_source_split(self):
        # without s_v the optimum is construct_l(R, W)'s X*, bit for bit
        rng = np.random.default_rng(407)
        for n in (1, 1, 2, 3, 4):
            inst = EEIInstance(rng.uniform(1.1, 4.0), _rand_pd(rng, n), _rand_pd(rng, n))
            s_star, obj, cert = eei_optimum(inst)
            split = construct_l(inst.r, inst.s_w, inst.mu)
            assert s_star.tobytes() == split.s_x_star.tobytes()
            assert obj == objective_single_noise(split.s_x_star, inst.s_w, inst.mu)
            assert cert.as_dict() == split.as_dict()


class TestSymmetricCoordinates:
    """The band solver's closed forms against their definitions.

    The reference basis is built here from explicit unit matrices, in the
    solver's order: E_ii on the diagonal, E_ij + E_ji above it.
    """

    @staticmethod
    def _basis(n):
        eye = np.eye(n)
        return [
            np.outer(eye[a], eye[a]) if a == b else np.outer(eye[a], eye[b]) + np.outer(eye[b], eye[a])
            for a in range(n)
            for b in range(a, n)
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_forms_match_the_definition(self, n):
        rng = np.random.default_rng(n)
        basis = self._basis(n)
        i, j, c = construct._sym_coords(n)
        # coordinate a moves c_a (E_ij + E_ji), in the reference order
        for a, b_a in enumerate(basis):
            e_ij = np.outer(np.eye(n)[i[a]], np.eye(n)[j[a]])
            np.testing.assert_array_equal(c[a] * (e_ij + e_ij.T), b_a)
        p = np.stack([symmetrize(rng.normal(size=(n, n))) for _ in range(4)])
        trace = np.array([[[np.trace(q @ b_a @ q @ b_b) for b_b in basis] for b_a in basis] for q in p])
        gathers = construct._newton_frame(n)[-1]
        np.testing.assert_allclose(construct._trace_products(p, gathers), trace, rtol=1e-12, atol=1e-12)
        # gradient map <G, B_a> = 2 c_a G_ij and step sum_a delta_a B_a
        g = p[0]
        np.testing.assert_array_equal(2.0 * c * g[i, j], [np.sum(g * b_a) for b_a in basis])
        delta = rng.normal(size=len(basis))
        d_s = np.zeros((n, n))
        d_s[i, j] = d_s[j, i] = delta
        np.testing.assert_array_equal(d_s, sum(d * b_a for d, b_a in zip(delta, basis)))

    @pytest.mark.parametrize("k", range(4))
    def test_face_columns_match_outer_products(self, k):
        # k = 0 is an empty face: a design with no columns
        rng = np.random.default_rng(10 + k)
        for n in range(max(k, 1), 7):
            u = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :k]
            ref = []
            for a in range(k):
                ref.append(np.outer(u[:, a], u[:, a]).ravel())
                for b in range(a + 1, k):
                    e = np.outer(u[:, a], u[:, b])
                    ref.append((e + e.T).ravel())
            ref = np.array(ref).reshape(-1, n * n).T
            np.testing.assert_array_equal(construct._face_columns(u), ref)


class TestBarrierValue:
    """The barrier surrogate the band solver maximizes, against its definition."""

    def test_rejects_an_infeasible_s(self):
        # S = -0.1 I has two negative eigenvalues, so det S > 0: a sign test
        # on the determinant would accept it.
        # With R = I the whitened form of S is S itself.
        eye = np.eye(2)
        wv = np.stack((eye, 2.0 * eye))
        value, *factors = construct._barrier_value(-0.1 * eye, -0.1 * eye, eye, wv, 2.0, 1e-3, 0.0)
        assert value == -np.inf
        assert factors == [None, None, None]

    def test_rejects_a_candidate_whose_noise_sum_is_indefinite(self):
        # X = S = diag(-2, 0.5) lies off the band, and S + W = diag(-1, 1.5)
        # is indefinite.  The one stacked eigh factors S + W and S + V before
        # the band test, so a logarithm taken before it would warn.
        eye = np.eye(2)
        s = np.diag([-2.0, 0.5])
        wv = np.stack((eye, 3.0 * eye))
        assert np.linalg.eigvalsh(s + wv[0])[0] < 0.0 < np.linalg.eigvalsh(s + wv[0])[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, *factors = construct._barrier_value(s, s, eye, wv, 2.0, 1e-3, 0.0)
        assert value == -np.inf
        assert factors == [None, None, None]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_its_definition(self, n):
        # h(S + W) - mu h(S + V) + tau (log det S + log det(R - S)) at S
        # strictly inside the band: S = L X L^T with R = L L^T and the
        # eigenvalues of X in [0.05, 0.95]
        rng = np.random.default_rng([31, n])
        for tau in (1e-14, 1e-6, 1e-2, 1.0):
            mu = rng.uniform(1.1, 4.0)
            w, v, r = (_rand_pd(rng, n, lo=lo) for lo in (0.2, 0.2, 0.5))
            l = np.linalg.cholesky(r)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            y = l @ q
            s = symmetrize(y @ (rng.uniform(0.05, 0.95, n)[:, None] * y.T))
            log_dets = [np.linalg.slogdet(m) for m in (s, r - s)]
            assert all(sign == 1.0 for sign, _ in log_dets)
            expected = objective_two_noise(s, w, v, mu) + tau * sum(ld for _, ld in log_dets)
            l_inv, log_det_r = np.linalg.inv(l), np.linalg.slogdet(r)[1]
            x = symmetrize(l_inv @ s @ l_inv.T)
            value, lam, y_u, p = construct._barrier_value(s, x, l, np.stack((w, v)), mu, tau, log_det_r)
            assert value == pytest.approx(expected, rel=1e-12)
            # the factors the next step reads: S's whitened spectrum and the
            # inverses of S + W and S + V in its eigenvectors
            np.testing.assert_allclose(y_u @ (lam[:, None] * y_u.T), s, atol=1e-12 * spectral_scale(r))
            inv = y_u.T @ np.linalg.inv(np.stack((s + w, s + v))) @ y_u
            np.testing.assert_allclose(p, inv, rtol=1e-10, atol=1e-10 * np.max(np.abs(inv)))
            np.testing.assert_array_equal(p, p.transpose(0, 2, 1))


class TestWhitenedBarrier:
    """The barrier's closed form in R's whitened frame against its definition.

    At ``S = Y diag(lam) Y^T``, ``R = Y Y^T`` a move ``Y E Y^T`` has barrier
    Hessian ``-tr(P B_a P B_b)`` summed over ``P = Y^T S^-1 Y`` and
    ``Y^T (R - S)^-1 Y``, and gradient ``Y^T (S^-1 - (R - S)^-1) Y``.
    """

    @pytest.mark.parametrize("band", ["random", "cond 1e8"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_trace_products(self, n, band):
        # The thin band is axis-aligned: a rotated one rounds S in
        # coordinates where R^-1 is 1e8, which moves the whitened spectrum
        # by about 1e-16 * 1e8, whatever computes it.
        rng = np.random.default_rng([43, n])
        i, j, c2, *_, gathers = construct._newton_frame(n)
        for _ in range(10):
            r = _rand_pd(rng, n, lo=0.5) if band == "random" else np.diag(np.geomspace(1.0, 1e-8, n))
            l = np.linalg.cholesky(r)
            y0 = l @ np.linalg.qr(rng.normal(size=(n, n)))[0]
            s = symmetrize(y0 @ (rng.uniform(0.05, 0.95, n)[:, None] * y0.T))
            lam, y = construct._whitened_spectrum(s, l, np.linalg.inv(l))
            p = y.T @ np.linalg.inv(np.stack((s, r - s))) @ y
            p = 0.5 * (p + p.transpose(0, 2, 1))
            trace = construct._trace_products(p, gathers).sum(axis=0)
            h, d = construct._band_barrier(lam, i, j, c2)
            # exactly diagonal: the off-diagonal trace products vanish
            np.testing.assert_allclose(np.diag(h), trace, rtol=1e-10, atol=1e-10 * np.max(h))
            grad = c2 * (p[0] - p[1])[i, j]
            atol = 1e-10 * np.max(np.abs(grad))
            np.testing.assert_allclose(c2 * np.diag(d)[i, j], grad, rtol=1e-10, atol=atol)


def _stage_frame(r):
    """``(l, l_inv, frame, log_det_r)``: the per-solve arguments of a barrier stage."""
    l = np.linalg.cholesky(r)
    return l, np.linalg.inv(l), construct._newton_frame(r.shape[0]), np.linalg.slogdet(r)[1]


def _stage_value(x, wv, mu, tau, l, l_inv, frame, log_det_r):
    """The barrier value of S = x as a stage scores its starts."""
    return construct._barrier_value(x, symmetrize(l_inv @ x @ l_inv.T), l, wv, mu, tau, log_det_r)


class TestBarrierStage:
    """Stopping rules of one Newton centering stage."""

    @pytest.mark.parametrize("seed, n", [(2, 3), (0, 4)])
    def test_flat_candidate_ends_the_stage(self, monkeypatch, seed, n):
        # Every candidate scores exactly phi, the start's barrier value, so
        # none is accepted: the first one ends the stage, after the start's
        # score and that candidate's.
        inst = TestOptimumGuardRails._random_instance(np.random.default_rng(seed), n)
        w, v, r, mu = inst.s_w, inst.s_v, inst.r, inst.mu
        frame = _stage_frame(r)
        s = construct._band_start((v - mu * w) / (mu - 1.0), *frame[:2])
        wv = np.stack((w, v))
        scored = _stage_value(s, wv, mu, 1e-2, *frame)
        calls = []

        def flat(*args):
            calls.append(None)
            return scored

        monkeypatch.setattr(construct, "_barrier_value", flat)
        again = construct._barrier_stage((s,), wv, mu, 1e-2, *frame)
        np.testing.assert_array_equal(again, s)
        assert len(calls) == 2
        # two starts tie, so the stage begins from the first: one score each
        again = construct._barrier_stage((s, r / 2.0), wv, mu, 1e-2, *frame)
        np.testing.assert_array_equal(again, s)
        assert len(calls) == 2 + 3

    @pytest.mark.parametrize("n", range(2, 9))
    def test_carried_factors_reproduce_s_and_r(self, monkeypatch, n):
        # Scoring a candidate factors it once; the (lam, Y) it returns is
        # what the next step reads if the candidate is accepted, so every
        # accepted step must still have S = Y diag(lam) Y^T and R = Y Y^T.
        value, scored = construct._barrier_value, []

        def recorded(s, *args):
            out = value(s, *args)
            scored.append((s, out))
            return out

        monkeypatch.setattr(construct, "_barrier_value", recorded)
        inst = TestOptimumGuardRails._random_instance(np.random.default_rng([55, n]), n)
        if n == 2:
            # This draw is the vertex S = 0, G(0) <= 0, with K = -G(0), and enters
            # no barrier stage.  The factors are checked on the first [55, 2, j]
            # draw that is not a vertex; j = 0 gives this draw's stream again.
            s, _, cert = eei_optimum(inst)
            g0 = symmetrize(np.linalg.inv(inst.s_w) - inst.mu * np.linalg.inv(inst.s_v)) / 2.0
            assert np.all(s == 0.0) and scored == []
            np.testing.assert_allclose(
                cert.multiplier / 2.0, -g0, rtol=0.0, atol=1e-12 * np.max(np.abs(g0)))
            inst = TestOptimumGuardRails._random_instance(np.random.default_rng([55, 2, 1]), n)
        eei_optimum(inst)
        tol = 1e-12 * spectral_scale(inst.s_w, inst.s_v, inst.r)
        feasible = [(s, lam, y) for s, (phi, lam, y, _) in scored if phi > -np.inf]
        for s, lam, y in feasible:
            assert np.max(np.abs(y @ (lam[:, None] * y.T) - s)) <= tol
            assert np.max(np.abs(y @ y.T - inst.r)) <= tol
        assert len(feasible) >= 30


class TestCentralPathWarmStart:
    """The fixed tau ladder, and each stage's starts: the last centre, then the secant guess."""

    @staticmethod
    def _stages(monkeypatch, inst):
        """``(starts, tau, centre)`` of each barrier stage of one solve."""
        stage, stages = construct._barrier_stage, []

        def recorded(starts, *args):
            centre = stage(starts, *args)
            # args are (wv, mu, tau, l, l_inv, frame, log_det_r)
            stages.append((starts, args, centre))
            return centre

        monkeypatch.setattr(construct, "_barrier_stage", recorded)
        eei_optimum(inst)
        return stages

    def test_stage_starts_at_the_centre_or_higher(self, monkeypatch):
        guesses = 0
        for seed in range(10):
            inst = TestOptimumGuardRails._random_instance(np.random.default_rng(seed), 2 + seed % 5)
            stages = self._stages(monkeypatch, inst)
            for (_, _, centre), (starts, args, end) in zip(stages, stages[1:]):
                np.testing.assert_array_equal(starts[0], centre)
                if len(starts) == 1:
                    continue
                # the floor's last stages are never offered a guess
                assert args[2] > 1e3 * construct._TAU_FLOOR, seed
                phi = [_stage_value(x, *args)[0] for x in starts]
                guesses += phi[1] > phi[0]
                # steps only raise phi, so the stage ends at or above its best start
                assert _stage_value(end, *args)[0] >= max(phi), seed
        # the warm start is taken, not merely offered
        assert guesses >= 10

    def test_ladder_ignores_the_data(self, monkeypatch):
        # A well-conditioned band and a cond-1e8 thin band: a first tau read
        # off the data, 0.1 max|G| / max|S^-1, (R - S)^-1|, differs 6e7-fold.
        inst = TestOptimumGuardRails._random_instance(np.random.default_rng(0), 3)
        _, mu, w, v, r = next(TestOptimumGuardRails._thin_band_draws(1e8))
        thin = EEIInstance(mu=mu, s_w=w, r=r, s_v=v)
        ladders = [[args[2] for _, args, _ in self._stages(monkeypatch, x)] for x in (inst, thin)]
        assert ladders[0] == ladders[1]
        expected = [max(construct._TAU_START / 30.0**k, construct._TAU_FLOOR) for k in range(10)]
        assert ladders[0] == pytest.approx(expected, rel=1e-12)

    def test_newton_step_budget(self, monkeypatch):
        # One _trace_products call per Newton step: 1212 steps over these
        # 20 solves when every stage starts from the last centre.
        products = construct._trace_products
        calls = []

        def counted(*args):
            calls.append(None)
            return products(*args)

        monkeypatch.setattr(construct, "_trace_products", counted)
        for seed in range(20):
            eei_optimum(TestOptimumGuardRails._random_instance(np.random.default_rng(seed), 2 + seed % 5))
        assert len(calls) <= 1100


class TestTrustRegionStep:
    """The shift search of a barrier step against bisection on the shift."""

    @staticmethod
    def _root(lam, gq, shift, radius):
        # ||gq / (x - lam)|| falls as x rises above max(lam); it is at most
        # radius once x - max(lam) >= ||gq|| / radius.
        lo, hi = shift, max(shift, lam[-1] + float(np.linalg.norm(gq)) / radius)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(gq / (mid - lam)) > radius:
                lo = mid
            else:
                hi = mid
        return hi

    @pytest.mark.parametrize("top_sign", [-1.0, 1.0])
    def test_matches_bisection(self, top_sign):
        rng = np.random.default_rng(909)
        raised_count = 0
        for _ in range(300):
            m = int(rng.integers(1, 30))
            lam = np.sort(rng.normal(size=m))
            lam += top_sign * abs(rng.normal()) - lam[-1]
            gq = rng.normal(size=m)
            shift = max(0.0, lam[-1]) + 10.0 ** rng.uniform(-12, 0)
            radius = 10.0 ** rng.uniform(-3, 1)
            z, raised = construct._trust_region_step(lam, gq, shift, radius)
            unraised = gq / (shift - lam)
            if np.linalg.norm(unraised) <= radius:
                assert raised == shift
                np.testing.assert_array_equal(z, unraised)
                continue
            raised_count += 1
            root = self._root(lam, gq, shift, radius)
            assert np.linalg.norm(z) == pytest.approx(radius, rel=1e-12)
            # the Newton updates approach the root from below, up to rounding
            assert shift <= raised <= root * (1.0 + 1e-12)
            step = gq / (raised - lam)
            np.testing.assert_allclose(z, step * (radius / np.linalg.norm(step)), rtol=1e-12)
            # the model gain g.z + z.(lam z)/2 is close to the exact step's;
            # scaling the unraised step down can keep under 1% of it
            exact = gq / (root - lam)
            gain = gq @ z + 0.5 * z @ (lam * z)
            assert gain >= 0.95 * (gq @ exact + 0.5 * exact @ (lam * exact))
        assert raised_count > 100


class TestSolverBitIdentities:
    """Two numpy facts the band solver's bytes rest on, checked on a solve's own data.

    Each barrier candidate is factored by one ``eigh`` of the stack
    ``(X, S + W, S + V)`` and step lengths are ``sqrt(z.z)``.  If a numpy
    release breaks either fact, this test names why the solver's bytes moved.
    """

    @staticmethod
    def _recorded(monkeypatch, n):
        """The ``(S, X, wv)`` of each scored candidate and each trust-region step of one solve."""
        value, step, scored, steps = construct._barrier_value, construct._trust_region_step, [], []

        def scoring(s, x, y, wv, *args):
            scored.append((s, x, wv))
            return value(s, x, y, wv, *args)

        def stepping(*args):
            out = step(*args)
            steps.append(out[0])
            return out

        monkeypatch.setattr(construct, "_barrier_value", scoring)
        monkeypatch.setattr(construct, "_trust_region_step", stepping)
        eei_optimum(TestOptimumGuardRails._random_instance(np.random.default_rng([67, n]), n))
        return scored, steps

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_eigh_matches_separate_calls(self, monkeypatch, n):
        scored, _ = self._recorded(monkeypatch, n)
        assert len(scored) >= 30
        for s, x, wv in scored[:: max(1, len(scored) // 40)]:
            mats = (x, s + wv[0], s + wv[1])
            ev, vec = np.linalg.eigh(np.stack(mats))
            for k, m in enumerate(mats):
                e1, v1 = np.linalg.eigh(m)
                assert ev[k].tobytes() == e1.tobytes()
                assert vec[k].tobytes() == v1.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_step_norm_is_sqrt_of_dot(self, monkeypatch, n):
        _, steps = self._recorded(monkeypatch, n)
        assert len(steps) >= 30
        for z in steps:
            assert math.sqrt(z.dot(z)) == np.linalg.norm(z)


def _kkt_residual(s, k, w, v, r, mu):
    """KKT residual of S with K, the multiplier on the face S = 0, from scratch.

    Stationarity ``G + K - N = 0`` leaves ``N = G + K`` for the face
    S = R, G the gradient.  The residual is the worst of the band
    violation of S, the negative parts of K and N, and the complementarity
    products ``||K S||`` and ``||N (R - S)||``, each relative to the
    gradient scale (the larger entry of the gradient's two halves, as the
    library's first-order gate reads it), the spectral scale or both.  It
    fits no faces, so it does not depend on how the solver pinned them.
    """
    scale = spectral_scale(w, v, r)
    g_w, g_v = 0.5 * np.linalg.inv(s + w), 0.5 * mu * np.linalg.inv(s + v)
    g = symmetrize(g_w - g_v)
    g_scale = max(float(np.max(np.abs(g_w))), float(np.max(np.abs(g_v))))
    n_mat = g + k
    return max(
        -float(np.linalg.eigvalsh(s)[0]) / scale,
        -float(np.linalg.eigvalsh(r - s)[0]) / scale,
        -float(np.linalg.eigvalsh(k)[0]) / g_scale,
        -float(np.linalg.eigvalsh(n_mat)[0]) / g_scale,
        float(np.linalg.norm(k @ s)) / (g_scale * scale),
        float(np.linalg.norm(n_mat @ (r - s))) / (g_scale * scale),
    )


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

    def test_markov_residual_follows_from_zero_product(self):
        for seed in range(24):
            inst = self._random_instance(np.random.default_rng(seed), 2 + seed % 4)
            _, _, cert = eei_optimum(inst)
            scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
            # the faces are exact null vectors of S*, so K S* is rounding
            assert cert.zero_product_residual <= 1e-14 * scale
            _assert_markov_follows_from_zero_product(cert, inst.s_w, scale)

    def test_commuting_instances_match_per_mode_closed_form(self):
        # W, V, R share eigenvectors Q, so the band problem splits into one
        # scalar problem per mode, whose derivative changes sign once
        rng = np.random.default_rng(601)
        for n in (2, 3, 4, 5, 6, 12):
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

    # S* = V - 2W = [[2, 1.2], [1.2, 2]], strictly inside 0 <= S <= 10 I
    _INTERIOR = EEIInstance(2.0, np.eye(2), 10.0 * np.eye(2), np.array([[4.0, 1.2], [1.2, 4.0]]))

    @_PROPERTY
    @given(seed=_SEEDS, n=st.sampled_from((2, 3)), log_c=st.floats(-12.0, 12.0))
    @example(seed=602, n=2, log_c=-6.0)
    @example(seed=602, n=3, log_c=6.0)
    @example(seed=None, n=2, log_c=-6.0)
    def test_scale_covariance(self, seed, n, log_c):
        # S*(cW, cV, cR) = c S*(W, V, R), with c log-uniform in [1e-12, 1e12];
        # seed None takes _INTERIOR
        if seed is None:
            inst = self._INTERIOR
        else:
            inst = self._random_instance(np.random.default_rng(seed), n)
        c = 10.0**log_c
        s_star, _, _ = eei_optimum(inst)
        s_c, _, _ = eei_optimum(EEIInstance(inst.mu, c * inst.s_w, c * inst.r, c * inst.s_v))
        scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
        assert float(np.max(np.abs(s_c / c - s_star))) <= 1e-7 * scale

    def test_scaled_benign_draws_solve_at_every_scale(self):
        # Every tolerance is relative to the instance's own spectra, so the
        # solve of (cW, cV, cR) is c times that of (W, V, R) to rounding, from
        # noise powers of 1e-12 to 1e12.
        for k in range(60):
            rng = np.random.default_rng([5, k])
            n, mu = 2 + k % 3, rng.uniform(1.1, 4.0)
            w, v, r = (_rand_pd(rng, n, lo=lo) for lo in (0.2, 0.2, 0.5))
            s_one, _, _ = eei_optimum(EEIInstance(mu, w, r, v))
            bar = 1e-11 * spectral_scale(s_one)
            for c in (1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12):
                s_c, _, _ = eei_optimum(EEIInstance(mu, c * w, c * r, c * v))
                assert float(np.max(np.abs(s_c / c - s_one))) <= bar, (k, c)

    @_PROPERTY
    @given(seed=_SEEDS, q_seed=_SEEDS, n=st.sampled_from((2, 3, 4)))
    def test_orthogonal_invariance(self, seed, q_seed, n):
        # S*(Q W Q^T, Q V Q^T, Q R Q^T) = Q S*(W, V, R) Q^T
        inst = self._random_instance(np.random.default_rng(seed), n)
        q, _ = np.linalg.qr(np.random.default_rng(q_seed).normal(size=(n, n)))
        s_star, _, _ = eei_optimum(inst)
        turned = EEIInstance(
            inst.mu,
            symmetrize(q @ inst.s_w @ q.T),
            symmetrize(q @ inst.r @ q.T),
            symmetrize(q @ inst.s_v @ q.T),
        )
        s_q, _, _ = eei_optimum(turned)
        scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
        assert float(np.max(np.abs(s_q - q @ s_star @ q.T))) <= 1e-7 * scale

    def test_near_singular_constraint(self):
        # R = Q diag(1, ..., 1e-6) Q^T: a band 1e-6 thin in one direction.
        rng = np.random.default_rng(5)
        for n in (2, 2, 2, 3, 3, 3):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            inst = EEIInstance(
                mu=rng.uniform(1.1, 4.0),
                s_w=_rand_pd(rng, n, lo=0.2),
                r=symmetrize(q @ (np.geomspace(1.0, 1e-6, n)[:, None] * q.T)),
                s_v=_rand_pd(rng, n, lo=0.2),
            )
            _, _, cert = eei_optimum(inst)
            scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
            _cert_ok(cert, scale, _k_chain(cert, inst.s_w), tol=1e-6)

    def test_ill_conditioned_band_is_not_an_input_error(self, tmp_path):
        # R = Q diag(1, ..., 1e-6) Q^T is PD, so neither the library nor the
        # CLI may report an input error: the barrier path must stay inside
        # the band, outside which S + W can be singular.
        rng = np.random.default_rng([77, 8])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        mu = rng.uniform(1.1, 4.0)
        w, v = _rand_pd(rng, 4, lo=0.2), _rand_pd(rng, 4, lo=0.2)
        r = symmetrize(q @ (np.geomspace(1.0, 1e-6, 4)[:, None] * q.T))
        try:
            eei_optimum(EEIInstance(mu=mu, s_w=w, r=r, s_v=v))
        except NoConvergence:
            pass
        argv = ["optimum", "--mu", repr(mu)]
        for role, mat in (("w", w), ("v", v), ("r", r)):
            path = tmp_path / f"{role}.json"
            path.write_text(json.dumps(cov_to_json(mat)))
            argv += [f"--{role}", str(path)]
        assert main(argv) != 2

    @staticmethod
    def _thin_band_draws(cond):
        """60 draws ``default_rng([77, k])``, n = 2 + k % 3, R = Q diag(1, ..., 1/cond) Q^T."""
        for k in range(60):
            n = 2 + k % 3
            rng = np.random.default_rng([77, k])
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            mu = rng.uniform(1.1, 4.0)
            w, v = _rand_pd(rng, n, lo=0.2), _rand_pd(rng, n, lo=0.2)
            r = symmetrize(q @ (np.geomspace(1.0, 1.0 / cond, n)[:, None] * q.T))
            yield k, mu, w, v, r

    @staticmethod
    def _thin_noise_draws(cond):
        """60 draws ``default_rng([88, k])``, n = 2 + k % 3, V = Q2 diag(1, ..., 1/cond) Q2^T."""
        for k in range(60):
            n = 2 + k % 3
            rng = np.random.default_rng([88, k])
            rng.normal(size=(n, n))  # the rotation of a thin W, drawn first
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            mu = rng.uniform(1.1, 4.0)
            w = _rand_pd(rng, n, lo=0.2)
            v = symmetrize(q2 @ (np.geomspace(1.0, 1.0 / cond, n)[:, None] * q2.T))
            yield k, mu, w, v, _rand_pd(rng, n, lo=0.5)

    @staticmethod
    @functools.cache
    def _thin_solves(battery):
        """Each cond-1e6 draw of a thin battery with its optimum at scale 1."""
        draws = {"thin-r": TestOptimumGuardRails._thin_band_draws,
                 "thin-v": TestOptimumGuardRails._thin_noise_draws}[battery](1e6)
        return tuple((k, mu, w, v, r, eei_optimum(EEIInstance(mu, w, r, v))[0])
                     for k, mu, w, v, r in draws)

    @pytest.mark.parametrize("battery", ["thin-r", "thin-v"])
    @pytest.mark.parametrize("c", [1e-9, 1e9])
    def test_thin_draws_solve_at_every_scale(self, battery, c):
        # A noise power of 1e-9 or a band of 1e9 is an ordinary input: the
        # scaled draw solves as the unscaled one does.  K scales as 1/c, so
        # the KKT residual is read in the unscaled instance's units.
        for k, mu, w, v, r, s_one in self._thin_solves(battery):
            s_c, _, cert = eei_optimum(EEIInstance(mu, c * w, c * r, c * v))
            assert _kkt_residual(s_c / c, c * cert.multiplier / 2.0, w, v, r, mu) <= 1e-8, k
            assert float(np.max(np.abs(s_c / c - s_one))) <= 1e-7 * spectral_scale(w, v, r), k

    @pytest.mark.parametrize("cond", [1e8, 1e9])
    def test_thin_noise_draws_solve(self, cond):
        # Every thin-V draw returns a first-order optimum.  50 of the 60 are the
        # vertex S = 0, where the barrier path leaves a mode above the pin:
        # without the vertex test, k = 9 read 1.4e-8 and k = 10 raised
        # SplitInfeasible at cond 1e8, and 15 draws raised it at cond 1e9.
        failed = []
        for k, mu, w, v, r in self._thin_noise_draws(cond):
            try:
                s, _, cert = eei_optimum(EEIInstance(mu, w, r, v))
            except (NoConvergence, SplitInfeasible):
                failed.append(k)
                continue
            if _kkt_residual(s, cert.multiplier / 2.0, w, v, r, mu) > 1e-8:
                failed.append(k)
        assert failed == []

    @staticmethod
    @functools.cache
    def _thin_band_residuals(cond):
        """KKT residual of each thin-band draw's optimum, None where it raised NoConvergence.

        Cached, so the three thin-band tests below share one set of solves.
        """
        residuals = []
        for _, mu, w, v, r in TestOptimumGuardRails._thin_band_draws(cond):
            try:
                s, _, cert = eei_optimum(EEIInstance(mu=mu, s_w=w, r=r, s_v=v))
            except NoConvergence:
                residuals.append(None)
                continue
            # the certificate's multiplier is 2K
            residuals.append(_kkt_residual(s, cert.multiplier / 2.0, w, v, r, mu))
        return tuple(residuals)

    @pytest.mark.parametrize("cond", [1e6, 1e8])
    def test_only_no_convergence_on_valid_input(self, cond):
        # R = Q diag(1, ..., 1/cond) Q^T is PD, so the solve either returns a
        # first-order optimum or raises NoConvergence; a LinAlgError from a
        # numerically singular step would be a ValueError, which the CLI
        # reports as an input error.
        for k, res in enumerate(self._thin_band_residuals(cond)):
            assert res is None or res <= 1e-8, k

    @pytest.mark.parametrize("cond", [1e4, 1e6, 1e8])
    def test_thin_bands_mostly_solve(self, cond):
        # At least 56 of the 60 draws return a first-order optimum.
        residuals = self._thin_band_residuals(cond)
        assert sum(res is not None and res <= 1e-6 for res in residuals) >= 56

    @pytest.mark.parametrize(
        "cond",
        [1e4, 1e6, 1e8, 1e9, pytest.param(5e9, marks=pytest.mark.xfail(strict=True, raises=AssertionError))],
    )
    def test_thin_bands_solve(self, cond):
        # Every draw returns a first-order optimum: no NoConvergence and a
        # residual within 1e-8.  At cond 5e9, 4 of the 60 draws still fail,
        # k = 5, 33, 42 and 56 (ROADMAP item 3).
        residuals = self._thin_band_residuals(cond)
        failed = [k for k, res in enumerate(residuals) if res is None or res > 1e-8]
        assert failed == []

    @staticmethod
    @functools.cache
    def _high_snr_residuals(c):
        """KKT residual of criterion 4's n >= 2 draws with R scaled by c, by draw index.

        The draws are ``default_rng(1004)``'s, n = 1 + i % 4, with mu, W, R
        and V drawn in that order; None where the solve raised NoConvergence.
        """
        rng = np.random.default_rng(1004)
        residuals = {}
        for i in range(100):
            n = i % 4 + 1
            mu = rng.uniform(1.1, 4.0)
            w, r, v = (_rand_pd(rng, n, lo=lo) for lo in (0.2, 0.5, 0.2))
            if n == 1:
                continue
            try:
                s, _, cert = eei_optimum(EEIInstance(mu, w, c * r, v))
            except NoConvergence:
                residuals[i] = None
                continue
            residuals[i] = _kkt_residual(s, cert.multiplier / 2.0, w, v, c * r, mu)
        return residuals

    # Criterion 4's draws that stall in the first barrier stage, which is cut
    # at 30 steps (ROADMAP item 21, cause 1).
    _FIRST_STAGE_CUT = (46, 78)

    @pytest.mark.parametrize("c", [1e8, 1e9])
    def test_high_snr_draws_solve(self, c):
        # A budget 1e8 or 1e9 times the noises leaves the free modes at the
        # noises' scale, so the pin tolerance is read from that scale, not
        # R's: read from R's, it pinned free modes to S = 0, and 18 and 61 of
        # these draws raised NoConvergence.
        residuals = self._high_snr_residuals(c)
        failed = [i for i, res in residuals.items()
                  if i not in self._FIRST_STAGE_CUT and (res is None or res > 1e-8)]
        assert len(residuals) == 75 and failed == []

    @pytest.mark.parametrize("c", [1e8, 1e9])
    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_high_snr_first_stage_draws_solve(self, c):
        residuals = self._high_snr_residuals(c)
        assert all(residuals[i] is not None and residuals[i] <= 1e-8 for i in self._FIRST_STAGE_CUT)

    def test_band_start_is_strictly_inside_the_band(self):
        # For any PD R and any symmetric s0, S and R - S are PD.
        rng = np.random.default_rng(808)
        for _ in range(250):
            n = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lam = np.geomspace(1.0, 10.0 ** -rng.uniform(2, 10), n)
            r = symmetrize(q @ (lam[:, None] * q.T))
            # indefinite and far outside the band: eigenvalues -1e3, 1e3 and
            # n - 2 more of that size
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            d = 1e3 * np.concatenate(([-1.0, 1.0], rng.normal(size=n - 2)))
            l = np.linalg.cholesky(r)
            s = construct._band_start(symmetrize(u @ (d[:, None] * u.T)), l, np.linalg.inv(l))
            np.linalg.cholesky(s)
            np.linalg.cholesky(r - s)
        # inside the band the map is affine: R/2 goes to R/8 + 3/4 (R/2) = R/2
        half = construct._band_start(r / 2.0, l, np.linalg.inv(l))
        np.testing.assert_allclose(half, r / 2.0, atol=1e-12)

    def test_random_instance_n12(self):
        rng = np.random.default_rng(3)
        mu = rng.uniform(1.1, 4.0)
        w, v, r = (_rand_pd(rng, 12, lo=lo) for lo in (0.2, 0.2, 0.5))
        eei_optimum(EEIInstance(mu=mu, s_w=w, r=r, s_v=v))

    def test_random_instance_n16(self):
        for k in range(4):
            rng = np.random.default_rng([31, 16, k])
            mu = rng.uniform(1.1, 4.0)
            w, v, r = (_rand_pd(rng, 16, lo=lo) for lo in (0.2, 0.2, 0.5))
            s, _, cert = eei_optimum(EEIInstance(mu=mu, s_w=w, r=r, s_v=v))
            assert _kkt_residual(s, cert.multiplier / 2.0, w, v, r, mu) <= 1e-6, k


class TestOptimumChecksCanFail:
    """Each check on the band optimum trips when its claim is broken."""

    # W, V and R share the eigenvectors of a rotation Q.  Per mode the
    # optimum is s = clip((v - mu w)/(mu - 1), 0, r) = (4/3, 0), so the
    # second mode lies on the face S = 0, with multiplier
    # K = (mu/v - 1/w)/2 = 17/24 there.
    Q = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])

    @classmethod
    def _turn(cls, d):
        return symmetrize(cls.Q @ np.diag(d) @ cls.Q.T)

    @classmethod
    def _instance(cls):
        return EEIInstance(
            4.0, cls._turn([1.0, 0.8]), cls._turn([5.0, 3.0]), cls._turn([8.0, 1.5])
        )

    @classmethod
    def _solved(cls):
        inst = cls._instance()
        s_star, _, cert = eei_optimum(inst)
        scale = spectral_scale(inst.s_w, inst.s_v, inst.r)
        _cert_ok(cert, scale, _k_chain(cert, inst.s_w))
        k = cert.multiplier / 2.0
        np.testing.assert_allclose(k, cls._turn([0.0, 17.0 / 24.0]), atol=1e-9)
        return inst, s_star, k, scale

    def test_sign_flipped_multiplier_trips_order(self):
        inst, s_star, k, scale = self._solved()
        cert = construct._optimum_certificate(
            s_star, -k, inst.s_w, inst.s_v, inst.r, inst.mu, spectral_scale(inst.s_w, inst.s_v)
        )
        assert cert.order_residual < -0.1 * scale

    def test_noise_above_the_second_noise_is_split_infeasible(self):
        # K = 0 keeps W~ = W = I, but V = 0.1 I lies below it: the split gap
        # min_eig(V - W~) is -0.9.
        eye, zero = np.eye(2), np.zeros((2, 2))
        with pytest.raises(SplitInfeasible, match="-9.000e-01"):
            construct._optimum_certificate(
                zero, zero, eye, 0.1 * eye, eye, 2.0, spectral_scale(eye, 0.1 * eye)
            )

    def test_multiplier_off_the_face_trips_zero_product(self):
        inst, s_star, k, scale = self._solved()
        inactive = self.Q[:, :1]
        moved = np.linalg.norm(k) * (inactive @ inactive.T)
        cert = construct._optimum_certificate(
            s_star, moved, inst.s_w, inst.s_v, inst.r, inst.mu, spectral_scale(inst.s_w, inst.s_v)
        )
        assert cert.zero_product_residual > 0.1 * scale

    @classmethod
    def _lifted(cls):
        # S* with its pinned eigenvalue lifted to 1e-3, far above the pin's
        # tolerance: no face is found and the gradient on that direction is
        # left unabsorbed.
        _, s_star, _, _ = cls._solved()
        face = cls.Q[:, 1:]
        return s_star + 1e-3 * (face @ face.T)

    @staticmethod
    def _barrier_returns(monkeypatch, s):
        monkeypatch.setattr(construct, "_interior_newton", lambda *args: s)

    def test_lifted_face_trips_first_order_gate(self, monkeypatch):
        self._barrier_returns(monkeypatch, self._lifted())
        with pytest.raises(NoConvergence, match="first-order residual"):
            eei_optimum(self._instance())

    @pytest.mark.parametrize("c", [1e-9, 1e9])
    def test_lifted_face_trips_first_order_gate_at_every_scale(self, monkeypatch, c):
        # The same relative lift, scaled with the instance: neither the pin
        # tolerance nor the gate's bar is absolute, so the gate still trips.
        self._barrier_returns(monkeypatch, c * self._lifted())
        inst = self._instance()
        with pytest.raises(NoConvergence, match="first-order residual"):
            eei_optimum(EEIInstance(inst.mu, c * inst.s_w, c * inst.r, c * inst.s_v))

    def test_negative_multiplier_trips_first_order_gate(self, monkeypatch):
        # S = 0 pins both modes to the face S = 0, so G + K = 0 is solved
        # exactly; but the first mode's gradient 1/2 - mu/(2v) = 1/4 asks
        # for K = -1/4 there, which is not PSD.
        self._barrier_returns(monkeypatch, np.zeros((2, 2)))
        with pytest.raises(NoConvergence, match="first-order residual 2.500e-01"):
            eei_optimum(self._instance())

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
    def test_kkt_residual_helper_trips_at_every_scale(self, c):
        # The helper is the other tests' independent KKT check: the lifted S
        # and the sign-flipped K, scaled with the instance by c, must read
        # above the loosest bar any test applies to it (1e-6), at every c.
        inst, s_star, k, _ = self._solved()
        w, v, r = c * inst.s_w, c * inst.s_v, c * inst.r
        assert _kkt_residual(c * self._lifted(), k / c, w, v, r, inst.mu) > 1e-6
        assert _kkt_residual(c * s_star, -k / c, w, v, r, inst.mu) > 1e-6

    def test_lifted_face_fails_cli_optimum(self, monkeypatch, tmp_path, capsys):
        inst = self._instance()
        self._barrier_returns(monkeypatch, self._lifted())
        argv = ["optimum", "--mu", "4"]
        for role, mat in (("w", inst.s_w), ("v", inst.s_v), ("r", inst.r)):
            path = tmp_path / f"{role}.json"
            path.write_text(json.dumps(cov_to_json(mat)))
            argv += [f"--{role}", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NoConvergence" in captured.err


class TestErrorPaths:
    def test_bad_mu_message(self):
        with pytest.raises(BadMu, match="mu must exceed 1"):
            construct_l(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        with pytest.raises(BadMu):
            EEIInstance.from_scalars(0.5, 1.0, 1.0)

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_non_finite_mu(self, mu):
        eye = np.eye(2)
        with pytest.raises(BadMu, match="mu must exceed 1 and be finite"):
            EEIInstance(mu, eye, eye, eye)
        with pytest.raises(BadMu):
            construct_l(eye, eye, mu)
        with pytest.raises(BadMu):
            construct_k(eye, eye, mu)

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
        # the noise must be strictly positive definite in both splits
        singular = np.diag([1.0, 0.0])
        with pytest.raises(NotPositiveDefinite, match="s_w must be strictly positive definite"):
            construct_l(np.eye(2), singular, 2.0)
        with pytest.raises(NotPositiveDefinite, match="s_w must be strictly positive definite"):
            construct_k(singular, np.eye(2), 2.0)
