"""Tests for the LMMSE bound and the private-message broadcast design."""

import math

import numpy as np
import pytest

from eeikit import (
    BroadcastInstance,
    DimensionMismatch,
    NotPositiveDefinite,
    SeparationFailed,
    SingularCovariance,
    ThresholdUnreachable,
    design_private_message,
    gaussian_conditional_cov,
    mi_lower_bound,
    psd_leq,
    symmetrize,
)


def _rand_pd(rng, n, lo=0.05):
    f = rng.normal(size=(n, n))
    return symmetrize(f @ f.T) + lo * np.eye(n)


class TestLmmseMatrix:
    """The LMMSE error matrix, computed by gaussian_conditional_cov."""

    def test_scalar_half(self):
        out = gaussian_conditional_cov(np.array([[1.0]]), np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_psd_and_below_signal(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            sx = _rand_pd(rng, n)
            sz = _rand_pd(rng, n)
            e = gaussian_conditional_cov(sx, sz)
            assert np.linalg.eigvalsh(e).min() >= -1e-10
            assert psd_leq(e, sx, tol=1e-8)

    def test_blockwise_scalar_values(self):
        out = gaussian_conditional_cov(np.diag([1.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(out, np.diag([0.5, 0.8]), atol=1e-12)

    def test_high_snr_error_does_not_cancel(self):
        # s_x - s_x (s_x + s_z)^-1 s_x reads 0.0 here; the error is s_z to an ulp
        out = gaussian_conditional_cov(np.array([[1e16]]), np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_zero_source_estimates_itself(self):
        out = gaussian_conditional_cov(np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-14)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            gaussian_conditional_cov(np.eye(2), np.eye(3))
        with pytest.raises(SingularCovariance):
            gaussian_conditional_cov(np.zeros((2, 2)), np.zeros((2, 2)))


class TestMiLowerBound:
    def test_scalar_half_ln_two(self):
        assert mi_lower_bound(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_equals_gaussian_mi(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            sx = _rand_pd(rng, n)
            r = _rand_pd(rng, n)
            mi_gauss = 0.5 * (np.linalg.slogdet(sx + r)[1] - np.linalg.slogdet(r)[1])
            assert abs(mi_lower_bound(sx, r) - mi_gauss) <= 1e-10

    def test_high_snr_bound_is_finite(self):
        # a cancelled LMMSE error of 0.0 would raise SingularCovariance here
        bound = mi_lower_bound(np.array([[1e16]]), np.array([[1.0]]))
        assert bound == pytest.approx(0.5 * math.log1p(1e16), rel=1e-15)

    def test_singular_budget_rejected(self):
        with pytest.raises(SingularCovariance):
            mi_lower_bound(np.array([[1.0]]), np.array([[0.0]]))


class TestBroadcastInstance:
    def test_validation(self):
        with pytest.raises(NotPositiveDefinite):
            BroadcastInstance(np.array([[0.0]]), np.array([[2.0]]), np.array([[0.5]]))
        with pytest.raises(NotPositiveDefinite):
            BroadcastInstance(np.array([[0.5]]), np.array([[-2.0]]), np.array([[0.5]]))

    def test_default_direction_is_budget(self):
        inst = BroadcastInstance(np.array([[0.5]]), np.array([[2.0]]), np.array([[0.5]]))
        np.testing.assert_allclose(inst.direction, inst.r)
        assert inst.dim == 1


class TestDesign:
    def test_scalar_reference_instance(self):
        # direction fixed to the identity so t itself is the signal variance
        inst = BroadcastInstance(
            np.array([[0.5]]), np.array([[2.0]]), np.array([[0.5]]), direction=np.array([[1.0]])
        )
        design = design_private_message(inst)
        assert design.t_star == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert design.trace_mse_rx1 == pytest.approx(2.0 / 7.0, abs=1e-8)
        # receiver 2 is held exactly at the power budget
        assert design.trace_mse_rx2 == pytest.approx(0.5, abs=1e-8)
        assert design.trace_mse_rx1 < design.trace_mse_rx2

    def test_reference_instance_at_nano_scale(self):
        # Noises and threshold scaled by 1e-9 along the same unit direction:
        # t* scales with them, and Newton's stopping step is relative to t.
        c = 1e-9
        inst = BroadcastInstance(
            np.array([[0.5 * c]]), np.array([[2.0 * c]]), np.array([[0.5 * c]]),
            direction=np.array([[1.0]]),
        )
        design = design_private_message(inst)
        assert design.t_star == pytest.approx(2.0 / 3.0 * c, rel=1e-12, abs=0.0)
        assert design.trace_mse_rx1 == pytest.approx(2.0 / 7.0 * c, rel=1e-12, abs=0.0)
        assert design.trace_mse_rx2 == pytest.approx(0.5 * c, rel=1e-12, abs=0.0)

    def test_identical_channels_sit_on_the_boundary(self):
        inst = BroadcastInstance(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.5]]))
        design = design_private_message(inst)
        assert design.trace_mse_rx1 == pytest.approx(0.5, abs=1e-8)
        assert design.trace_mse_rx2 == pytest.approx(0.5, abs=1e-8)

    def test_threshold_unreachable(self):
        inst = BroadcastInstance(np.array([[0.5]]), np.array([[2.0]]), np.array([[3.0]]))
        with pytest.raises(ThresholdUnreachable):
            design_private_message(inst)

    def test_noisier_intended_receiver_is_not_separated(self):
        # t = 2/3 holds receiver 2 at 0.5; receiver 1's trace is then 6/11
        inst = BroadcastInstance(
            np.array([[3.0]]), np.array([[2.0]]), np.array([[0.5]]), direction=np.array([[1.0]])
        )
        with pytest.raises(SeparationFailed, match="receiver-1 trace 0.545454545"):
            design_private_message(inst)

    def test_separation_check_is_relative(self):
        # The same instance scaled by 1e-9: receiver 1's trace 5.45e-10 is
        # above the threshold 5e-10 by less than 1e-9, yet still rejected.
        inst = BroadcastInstance(
            np.array([[3e-9]]), np.array([[2e-9]]), np.array([[0.5e-9]]),
            direction=np.array([[1.0]]),
        )
        with pytest.raises(SeparationFailed, match="receiver-1 trace 5.45454545"):
            design_private_message(inst)

    @pytest.mark.parametrize(
        "direction",
        [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.2, 0.6], [0.6, 0.3]]],
        ids=["axis", "diagonal", "skew"],
    )
    def test_singular_direction_is_unreachable(self, direction):
        # Along a rank-one direction D = a a^T the posterior trace saturates
        # at |a|^2 / (a^T Z2^-1 a), here 0.955, 1.59 and 1.22, below Tr r = 2
        # although Tr Z2 = 3; rounding leaves the null eigenvalue of the
        # whitened D at -7e-18, 3e-17 and 3e-18.
        inst = BroadcastInstance(
            0.4 * np.eye(2),
            np.array([[1.0, 0.3], [0.3, 2.0]]),
            np.diag([1.2, 0.8]),
            direction=np.array(direction),
        )
        with pytest.raises(ThresholdUnreachable, match="saturates"):
            design_private_message(inst)

    def test_matrix_instance(self):
        inst = BroadcastInstance(
            0.4 * np.eye(2),
            np.array([[2.0, 0.3], [0.3, 1.5]]),
            np.array([[0.6, 0.1], [0.1, 0.5]]),
        )
        design = design_private_message(inst)
        tr_r = float(np.trace(inst.r))
        assert design.trace_mse_rx2 == pytest.approx(tr_r, abs=1e-8)
        assert design.trace_mse_rx1 < tr_r
        assert np.linalg.eigvalsh(design.s_x_star).min() >= -1e-10

    def test_posterior_trace_monotone_in_t(self):
        # Newton from t = 0 is well-posed because the receiver-2 error grows with t
        z2 = np.array([[2.0, 0.3], [0.3, 1.5]])
        direction = np.array([[0.6, 0.1], [0.1, 0.5]])
        traces = [
            float(np.trace(gaussian_conditional_cov(t * direction, z2)))
            for t in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(traces, traces[1:]))
        assert traces[-1] < float(np.trace(z2))

    def test_reference_instance_is_two_thirds_within_one_ulp(self):
        inst = BroadcastInstance(
            np.array([[0.5]]), np.array([[2.0]]), np.array([[0.5]]), direction=np.array([[1.0]])
        )
        assert abs(design_private_message(inst).t_star - 2.0 / 3.0) <= math.ulp(2.0 / 3.0)

    @staticmethod
    def _random_instance(k, fraction=None):
        """Draw k, with Tr r the given fraction of Tr s_z2 (else a uniform one)."""
        rng = np.random.default_rng([61, k])
        n = 1 + k % 4
        z2 = _rand_pd(rng, n, lo=0.5)
        direction = _rand_pd(rng, n, lo=0.1)
        if fraction is None:
            fraction = rng.uniform(0.05, 0.9)
        r = fraction * float(np.trace(z2)) / n * np.eye(n)
        return BroadcastInstance(0.5 * z2, z2, r, direction=direction)

    def test_scale_solves_its_own_equation(self):
        # Receiver 2's posterior trace, read back from the designed
        # covariance, equals Tr r to a few ulps on every draw.
        for k in range(200):
            inst = self._random_instance(k)
            tr_r = float(np.trace(inst.r))
            design = design_private_message(inst)
            assert abs(design.trace_mse_rx2 - tr_r) <= 3e-14 * tr_r, k

    @pytest.mark.parametrize("fraction", [1.0 - 1e-14, 1.0 - 1e-15])
    def test_scale_near_saturation(self, fraction):
        # Tr r within 1e-14 of Tr s_z2 puts t* near 1e16, where the LMMSE
        # error must not cancel: receiver 2 still reads Tr r, and receiver 1,
        # with half its noise, half of that.
        for k in range(200):
            inst = self._random_instance(k, fraction)
            tr_r = float(np.trace(inst.r))
            design = design_private_message(inst)
            assert abs(design.trace_mse_rx2 - tr_r) <= 3e-14 * tr_r, k
            assert abs(design.trace_mse_rx1 / design.trace_mse_rx2 - 0.5) <= 1e-12, k

    def test_as_dict_round_trip(self):
        inst = BroadcastInstance(
            np.array([[0.5]]), np.array([[2.0]]), np.array([[0.5]]), direction=np.array([[1.0]])
        )
        blob = design_private_message(inst).as_dict()
        assert blob["t_star"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert set(blob) >= {"s_x_star", "t_star", "trace_mse_rx1", "trace_mse_rx2"}
