"""Each documented input rejection of the library, one case apiece.

Every case calls the public entry point with exactly one bad input and
checks both the error class and the message of the rejection it means
to reach, so a case cannot pass on an earlier, unrelated check.
"""

import functools
import math

import numpy as np
import pytest

from eeikit import (
    BroadcastInstance,
    DimensionMismatch,
    EEIInstance,
    GridDensity,
    InvalidParameter,
    SingularCovariance,
    check_eei,
    check_epi,
    check_worst_noise,
    f_alpha,
    gaussian_entropy,
    gaussian_search,
    construct_l,
    gaussian_conditional_cov,
    markov_residual,
    psd_leq,
)

_EYE1, _EYE2, _EYE3 = np.eye(1), np.eye(2), np.eye(3)
_EMPTY = np.zeros((0, 0))
_FLAT = np.full(11, 1.0)  # unit mass on [0, 1]
_SEARCHED = EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0)


def _nan_sample():
    vals = _FLAT.copy()
    vals[4] = np.nan
    return GridDensity(0.0, 1.0, vals)


_REJECTIONS = {
    "gaussian_entropy-singular": (
        lambda: gaussian_entropy(np.diag([1.0, 0.0])), SingularCovariance, "singular"),
    "markov_residual-singular-third": (
        lambda: markov_residual((_EYE2, _EYE2, np.zeros((2, 2)))), SingularCovariance,
        "third covariance"),
    "markov_residual-shapes": (
        lambda: markov_residual((_EYE2, _EYE2, _EYE3)), DimensionMismatch, "one shape"),
    "psd_leq-shapes": (lambda: psd_leq(_EYE2, _EYE3), DimensionMismatch, "shape mismatch"),
    "psd_leq-empty": (
        lambda: psd_leq(_EYE1, _EMPTY), DimensionMismatch, "b must be square and non-empty"),
    "psd_leq-not-finite": (
        lambda: psd_leq(np.full((1, 1), np.nan), _EYE1), InvalidParameter, "a must be finite"),
    "gaussian_entropy-empty": (
        lambda: gaussian_entropy(_EMPTY), DimensionMismatch,
        "covariance must be square and non-empty"),
    "gaussian_conditional_cov-empty": (
        lambda: gaussian_conditional_cov(_EMPTY, _EYE1), DimensionMismatch,
        "s_x must be square and non-empty"),
    "construct_l-empty": (
        lambda: construct_l(_EMPTY, _EYE1, 2.0), DimensionMismatch,
        "s_x must be square and non-empty"),
    "EEIInstance-empty": (
        lambda: EEIInstance(2.0, _EMPTY, _EMPTY), DimensionMismatch,
        "s_w must be square and non-empty"),
    "EEIInstance-s_v-dim": (
        lambda: EEIInstance(2.0, _EYE2, _EYE2, _EYE3), DimensionMismatch, "s_v and s_w"),
    "f_alpha-zero": (
        lambda: f_alpha(0.0, EEIInstance.from_scalars(2.0, 1.0, 1.0)), InvalidParameter,
        "alpha must be positive"),
    "BroadcastInstance-shapes": (
        lambda: BroadcastInstance(_EYE1, _EYE2, _EYE2), DimensionMismatch, "share one dimension"),
    "BroadcastInstance-threshold-trace": (
        lambda: BroadcastInstance(_EYE1, _EYE1, np.zeros((1, 1))), InvalidParameter,
        "positive trace"),
    "BroadcastInstance-direction-shape": (
        lambda: BroadcastInstance(_EYE1, _EYE1, _EYE1, direction=_EYE2), DimensionMismatch,
        "direction must match"),
    "BroadcastInstance-zero-direction": (
        lambda: BroadcastInstance(_EYE1, _EYE1, _EYE1, direction=np.zeros((1, 1))),
        InvalidParameter, "nonzero"),
    "GridDensity-empty-support": (
        lambda: GridDensity(1.0, 0.0, _FLAT), InvalidParameter, "support_hi must exceed"),
    "GridDensity-nan-sample": (_nan_sample, InvalidParameter, "samples must be finite"),
    "from_callable-shape": (
        lambda: GridDensity.from_callable(lambda x: x[:-1], 0.0, 1.0), InvalidParameter,
        "one value per grid node"),
    "from_callable-zero-mass": (
        lambda: GridDensity.from_callable(np.zeros_like, 0.0, 1.0), InvalidParameter,
        "nonpositive or divergent mass"),
    "check_worst_noise-zero-noise": (
        lambda: check_worst_noise(GridDensity.gaussian(1.0), 0.0, 1.0), InvalidParameter,
        "noise variances must be positive"),
    "gaussian_search-no-trials": (
        lambda: gaussian_search(EEIInstance.from_scalars(2.0, 1.0, 10.0, 4.0), 0, 7),
        InvalidParameter, "at least one trial"),
    "gaussian_search-fractional-trials": (
        lambda: gaussian_search(_SEARCHED, 10.5, 7), InvalidParameter,
        "trials must be a positive integer, got 10.5"),
    "gaussian_search-bool-trials": (
        lambda: gaussian_search(_SEARCHED, True, 7), InvalidParameter,
        "trials must be a positive integer, got True"),
    "gaussian_search-negative-seed": (
        lambda: gaussian_search(_SEARCHED, 5, -1), InvalidParameter,
        "seed must be a non-negative integer, got -1"),
    "gaussian_search-fractional-seed": (
        lambda: gaussian_search(_SEARCHED, 5, 7.5), InvalidParameter,
        "seed must be a non-negative integer, got 7.5"),
    "gaussian_search-bool-seed": (
        lambda: gaussian_search(_SEARCHED, 5, False), InvalidParameter,
        "seed must be a non-negative integer, got False"),
}

# Each check with its tolerance left open; inf would pass every check,
# -1 and nan would fail every one.
_TOLERANT = {
    "check_eei": lambda tol: check_eei(GridDensity.uniform(0.0, 1.0), 2.0, 1.0, 1.0, tol=tol),
    "check_epi": lambda tol: check_epi(GridDensity.uniform(0.0, 1.0), GridDensity.gaussian(1.0), tol=tol),
    "check_worst_noise": lambda tol: check_worst_noise(GridDensity.gaussian(1.0), 0.5, 0.5, tol=tol),
    "gaussian_search": lambda tol: gaussian_search(_SEARCHED, 5, 7, tol=tol),
}
_REJECTIONS.update({
    f"{name}-{label}-tol": (
        functools.partial(check, tol), InvalidParameter, "tol must be finite and non-negative")
    for name, check in _TOLERANT.items()
    for label, tol in (("inf", math.inf), ("negative", -1.0), ("nan", math.nan))
})


@pytest.mark.parametrize("case", _REJECTIONS)
def test_rejection(case):
    call, error, message = _REJECTIONS[case]
    with pytest.raises(error, match=message):
        call()
