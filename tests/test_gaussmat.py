"""Tests for the symmetric-matrix and Gaussian-entropy helpers."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, seed, target
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eeikit import (
    LOG_2PI_E,
    BroadcastInstance,
    DimensionMismatch,
    EEIInstance,
    InvalidParameter,
    NotPositiveDefinite,
    SingularCovariance,
    construct_l,
    cov_from_json,
    cov_to_json,
    gaussian_conditional_cov,
    gaussian_entropy,
    load_cov,
    markov_residual,
    psd_leq,
    simdiag,
    spectral_scale,
    symmetrize,
)
from eeikit.gaussmat import gaussian_entropies, min_eig, simdiag_basis

DIM = 4
FACTOR_ELEMENTS = st.floats(min_value=-3.0, max_value=3.0)


def _pd_from_factor(f):
    return f @ f.T + 1e-3 * np.eye(f.shape[0])


@seed(1)
@given(
    fa=arrays(np.float64, (DIM, DIM), elements=FACTOR_ELEMENTS),
    fb=arrays(np.float64, (DIM, DIM), elements=FACTOR_ELEMENTS),
)
def test_simdiag_round_trip(fa, fb):
    a = _pd_from_factor(fa)
    b = symmetrize(fb @ fb.T)
    if np.linalg.cond(a) > 1e8:
        reject()
    res = simdiag(a, b)
    ident = res.q.T @ a @ res.q
    diag = res.q.T @ b @ res.q
    target(-float(np.abs(ident - np.eye(DIM)).max()))
    np.testing.assert_allclose(ident, np.eye(DIM), atol=1e-8)
    np.testing.assert_allclose(diag, np.diag(res.d), atol=1e-8)
    assert res.d.min() >= -1e-8


def test_simdiag_is_the_basis_with_leading_entries_positive():
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        f, g = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        a, b = f @ f.T + np.eye(n), g @ g.T
        res = simdiag(a, b)
        _, _, q, d, p = simdiag_basis(a, b)
        assert res.d.tobytes() == d.tobytes()
        np.testing.assert_array_equal(np.abs(res.q), np.abs(q))
        for col in res.q.T:
            assert col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]] > 0.0
        # p is q's inverse: a = p^T p and b = p^T diag(d) p
        np.testing.assert_allclose(p @ q, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(p.T @ (d[:, None] * p), b, atol=1e-10 * np.abs(b).max())


@seed(1)
@given(f=arrays(np.float64, (DIM, DIM), elements=FACTOR_ELEMENTS))
def test_entropy_rotation_invariance(f):
    a = _pd_from_factor(f)
    q, _ = np.linalg.qr(f + np.eye(DIM))
    if abs(abs(np.linalg.det(q)) - 1.0) > 1e-8:
        reject()
    h1 = gaussian_entropy(a)
    h2 = gaussian_entropy(q @ a @ q.T)
    assert math.isfinite(h1)
    assert abs(h1 - h2) <= 1e-8 * max(1.0, abs(h1))


def test_entropy_known_values():
    assert gaussian_entropy(np.array([[1.0]])) == pytest.approx(
        0.5 * math.log(2.0 * math.pi * math.e), abs=1e-14
    )
    assert gaussian_entropy(np.array([[1.0]])) == pytest.approx(1.4189385332046727, abs=1e-12)
    assert gaussian_entropy(np.array([[2.0]])) == pytest.approx(1.7655121234846454, abs=1e-12)
    for n in (1, 2, 5):
        assert gaussian_entropy(np.eye(n)) == pytest.approx(0.5 * n * LOG_2PI_E, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_stacked_entropies_are_the_single_ones(n):
    # one log and one row sum over the stack give each member's value bit for
    # bit, and the error names the first singular member
    rng = np.random.default_rng([14, n])
    for count in (1, 2, 4):
        mats = []
        for _ in range(count):
            f = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6)
            mats.append(f @ f.T + 1e-3 * np.max(np.abs(f)) ** 2 * np.eye(n))
        assert gaussian_entropies(*mats) == [gaussian_entropy(m) for m in mats]
    singular = [np.diag(np.geomspace(1.0, 10.0 ** -e, n) if n > 1 else [-e]) for e in (13, 14)]
    first = str(pytest.raises(SingularCovariance, gaussian_entropy, singular[0]).value)
    with pytest.raises(SingularCovariance, match=f"^{re.escape(first)}$"):
        gaussian_entropies(np.eye(n), *singular)


def test_entropy_scaling_law():
    # h(cX) = h(X) + (n/2) ln c for covariance scaled by c
    rng = np.random.default_rng(7)
    f = rng.normal(size=(3, 3))
    a = f @ f.T + np.eye(3)
    for c in (0.5, 2.0, 9.0):
        assert gaussian_entropy(c * a) == pytest.approx(
            gaussian_entropy(a) + 1.5 * math.log(c), rel=1e-12
        )


def test_psd_leq_ordering():
    rng = np.random.default_rng(11)
    f = rng.normal(size=(4, 4))
    a = f @ f.T + 0.1 * np.eye(4)
    assert psd_leq(a, a)
    assert psd_leq(a, a + np.eye(4))
    assert not psd_leq(a + np.eye(4), a)
    assert psd_leq(np.zeros((4, 4)), a)


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_eigenvalue_tests_are_scale_free(c):
    # Every verdict reads eigenvalues relative to the judged matrices' own
    # spectra, so it is the same at every scale c.
    rng = np.random.default_rng(12)
    f = rng.normal(size=(3, 3))
    a = c * (f @ f.T + 0.1 * np.eye(3))
    assert not psd_leq(2.0 * a, a)
    assert psd_leq(a, 2.0 * a)
    # a rounding-level gap, as between W~ and W on unreduced modes, is no
    # violation: the scale is that of a and b, not of b - a
    assert psd_leq(a * (1.0 + 1e-14), a)
    assert gaussian_entropy(a) == pytest.approx(
        gaussian_entropy(a / c) + 1.5 * math.log(c), rel=1e-12, abs=1e-12
    )
    assert construct_l(a, a, 2.0).s_x_star.shape == (3, 3)
    singular = c * np.diag([1.0, 1.0, 1e-13])
    with pytest.raises(SingularCovariance, match="singular within tolerance"):
        gaussian_entropy(singular)
    with pytest.raises(NotPositiveDefinite, match="strictly positive definite"):
        construct_l(a, singular, 2.0)
    with pytest.raises(NotPositiveDefinite, match="not positive semidefinite"):
        gaussian_conditional_cov(c * np.diag([1.0, -1e-9]), a[:2, :2])
    skew = c * np.array([[1.0, 0.5], [0.5 + 1e-10, 1.0]])
    with pytest.raises(NotPositiveDefinite, match="not symmetric"):
        cov_from_json({"rows": skew.tolist()})


def test_symmetrize_is_projection():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(5, 5))
    s = symmetrize(b)
    np.testing.assert_allclose(s, s.T)
    np.testing.assert_allclose(symmetrize(s), s)
    np.testing.assert_allclose(s, 0.5 * (b + b.T))


def test_spectral_scale_takes_max_over_arguments():
    a = np.diag([1.0, 3.0])
    b = np.diag([10.0, 0.1])
    assert spectral_scale(a) == pytest.approx(3.0)
    assert spectral_scale(a, b) == pytest.approx(10.0)
    # homogeneous, with no floor: the scale of zero matrices is +0.0
    for c in (1e-12, 1e-6, 1e6, 1e12):
        assert spectral_scale(c * a, c * b) == c * spectral_scale(a, b)
    zero = spectral_scale(np.zeros((2, 2)))
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_min_eig_of_a_stack_is_the_least_of_separate_calls():
    # One eigvalsh of the stack gives each matrix the spectrum a call of its
    # own would, so the minimum matches bit for bit.
    rng = np.random.default_rng(137)
    for n in range(1, 7):
        for count in range(1, 8):
            mats = [rng.normal(size=(n, n)) for _ in range(count)]
            separate = [float(np.linalg.eigvalsh(symmetrize(m))[0]) for m in mats]
            assert min_eig(*mats) == min(separate)


def _cov_from_rows(m):
    return cov_from_json({"rows": np.asarray(m).tolist()})


def test_cov_from_json_validation():
    with pytest.raises(NotPositiveDefinite):
        _cov_from_rows([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        _cov_from_rows([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        _cov_from_rows(np.arange(4.0))
    m = _cov_from_rows(np.eye(2))
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        m[0, 0] = 5.0


def test_conditional_cov_scalar_and_order():
    out = gaussian_conditional_cov(np.array([[1.0]]), np.array([[1.0]]))
    assert out[0, 0] == pytest.approx(0.5, abs=1e-14)
    rng = np.random.default_rng(19)
    for _ in range(20):
        fx = rng.normal(size=(3, 3))
        fz = rng.normal(size=(3, 3))
        sx = fx @ fx.T + 0.05 * np.eye(3)
        sz = fz @ fz.T + 0.05 * np.eye(3)
        e = gaussian_conditional_cov(sx, sz)
        assert np.linalg.eigvalsh(e).min() >= -1e-10
        assert psd_leq(e, sx, tol=1e-8)


def test_markov_residual_zero_on_degenerate_chain():
    t = (np.array([[1.0]]), np.array([[2.0]]), np.array([[2.0]]))
    assert markov_residual(t) == pytest.approx(0.0, abs=1e-12)


def test_markov_residual_positive_off_chain():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    t = (a, a + np.eye(2), a + np.array([[3.0, -0.4], [-0.4, 2.0]]))
    assert markov_residual(t) > 1e-3


def test_cov_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    f = rng.normal(size=(3, 3))
    m = _cov_from_rows(f @ f.T + np.eye(3))
    blob = cov_to_json(m)
    assert blob["dim"] == 3
    again = cov_from_json(blob)
    np.testing.assert_allclose(again, m, atol=1e-15)

    path = tmp_path / "cov.json"
    path.write_text(json.dumps(blob))
    loaded = load_cov(path)
    np.testing.assert_allclose(loaded, m, atol=1e-15)


def test_cov_from_json_accepts_strings_and_rejects_bare_rows():
    m = cov_from_json('{"dim": 2, "rows": [[2.0, 0.0], [0.0, 1.0]]}')
    assert m.shape == (2, 2)
    assert m[0, 0] == 2.0
    with pytest.raises(InvalidParameter):
        cov_from_json([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameter):
        cov_from_json({"rows": [["a", 0.0], [0.0, 1.0]]})
    with pytest.raises(DimensionMismatch):
        cov_from_json({"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})


@pytest.mark.parametrize(
    "dim, error",
    [
        (1, None), (1.0, None),
        (None, InvalidParameter), (True, InvalidParameter), (False, InvalidParameter),
        ("1", InvalidParameter), (1.7, InvalidParameter), (math.nan, InvalidParameter),
        (math.inf, InvalidParameter), ([1], InvalidParameter),
        (2, DimensionMismatch), (2.0, DimensionMismatch), (0, DimensionMismatch),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_cov_from_json_declared_dim(dim, error):
    # an integer, or an integral float, equal to the row count
    blob = {"dim": dim, "rows": [[2.0]]}
    if error is None:
        assert cov_from_json(blob)[0, 0] == 2.0
    else:
        with pytest.raises(error, match="declared dim"):
            cov_from_json(blob)


# Each constructor takes the bad matrix in its first covariance slot.
# gaussian_conditional_cov pairs it with a zero noise, so a singular
# source makes the observation covariance s_x + s_z singular.
_TAKES_BAD_MATRIX = {
    "cov_from_json": _cov_from_rows,
    "EEIInstance": lambda m: EEIInstance(mu=2.0, s_w=m, r=np.eye(2), s_v=2.0 * np.eye(2)),
    "construct_l": lambda m: construct_l(m, np.eye(2), 2.0),
    "simdiag": lambda m: simdiag(m, np.eye(2)),
    "BroadcastInstance": lambda m: BroadcastInstance(m, 2.0 * np.eye(2), 0.5 * np.eye(2)),
    "gaussian_conditional_cov": lambda m: gaussian_conditional_cov(m, np.zeros((2, 2))),
}
_BAD_MATRICES = (
    ("non-square", np.ones((2, 3)), DimensionMismatch),
    ("nan", np.array([[np.nan, 0.0], [0.0, 1.0]]), InvalidParameter),
    ("inf", np.array([[1.0, 0.0], [0.0, np.inf]]), InvalidParameter),
    ("indefinite", np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefinite),
    ("singular", np.array([[1.0, 1.0], [1.0, 1.0]]), NotPositiveDefinite),
)


def _validator_contract():
    for name, build in _TAKES_BAD_MATRIX.items():
        for case, m, error in _BAD_MATRICES:
            if case == "singular" and name == "cov_from_json":
                continue  # a covariance only needs to be PSD
            if case == "singular" and name == "gaussian_conditional_cov":
                error = SingularCovariance
            yield pytest.param(build, m, error, id=f"{name}-{case}")


@pytest.mark.parametrize("build, m, error", _validator_contract())
def test_validator_contract(build, m, error):
    with pytest.raises(error):
        build(m)
