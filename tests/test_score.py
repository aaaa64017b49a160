"""Score tensors of the linear-Gaussian chain and the Stein identity."""

import sys
import types

import numpy as np
import pytest
import sympy as sp

from score_reference import (local_gaussian, score, score_closed_form,
                             score_from_local)
from spectral_rnn.score import (_SCORE_BLOCK, QuadraticTest, centered_scores,
                                precision_matrix, score_patterns, stein_check)
from spectral_rnn.sequence_models import MarkovChainSpec, bounded_input_spec


def _spec(W, sigma=1.0):
    return MarkovChainSpec(W=np.atleast_2d(W), sigma=sigma)


def test_module_name_is_the_module():
    """The package exports no function named score, so the name reaches
    the module however it is imported."""
    import spectral_rnn
    import spectral_rnn.score as by_path
    from spectral_rnn import score as by_name

    assert by_path is by_name is sys.modules["spectral_rnn.score"]
    assert isinstance(spectral_rnn.score, types.ModuleType)


def test_precision_scalar():
    # W = 0.5, sigma = 1: Lambda = 1 + 0.25 = 1.25
    assert np.allclose(precision_matrix(_spec(0.5)), [[1.25]])


def test_first_order_scalar_value():
    # zero neighbours: s = Lambda x, so S_1(x=1) = 1.25
    spec = _spec(0.5)
    x = np.array([[0.0, 1.0, 0.0]])
    assert np.allclose(score(spec, x, 2, 1), [1.25])


def test_independent_chain_values():
    # W = 0, sigma = 1: the conditional is the standard normal marginal.
    spec = _spec(np.zeros((2, 2)))
    x = np.zeros((2, 3))
    x[:, 1] = [1.0, 0.0]
    assert np.allclose(score(spec, x, 2, 1), [1.0, 0.0])
    assert np.allclose(score(spec, x, 2, 2), [[0.0, 0.0], [0.0, -1.0]])
    spec1 = _spec(0.0)
    x1 = np.array([[0.0, 1.0, 0.0]])
    # scalar Hermite values at x = 1: x^3 - 3x = -2 and x^4 - 6x^2 + 3 = -2
    assert np.allclose(score(spec1, x1, 2, 3), [[[-2.0]]])
    assert np.allclose(score(spec1, x1, 2, 4), [[[[-2.0]]]])


def test_boundary_rejected():
    spec = _spec(0.5)
    x = np.zeros((1, 4))
    with pytest.raises(ValueError, match="boundary"):
        score(spec, x, 1, 1)
    with pytest.raises(ValueError, match="boundary"):
        score(spec, x, 4, 1)


def test_closed_form_equals_recursion():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        Lam = rng.standard_normal((d, d))
        Lam = Lam @ Lam.T + d * np.eye(d)
        for _ in range(25):
            s = rng.standard_normal(d)
            for m in range(1, 5):
                a = score_closed_form(s, Lam, m)
                b = score_from_local(s, Lam, m)
                assert np.allclose(a, b, atol=1e-12), (d, m)


def test_patterns_are_symmetric_tensors():
    rng = np.random.default_rng(1)
    Lam = np.array([[2.0, 0.3], [0.3, 1.5]])
    s = rng.standard_normal(2)
    for m in (2, 3, 4, 5):
        T = score_from_local(s, Lam, m)
        perm = np.random.default_rng(m).permutation(m)
        assert np.allclose(T, np.transpose(T, perm))


def test_pattern_count_matches_hermite():
    # number of (coefficient, pattern) terms: 1, 2, 4, 10, 26 for m = 1..5
    assert [len(score_patterns(m)) for m in range(1, 6)] == [1, 2, 4, 10, 26]


def _sympy_score_oracle_1d(w, sigma, xm, xt, xp, m):
    """(-1)^m f^(m)(x_t)/f(x_t) for f = p(x_t | x_{t-1}) p(x_{t+1} | x_t)."""
    v = sp.Symbol("v")
    f = sp.exp(-((v - w * xm) ** 2) / (2 * sigma ** 2)) \
        * sp.exp(-((xp - w * v) ** 2) / (2 * sigma ** 2))
    expr = (-1) ** m * sp.diff(f, v, m) / f
    return float(sp.simplify(expr).subs(v, xt))


def test_score_against_symbolic_density_1d():
    spec = _spec(0.5, sigma=0.8)
    rng = np.random.default_rng(2)
    for _ in range(3):
        xm, xt, xp = rng.standard_normal(3)
        x = np.array([[xm, xt, xp]])
        for m in range(1, 5):
            want = _sympy_score_oracle_1d(0.5, 0.8, xm, xt, xp, m)
            got = float(np.ravel(score(spec, x, 2, m))[-1])
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), m


def test_score_against_symbolic_density_2d():
    W = np.array([[0.4, 0.1], [0.0, 0.3]])
    sigma = 0.9
    spec = _spec(W, sigma=sigma)
    rng = np.random.default_rng(3)
    xm, xt, xp = rng.standard_normal((3, 2))
    x = np.stack([xm, xt, xp], axis=1)
    v = sp.Matrix(sp.symbols("v0 v1"))
    Wm = sp.Matrix(W)
    r1 = v - Wm * sp.Matrix(xm)
    r2 = sp.Matrix(xp) - Wm * v
    logf = -(r1.dot(r1) + r2.dot(r2)) / (2 * sigma ** 2)
    f = sp.exp(logf)
    subs = {v[0]: xt[0], v[1]: xt[1]}
    for m in range(1, 4):
        got = score(spec, x, 2, m)
        for idx in np.ndindex(*(2,) * m):
            expr = f
            for i in idx:
                expr = sp.diff(expr, v[i])
            want = float(((-1) ** m * expr / f).subs(subs))
            assert abs(got[idx] - want) <= 1e-9 * max(1.0, abs(want)), (m, idx)


def test_centered_scores_layout():
    spec = _spec(0.5)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 6))
    s = centered_scores(spec, x)
    assert s.shape == x.shape
    assert np.isnan(s[0, 0]) and np.isnan(s[0, -1])
    for t in range(2, 6):
        assert np.allclose(s[:, t - 1], score(spec, x, t, 1))


@pytest.mark.parametrize("n", [3, 5, 2049, 2050, 2051, 6151,
                               _SCORE_BLOCK + 1, _SCORE_BLOCK + 2, _SCORE_BLOCK + 3,
                               3 * _SCORE_BLOCK + 7])
def test_centered_scores_block_edges(n):
    """Columns on both sides of every block edge equal the per-position
    score, and the two boundary columns stay NaN, for n below one block and
    across several."""
    spec = bounded_input_spec(3, 0.6, seed=2)
    x = np.random.default_rng(n).standard_normal((3, n))
    s = centered_scores(spec, x)
    assert s.shape == x.shape
    assert np.isnan(s[:, [0, -1]]).all() and np.isfinite(s[:, 1:-1]).all()
    edges = {e + k for e in range(1, n - 1, _SCORE_BLOCK) for k in (-1, 0, 1)}
    for col in sorted(c for c in edges | {n - 2} if 1 <= c <= n - 2):
        want = score(spec, x, col + 1, 1)  # 1-based position
        np.testing.assert_allclose(s[:, col], want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n", [4, 4101, 2 * _SCORE_BLOCK + 5, 40000])
def test_centered_scores_bitwise_equal_full_array_expression(n):
    """At d_x = 6 the block-wise fill gives the bits of the expression over
    the whole interior at once."""
    spec = bounded_input_spec(6, 0.5, seed=3)
    x = np.random.default_rng(n).standard_normal((6, n))
    Lam, W = precision_matrix(spec), spec.W
    want = np.full_like(x, np.nan)
    want[:, 1:-1] = Lam @ x[:, 1:-1] - (W @ x[:, :-2] + W.T @ x[:, 2:]) / spec.sigma**2
    assert np.array_equal(centered_scores(spec, x), want, equal_nan=True)


def test_local_gaussian_matches_conditional_moments():
    """The two-sided conditional law, checked by Monte Carlo regression."""
    spec = _spec(0.6, sigma=0.5)
    from spectral_rnn.sequence_models import sample_markov_chain
    x = sample_markov_chain(spec, 50000, seed=5)
    resid = []
    for t in range(1, x.shape[1] - 1):
        prec, mean = local_gaussian(spec, x[:, t - 1], x[:, t + 1])
        resid.append(x[0, t] - mean[0])
    resid = np.array(resid)
    assert abs(np.mean(resid)) < 5e-3
    assert abs(np.var(resid) - 1.0 / prec[0, 0]) < 5e-3


def test_hermite_cubic_cross_moment_quadrature():
    """E[x^3 (x^3 - 3x)] = 6 for a standard normal, by exact quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(12)
    weights = weights / np.sqrt(2 * np.pi)
    s3 = np.array([score_closed_form(np.array([v]), np.eye(1), 3)[0, 0, 0]
                   for v in nodes])
    val = np.sum(weights * nodes ** 3 * s3)
    assert abs(val - 6.0) < 1e-10


class _Identity:
    """G = x_t; its first derivative is the constant I."""

    def value(self, x_prev, x_t, x_next):
        return x_t

    def grad_m(self, x_prev, x_t, x_next, m):
        return np.eye(x_t.shape[0])


class _Lagged:
    """G = <a, x_{t-1}>; independent of x_t, so its x_t derivative is 0."""

    def __init__(self, a):
        self.a = a

    def value(self, x_prev, x_t, x_next):
        return self.a @ x_prev

    def grad_m(self, x_prev, x_t, x_next, m):
        return np.zeros(x_t.shape[0])


def test_stein_check_linear_exact_shape():
    spec = bounded_input_spec(2, 0.5, seed=0)
    err, is_abs = stein_check(spec, _Identity(), 1, 20000, seed=1)
    assert not is_abs
    assert err < 0.2


def test_stein_check_quadratic_converges():
    spec = bounded_input_spec(3, 0.5, seed=0)
    a = np.array([1.0, -0.5, 0.25])
    err, is_abs = stein_check(spec, QuadraticTest(a), 2, 50000, seed=2)
    assert not is_abs
    assert err < 0.15


def test_quadratic_test_first_derivative_per_position():
    """A derivative that varies with x_t comes back per position, sample
    axis last, equal to the one-position-at-a-time values."""
    a = np.array([0.5, 1.0, -0.25])
    x = np.random.default_rng(4).standard_normal((3, 7))
    batch = QuadraticTest(a).grad_m(x, x, x, 1)
    loop = np.stack([2 * (a @ x[:, t]) * a for t in range(7)], axis=-1)
    np.testing.assert_allclose(batch, loop, rtol=1e-15)


def test_stein_check_lagged_function():
    """A statistic of the previous input has zero derivative in x_t, so the
    cross-moment estimate is compared in absolute terms."""
    spec = bounded_input_spec(2, 0.5, seed=0)
    a = np.array([1.0, 1.0])
    err, is_abs = stein_check(spec, _Lagged(a), 1, 50000, seed=3)
    assert is_abs
    assert err < 0.05
