"""Sequence score functions of the linear-Gaussian Markov input.

At an interior position t the product of conditionals p(x_{t+1}|x_t) p(x_t|x_{t-1})
is Gaussian in x_t with constant precision Lambda = (I + W^T W)/sigma^2 and mean
mu_t = Lambda^{-1} (W x_{t-1} + W^T x_{t+1})/sigma^2.  Writing s = Lambda (x_t - mu_t),
the m-th order score is a multivariate Hermite-type polynomial in (s, Lambda).

centered_scores gives s at every interior position, and score_patterns expands
the recursion S_m = -S_{m-1} (x) grad(log p) - grad S_{m-1} into (s, Lambda)
terms for any order.  That expansion is how moments.cross_moment averages
y (x) S_m over a chain, and stein_check tests the scores through that moment.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .sequence_models import MarkovChainSpec

_SCORE_BLOCK = 4096  # interior columns per block of centered_scores, so its scratch stays small


def precision_matrix(spec: MarkovChainSpec) -> np.ndarray:
    W = spec.W
    return (np.eye(spec.d_x) + W.T @ W) / spec.sigma**2


# ---------------------------------------------------------------------------
# symbolic recursion
#
# A term of S_m is coeff * (product of s factors at some modes) * (product of
# Lambda factors at mode pairs).  The recursion maps each term of S_{m-1} to
#   +  term (x) s              (new mode appended; from -S_{m-1} (x) grad log p)
#   -  s-factor at mode j replaced by Lambda at (j, new mode)   (from -grad S_{m-1})
# Lambda factors are constants so they do not differentiate.
# ---------------------------------------------------------------------------

Pattern = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]  # (s modes, Lambda pairs)


@lru_cache(maxsize=None)
def score_patterns(m: int) -> tuple[tuple[float, Pattern], ...]:
    """Coefficient/pattern expansion of S_m generated by the recursion."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return ((1.0, ((0,), ())),)
    terms: dict[Pattern, float] = {}
    for coeff, (s_modes, pairs) in score_patterns(m - 1):
        new = m - 1
        key = (tuple(sorted(s_modes + (new,))), pairs)
        terms[key] = terms.get(key, 0.0) + coeff
        for j in s_modes:
            rest = tuple(k for k in s_modes if k != j)
            key = (rest, tuple(sorted(pairs + ((j, new),))))
            terms[key] = terms.get(key, 0.0) - coeff
    return tuple((c, p) for p, c in terms.items() if c != 0.0)


def centered_scores(spec: MarkovChainSpec, x: np.ndarray) -> np.ndarray:
    """s_t = Lambda(x_t - mu_t) for every interior position, vectorized.

    Returns a d_x x n array; boundary columns (t=1 and t=n) are NaN.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    Lam, W = precision_matrix(spec), spec.W
    n = x.shape[1]
    s = np.empty_like(x)
    s[:, :1] = s[:, -1:] = np.nan
    prev, nxt = np.empty((2, x.shape[0], min(_SCORE_BLOCK, max(n - 2, 0))))
    for a in range(1, n - 1, _SCORE_BLOCK):
        b = min(n - 1, a + _SCORE_BLOCK)
        p = np.matmul(W, x[:, a - 1 : b - 1], out=prev[:, :b - a])
        p += np.matmul(W.T, x[:, a + 1 : b + 1], out=nxt[:, :b - a])
        p /= spec.sigma**2
        np.subtract(np.matmul(Lam, x[:, a:b], out=s[:, a:b]), p, out=s[:, a:b])
    return s


# ---------------------------------------------------------------------------
# Stein-identity check
# ---------------------------------------------------------------------------


class QuadraticTest:
    """G = <a, x_t>^2; hessian = 2 a a^T."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def value(self, x_prev, x_t, x_next):
        return (self.a @ x_t) ** 2

    def grad_m(self, x_prev, x_t, x_next, m):
        if m == 1:
            return 2 * np.multiply.outer(self.a, self.a @ x_t)
        if m == 2:
            return 2 * np.multiply.outer(self.a, self.a)
        raise ValueError("QuadraticTest supports m <= 2")


def stein_check(spec: MarkovChainSpec, G, m: int, n_samples: int, seed: int) -> tuple[float, bool]:
    """Monte Carlo relative error of E[G (x) S_m] vs E[grad^m G].

    G is a function of (x_{t-1}, x_t, x_{t+1}) with an analytic derivative
    in x_t, such as QuadraticTest: given (d, N) batches of N positions,
    G.value returns (N,) or (d_out, N) and G.grad_m the m-th derivative with
    the sample axis last, or without it when the derivative is constant.
    Averages over the interior positions of a single chain of length n_samples:
    G's values are the outputs, at the interior columns, of
    moments.cross_moment with no burn-in.  Returns (error, is_absolute);
    is_absolute flags a zero-norm denominator.
    """
    from .moments import cross_moment
    from .sequence_models import SequenceData, sample_markov_chain

    x = sample_markov_chain(spec, n_samples, seed)
    batch = (x[:, :-2], x[:, 1:-1], x[:, 2:])
    g = np.asarray(G.value(*batch), dtype=float)
    y = np.zeros((1 if g.ndim == 1 else g.shape[0], x.shape[1]))
    y[:, 1:-1] = g
    lhs = cross_moment(spec, SequenceData(x=x, y=y), m, burn_in=0).value
    if g.ndim == 1:
        lhs = lhs[0]
    rhs = np.asarray(G.grad_m(*batch, m), dtype=float)
    if rhs.ndim > lhs.ndim:  # per-position derivatives; a constant is its own mean
        rhs = rhs.mean(axis=-1)

    denom = np.linalg.norm(rhs)
    diff = np.linalg.norm(lhs - rhs)
    if denom == 0.0:
        return diff, True
    return diff / denom, False
