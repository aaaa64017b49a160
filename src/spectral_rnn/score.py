"""Closed-form sequence score functions for the linear-Gaussian Markov input.

At an interior position t the product of conditionals p(x_{t+1}|x_t) p(x_t|x_{t-1})
is Gaussian in x_t with constant precision Lambda = (I + W^T W)/sigma^2 and mean
mu_t = Lambda^{-1} (W x_{t-1} + W^T x_{t+1})/sigma^2.  Writing s = Lambda (x_t - mu_t),
the m-th order score is a multivariate Hermite-type polynomial in (s, Lambda).

Two constructions are implemented: explicit closed forms for orders 1..4, and a
symbolic expansion of the recursion S_m = -S_{m-1} (x) grad(log p) - grad S_{m-1}
that works for any order.  Each validates the other.  The expansion
(score_patterns) is also how moments.cross_moment averages y (x) S_m over a
chain, and stein_check tests the scores through that moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sequence_models import MarkovChainSpec

_SCORE_BLOCK = 4096  # interior columns per block of centered_scores, so its scratch stays small


@dataclass(frozen=True)
class LocalGaussian:
    """Conditional law of x_t given its two neighbours."""

    precision: np.ndarray  # Lambda, d_x x d_x
    mean: np.ndarray       # mu, d_x


@dataclass(frozen=True)
class ScoreTensor:
    order: int
    t: int  # 1-based sequence position
    value: np.ndarray


def precision_matrix(spec: MarkovChainSpec) -> np.ndarray:
    W = spec.W
    return (np.eye(spec.d_x) + W.T @ W) / spec.sigma**2


def local_gaussian(spec: MarkovChainSpec, x_prev: np.ndarray, x_next: np.ndarray) -> LocalGaussian:
    """Gaussian-in-x_t form of p(x_next|x_t) p(x_t|x_prev)."""
    x_prev = np.asarray(x_prev, dtype=float).reshape(-1)
    x_next = np.asarray(x_next, dtype=float).reshape(-1)
    if x_prev.shape[0] != spec.d_x or x_next.shape[0] != spec.d_x:
        raise ValueError("neighbour dimension mismatch")
    Lam = precision_matrix(spec)
    rhs = (spec.W @ x_prev + spec.W.T @ x_next) / spec.sigma**2
    mu = np.linalg.solve(Lam, rhs)
    return LocalGaussian(precision=Lam, mean=mu)


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


def _pattern_tensor(m: int, pattern: Pattern, s: np.ndarray, Lam: np.ndarray) -> np.ndarray:
    s_modes, pairs = pattern
    letters = "abcdefghijklmn"
    subs, ops = [], []
    for j in s_modes:
        subs.append(letters[j])
        ops.append(s)
    for (j, k) in pairs:
        subs.append(letters[j] + letters[k])
        ops.append(Lam)
    out = "".join(letters[:m])
    return np.einsum(",".join(subs) + "->" + out, *ops)


def score_from_local(s: np.ndarray, Lam: np.ndarray, m: int) -> np.ndarray:
    """S_m as a function of s = Lambda (x_t - mu) via the recursion patterns."""
    d = s.shape[0]
    out = np.zeros((d,) * m)
    for coeff, pattern in score_patterns(m):
        out += coeff * _pattern_tensor(m, pattern, s, Lam)
    return out


def score_closed_form(s: np.ndarray, Lam: np.ndarray, m: int) -> np.ndarray:
    """Hard-coded Hermite forms for m <= 4 (independent of the recursion path)."""
    if m == 1:
        return s.copy()
    if m == 2:
        return np.multiply.outer(s, s) - Lam
    if m == 3:
        s3 = np.einsum("i,j,k->ijk", s, s, s)
        # three placements of (s, Lambda): s_i L_jk + s_j L_ik + s_k L_ij
        sym3 = (np.einsum("i,jk->ijk", s, Lam)
                + np.einsum("j,ik->ijk", s, Lam)
                + np.einsum("k,ij->ijk", s, Lam))
        return s3 - sym3
    if m == 4:
        s4 = np.einsum("i,j,k,l->ijkl", s, s, s, s)
        ssL = (np.einsum("i,j,kl->ijkl", s, s, Lam)
               + np.einsum("i,k,jl->ijkl", s, s, Lam)
               + np.einsum("i,l,jk->ijkl", s, s, Lam)
               + np.einsum("j,k,il->ijkl", s, s, Lam)
               + np.einsum("j,l,ik->ijkl", s, s, Lam)
               + np.einsum("k,l,ij->ijkl", s, s, Lam))
        LL = (np.einsum("ij,kl->ijkl", Lam, Lam)
              + np.einsum("ik,jl->ijkl", Lam, Lam)
              + np.einsum("il,jk->ijkl", Lam, Lam))
        return s4 - ssL + LL
    raise ValueError("closed forms implemented for m <= 4; use score_from_local")


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


def score(spec: MarkovChainSpec, x: np.ndarray, t: int, m: int, closed_form: bool = True) -> ScoreTensor:
    """Score tensor S_m(x[n], t) at 1-based interior position t."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[1]
    if not 2 <= t <= n - 1:
        raise ValueError("boundary position has a different factorization")
    if m < 1:
        raise ValueError("order must be >= 1")
    lg = local_gaussian(spec, x[:, t - 2], x[:, t])
    s = lg.precision @ (x[:, t - 1] - lg.mean)
    if closed_form and m <= 4:
        val = score_closed_form(s, lg.precision, m)
    else:
        val = score_from_local(s, lg.precision, m)
    return ScoreTensor(order=m, t=t, value=val)


# ---------------------------------------------------------------------------
# Stein-identity check
# ---------------------------------------------------------------------------


class TestFunction:
    """A function of (x_{t-1}, x_t, x_{t+1}) with analytic derivative in x_t.

    Arguments are (d, N) batches of N positions.  value returns (N,) or
    (d_out, N); grad_m returns the m-th derivative with the sample axis
    last, or without it when the derivative is constant.
    """

    def value(self, x_prev, x_t, x_next):
        raise NotImplementedError

    def grad_m(self, x_prev, x_t, x_next, m):
        raise NotImplementedError


class QuadraticTest(TestFunction):
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


def stein_check(
    spec: MarkovChainSpec,
    G: TestFunction,
    m: int,
    n_samples: int,
    seed: int,
) -> tuple[float, bool]:
    """Monte Carlo relative error of E[G (x) S_m] vs E[grad^m G].

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
