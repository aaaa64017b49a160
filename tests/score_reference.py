"""Per-position score tensors, the reference that checks the library's scores.

The library forms scores only as centered_scores (s at every position) and
the pattern expansion score_patterns that cross_moment averages.  The tests
check both against the full tensor S_m at one position, built here two ways:
hard-coded Hermite forms for m <= 4, and the recursion's patterns applied to
(s, Lambda) for any order.
"""

from __future__ import annotations

import numpy as np

from spectral_rnn.score import precision_matrix, score_patterns
from spectral_rnn.sequence_models import MarkovChainSpec


def local_gaussian(spec: MarkovChainSpec, x_prev: np.ndarray, x_next: np.ndarray):
    """(Lambda, mu): the Gaussian-in-x_t form of p(x_next|x_t) p(x_t|x_prev)."""
    Lam = precision_matrix(spec)
    return Lam, np.linalg.solve(Lam, (spec.W @ x_prev + spec.W.T @ x_next) / spec.sigma**2)


def score_from_local(s: np.ndarray, Lam: np.ndarray, m: int) -> np.ndarray:
    """S_m as a function of s = Lambda (x_t - mu) via the recursion patterns:
    each term is one einsum of its s factors and its Lambda pairs."""
    letters = "abcdefghijklmn"
    out = np.zeros((s.shape[0],) * m)
    for coeff, (s_modes, pairs) in score_patterns(m):
        subs = [letters[j] for j in s_modes] + [letters[j] + letters[k] for j, k in pairs]
        ops = [s] * len(s_modes) + [Lam] * len(pairs)
        out += coeff * np.einsum(",".join(subs) + "->" + letters[:m], *ops)
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


def score(spec: MarkovChainSpec, x: np.ndarray, t: int, m: int,
          closed_form: bool = True) -> np.ndarray:
    """Score tensor S_m(x[n], t) at 1-based interior position t."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not 2 <= t <= x.shape[1] - 1:
        raise ValueError("boundary position has a different factorization")
    Lam, mu = local_gaussian(spec, x[:, t - 2], x[:, t])
    s = Lam @ (x[:, t - 1] - mu)
    if closed_form and m <= 4:
        return score_closed_form(s, Lam, m)
    return score_from_local(s, Lam, m)
