"""Ground-truth data generation.

Linear-Gaussian first-order Markov input chains, and forward simulation of
input-output RNNs (``h_t = (A1 x_t + U h_{t-1})^l`` elementwise, ``y_t = A2^T h_t``)
and bidirectional RNNs.  Everything is a pure function of (parameters,
seed).  A forward pass returns the observed sequence (x, y) only, which is
all an estimator reads; the hidden states are ``_unroll``'s.

All simulation runs through two kernels:

- ``_linear_scan`` steps the linear chain as a blocked scan in fixed-size
  chunks: per block of B steps, one matmul with the block-Toeplitz kernel of
  powers of W gives the response to the innovations, and one more adds the
  block's start state.  The start states, a chain with transition W^B, are
  scanned the same way one level down (each level's kernel built once per
  chain), so no loop runs per block.  It reorders floating-point sums
  relative to a step loop, so the chain agrees with one to about 1 ulp.
- ``_unroll`` runs the polynomial recursion parallel in time: chunks of the
  sequence advance together from warm-up states, and then every chunk whose
  start differs in any bit from the state before it re-runs from that state,
  all of them together, in rounds until none does (a bitwise parareal).
  While re-runs run through their chunks without coalescing, a round re-runs
  only the first such chunk, as a serial repair would.
  Every state comes from one step function with a fixed order of
  elementwise multiply-adds, so the result equals its sequential loop
  (``_unroll(..., chunks=1)``) bit for bit, for any chunking.
  ``rnn_forward`` and both directions of ``brnn_forward`` call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


class AssumptionError(RuntimeError):
    """A model assumption (norm bound, rank, convergence) is violated at ``stage``."""

    def __init__(self, message: str, *, stage: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class MarkovChainSpec:
    """Linear-Gaussian chain x_t = W x_{t-1} + eps_t, eps_t ~ N(0, sigma^2 I)."""

    W: np.ndarray
    sigma: float
    init: str = "stationary"  # or "zero"

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        object.__setattr__(self, "W", W)
        if W.shape[0] != W.shape[1]:
            raise ValueError("transition matrix must be square")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if np.linalg.norm(W, 2) >= 1.0:
            raise AssumptionError("spectral norm of W must be < 1 for ergodicity", stage="simulate")

    @property
    def d_x(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class RnnParams:
    A1: np.ndarray  # d_h x d_x
    U: np.ndarray   # d_h x d_h
    A2: np.ndarray  # d_h x d_y
    l: int = 2

    def __post_init__(self):
        for name in ("A1", "U", "A2"):
            arr = np.ascontiguousarray(np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
            object.__setattr__(self, name, arr)
        if self.l < 1:
            raise ValueError("activation order l must be >= 1")
        d_h = self.A1.shape[0]
        if self.U.shape != (d_h, d_h) or self.A2.shape[0] != d_h:
            raise ValueError("shape mismatch between A1, U, A2")

    @property
    def d_x(self) -> int:
        return self.A1.shape[1]

    @property
    def d_h(self) -> int:
        return self.A1.shape[0]

    @property
    def d_y(self) -> int:
        return self.A2.shape[1]


@dataclass(frozen=True)
class BrnnParams:
    A1: np.ndarray  # d_h x d_x, forward
    B1: np.ndarray  # d_h x d_x, backward
    U: np.ndarray   # d_h x d_h
    V: np.ndarray   # d_h x d_h
    A2: np.ndarray  # 2 d_h x d_y
    l: int = 2

    def __post_init__(self):
        for name in ("A1", "B1", "U", "V", "A2"):
            arr = np.ascontiguousarray(np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
            object.__setattr__(self, name, arr)
        d_h = self.A1.shape[0]
        if self.B1.shape != self.A1.shape:
            raise ValueError("A1 and B1 must have the same shape")
        if self.U.shape != (d_h, d_h) or self.V.shape != (d_h, d_h):
            raise ValueError("U and V must be d_h x d_h")
        if self.A2.shape[0] != 2 * d_h:
            raise ValueError("A2 must have 2*d_h rows")

    @property
    def d_x(self) -> int:
        return self.A1.shape[1]

    @property
    def d_h(self) -> int:
        return self.A1.shape[0]

    @property
    def d_y(self) -> int:
        return self.A2.shape[1]


@dataclass
class SequenceData:
    x: np.ndarray  # d_x x n
    y: np.ndarray  # d_y x n

    def __post_init__(self):
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError("x and y must have the same number of columns")
        if self.n < 3:
            raise ValueError("need n >= 3 (score functions require both neighbors)")

    @property
    def n(self) -> int:
        return self.x.shape[1]


def stationary_covariance(spec: MarkovChainSpec) -> np.ndarray:
    """Solve Sigma = W Sigma W^T + sigma^2 I by Smith doubling: pass k adds the
    next 2^k terms of sum_t W^t sigma^2 W^tT until S stops changing in any bit,
    which ||W||_2 < 1 makes happen well within 64 passes (2^64 terms)."""
    S, A = spec.sigma**2 * np.eye(spec.d_x), spec.W
    for _ in range(64):
        nxt = S + A @ S @ A.T
        if np.array_equal(nxt, S):
            return 0.5 * (S + S.T)
        S, A = nxt, A @ A
    raise AssumptionError("stationary covariance: doubling did not converge", stage="simulate")


_SCAN_BLOCK = 8      # steps per block of the chain's blocked scan
_SCAN_CHUNK = 2048   # blocks per kernel matmul, so temporaries stay chunk-sized


def _scan_levels(W: np.ndarray, steps: int) -> list:
    """(W_j, Toeplitz kernel, carry-in) per level j of a ``steps``-step scan, with
    W_0 = W and W_(j+1) = W_j^B; the looped last level has no kernel."""
    B, d = _SCAN_BLOCK, W.shape[0]
    levels = []
    while steps > B:
        powers = np.empty((B + 1, d, d))
        powers[0] = np.eye(d)
        for k in range(1, B + 1):
            powers[k] = W @ powers[k - 1]
        lag = np.arange(B)[:, None] - np.arange(B)[None, :]
        kernel = np.where((lag >= 0)[:, :, None, None], powers[np.maximum(lag, 0)], 0.0)
        levels.append((W, kernel.transpose(0, 2, 1, 3).reshape(B * d, B * d),
                       powers[1:].reshape(B * d, d)))
        W, steps = powers[B], -(-min(steps, B * _SCAN_CHUNK) // B) - 1
    return levels + [(W, None, None)]


def _linear_scan(levels: list, x: np.ndarray, eps: np.ndarray) -> None:
    """Fill x[:, t] = W x[:, t-1] + eps[:, t-1] for t >= 1 in place, given x[:, 0].

    Blocked scan over the n - 1 steps, W being levels[0]'s: within a block of
    B steps the response to the innovations from a zero start is one matmul
    with the block-lower-triangular Toeplitz kernel [W^(i-j)]_{j<=i}; the
    block's start state then adds [W; W^2; ...; W^B] x_prev.  The start states
    are the same chain one level down, with transition W^B, so this scan fills
    them recursively with levels[1:].

    eps may be the view x[:, 1:], so that the innovations are overwritten by
    the states they drive: each chunk copies its innovations into E before
    it writes x, and a scan of at most B steps reads eps[:, t] before it
    writes x[:, t + 1].  Any other overlap of eps and x is not supported.
    """
    W, kernel, carry_in = levels[0]
    d, steps = eps.shape
    if steps <= _SCAN_BLOCK:
        for t in range(steps):
            x[:, t + 1] = W @ x[:, t] + eps[:, t]
        return
    B, span = _SCAN_BLOCK, _SCAN_BLOCK * _SCAN_CHUNK
    for c0 in range(0, steps, span):
        c1 = min(steps, c0 + span)
        m = -(-(c1 - c0) // B)
        # innovations of the chunk, zero-padded to whole blocks; one column
        # per block, rows ordered (step, coordinate)
        E = np.zeros((d, m * B))
        E[:, : c1 - c0] = eps[:, c0:c1]
        R = kernel @ E.reshape(d, m, B).transpose(2, 0, 1).reshape(B * d, m)
        # start state of block b + 1 = W^B (start of block b) + block b's end response
        starts = np.empty((d, m))
        starts[:, 0] = x[:, c0]
        _linear_scan(levels[1:], starts, R[-d:, : m - 1])
        R += carry_in @ starts
        x[:, c0 + 1 : c1 + 1] = R.reshape(B, d, m).transpose(1, 2, 0).reshape(d, m * B)[:, : c1 - c0]


def sample_markov_chain(spec: MarkovChainSpec, n: int, seed: int) -> np.ndarray:
    """Simulate the chain; deterministic given (spec, n, seed).  Returns d_x x n.

    The generator draws x_0 (stationary init) and then the d_x x (n - 1)
    innovations, in that order.  The innovations are drawn row by row
    straight into x[:, 1:], which takes the generator's stream in the order
    of one standard_normal((d_x, n - 1)) call, and _linear_scan overwrites
    them in place with the states, so the only scratch is chunk-sized.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    d = spec.d_x
    x = np.empty((d, n))
    if spec.init == "stationary":
        Sigma = stationary_covariance(spec)
        x[:, 0] = rng.multivariate_normal(np.zeros(d), Sigma, method="cholesky")
    elif spec.init == "zero":
        x[:, 0] = 0.0
    else:
        raise ValueError(f"unknown init {spec.init!r}")
    for row in x[:, 1:]:
        rng.standard_normal(out=row)
        row *= spec.sigma
    _linear_scan(_scan_levels(spec.W, n - 1), x, x[:, 1:])
    return x


def _chi2_upper_tail(d: int, x: float) -> float:
    """P(chi2_d > x) for integer d >= 1, in closed form.

    With h = x/2, even d gives e^-h sum_{i < d/2} h^i / i!, and odd d gives
    erfc(sqrt(h)) + sum_{i < (d-1)/2} e^-h h^(i+1/2) / Gamma(i + 3/2).  Each
    term is formed in log space, so e^-h may underflow on its own (x > 1490)
    while the terms near i = h do not.
    """
    h = x / 2
    head, offset = (math.erfc(math.sqrt(h)), 0.5) if d % 2 else (0.0, 0.0)
    log_h = math.log(h)
    return head + math.fsum(math.exp((i + offset) * log_h - h - math.lgamma(i + offset + 1))
                            for i in range(d // 2))


@lru_cache(maxsize=None)
def _chi2_upper_quantile(d: int, tail_prob: float) -> float:
    """Smallest double x with _chi2_upper_tail(d, x) <= tail_prob, by
    bisection; cached, since every cell of a sweep asks for the same one."""
    lo, hi = 0.0, float(d)
    while _chi2_upper_tail(d, hi) > tail_prob:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = lo + (hi - lo) / 2
        if mid == lo or mid == hi:  # lo and hi are adjacent doubles
            return hi
        if _chi2_upper_tail(d, mid) > tail_prob:
            lo = mid
        else:
            hi = mid


def bounded_input_spec(d_x: int, w_scale: float, seed: int = 0, tail_prob: float = 1e-3) -> MarkovChainSpec:
    """Chain with W = w_scale * rotation and sigma chosen so P(||x_t|| > 1) < tail_prob.

    The stationary covariance is isotropic, c*I with c = 1/q and q the
    chi-square upper quantile P(chi2_{d_x} > q) = tail_prob, so the input
    boundedness assumption holds with high probability without truncation.
    q is found from the upper tail directly: its closed form for integer d_x
    (``_chi2_upper_tail``) is inverted by bisection to adjacent doubles.  For
    d_x 1-64 at tail_prob 1e-2, 1e-3 and 1e-6 it is within 3 ulp of the true
    quantile (40-digit reference) and within 13 ulp of scipy's ``chi2.isf``;
    at d_x 100, 1000, 1500 and 5000 it is within 2.2e-15 relative of
    ``chi2.isf``.
    """
    if d_x < 1:
        raise ValueError(f"d_x must be >= 1, got {d_x!r}")
    if not 0.0 < tail_prob < 1.0:
        raise ValueError(f"tail_prob must lie in (0, 1), got {tail_prob!r}")
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((d_x, d_x)))[0]
    c = 1.0 / _chi2_upper_quantile(d_x, tail_prob)
    sigma = np.sqrt(c * (1.0 - w_scale**2))
    return MarkovChainSpec(W=w_scale * Q, sigma=sigma)


_CHUNKS = 1024        # chunks of the forward recursion advanced together
_WARMUP = 32          # steps each chunk k > 0 runs from a zero state before its start
_DRIVE_BLOCK = 4096   # steps per block when forming A1 x_t, so temporaries stay small


def _drive(A1: np.ndarray, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = A1 x as d_x elementwise multiply-adds in a fixed order.

    Each entry is (A1[:, 0] x_0 + A1[:, 1] x_1) + ..., computed element by
    element, so any range of columns gives the same bits.  tmp is scratch
    shaped like out.
    """
    np.multiply(A1[:, :1], x[0], out=out)
    for j in range(1, x.shape[0]):
        np.multiply(A1[:, j : j + 1], x[j], out=tmp)
        out += tmp


def _step(prev: np.ndarray, drive: np.ndarray, out: np.ndarray, U: np.ndarray, l: int,
          acc: np.ndarray, prods: np.ndarray) -> None:
    """out = (drive + U prev)^l column by column, as d_h multiply-adds in a fixed order.

    Each entry is ((drive + U[:, 0] p_0) + U[:, 1] p_1 + ...)^l with the power
    taken by repeated multiplication, element by element, so a column's bits
    do not depend on how many columns are stepped together.  out may be
    drive or prev; acc (shaped like out) and prods (d_h of them) are scratch.
    """
    np.multiply(U.T[:, :, None], prev[:, None, :], out=prods)  # prods[j] = U[:, j] p_j
    np.add(drive, prods[0], out=acc)
    for p in prods[1:]:
        acc += p
    if l == 1:
        np.copyto(out, acc)
    power = acc
    for m in range(l - 1):
        dst = out if m == l - 2 else prods[0]
        np.multiply(power, acc, out=dst)
        power = dst


def _differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns of a and b that differ in any bit (-0.0 from +0.0, NaN payloads)."""
    return (a.view(np.int64) != b.view(np.int64)).any(axis=0)


def _rerun(A1, U, l, xs, S, C, ks, prev) -> None:
    """Re-run chunks ks (sorted) together from the states prev, writing S.

    Chunk k covers steps kC .. kC+C-1, the last chunk of S possibly fewer.
    Each block of steps gathers at most about _DRIVE_BLOCK columns of inputs.
    """
    d_h, n = S.shape
    m = ks.size
    span = min(C, n - ks[-1] * C)  # steps of the last chunk in ks
    top = C if m > 1 else span
    edges = sorted({*range(0, top, max(1, _DRIVE_BLOCK // m)), span, top})
    acc, prods = np.empty((d_h, m)), np.empty((d_h, d_h, m))
    for i0, i1 in zip(edges, edges[1:]):
        w = m - (i0 >= span)  # chunks with steps i0 .. i1-1
        t = ks[:w] * C + np.arange(i0, i1)[:, None]  # (step, chunk) columns
        D = np.empty((d_h,) + t.shape)
        _drive(A1, xs[:, t.ravel()], D.reshape(d_h, -1), np.empty((d_h, t.size)))
        prev, a, p = prev[:, :w], acc[:, :w], prods[:, :, :w]
        for state in D.transpose(1, 0, 2):  # step by step, (d_h, w) each
            _step(prev, state, state, U, l, a, p)
            prev = state
        S[:, t] = D


def _unroll(A1: np.ndarray, U: np.ndarray, l: int, x: np.ndarray,
            h0: Optional[np.ndarray] = None, backward: bool = False,
            chunks: int = _CHUNKS) -> np.ndarray:
    """States h_t = (A1 x_t + U h_{t-1})^l as an (n, d_h) array, row t = h_t.

    With ``backward`` the recursion runs from t = n-1 down to 0,
    h_t = (A1 x_t + U h_{t+1})^l, over reversed views of x and of the rows,
    which stay in time order.  The boundary state is h0 (zero if None).

    Parallel in time and exact.  The n steps split into K <= ``chunks``
    chunks of C >= _WARMUP steps.  Chunk k > 0 starts from the state that a
    zero state reaches over the _WARMUP steps before the chunk, and all
    chunks advance together, each state written in place over its A1 x_t.
    Then each repair round re-runs, together, every chunk whose start differs
    in any bit from the stored state before it, from that state.  The first
    of them starts exact, so at most K - 1 rounds run; while its re-run ends
    off the stored states, the next round re-runs only the next chunk, so a
    chain that never coalesces costs a serial repair.  Every state comes
    from ``_step``, whose bits do not depend on the batch, so the result
    equals the sequential loop (``chunks=1``) bit for bit.  A non-finite
    state in that result raises AssumptionError naming the first such step.
    """
    n = x.shape[1]
    d_h = A1.shape[0]
    H = np.empty((n, d_h))
    if n == 0:
        return H
    xs, S = (x[:, ::-1], H[::-1].T) if backward else (x, H.T)  # columns in step order
    C = max(-(-n // chunks), min(_WARMUP, n))  # steps per chunk
    K = -(-n // C)                             # chunk k covers steps kC .. kC+C-1
    acc, tmp = np.empty((2, d_h, max(K, min(n, _DRIVE_BLOCK))))
    prods = np.empty((d_h, d_h, K))
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, n, _DRIVE_BLOCK):
            m = min(_DRIVE_BLOCK, n - b0)
            _drive(A1, xs[:, b0 : b0 + m], acc[:, :m], tmp[:, :m])
            S[:, b0 : b0 + m] = acc[:, :m]
        starts = np.zeros((d_h, K))
        if h0 is not None:
            starts[:, 0] = h0
        if K > 1:  # chunks 1..K-1 warm up on the A1 x_t the main pass overwrites
            for i in range(C - _WARMUP, C):
                _step(starts[:, 1:], S[:, i::C][:, : K - 1], starts[:, 1:], U, l,
                      acc[:, : K - 1], prods[:, :, : K - 1])
        prev = starts
        for i in range(C):
            cols = S[:, i::C]  # step kC + i of every chunk that has one
            active = cols.shape[1]
            _step(prev[:, :active], cols, cols, U, l, acc[:, :active], prods[:, :, :active])
            prev = cols
        front = -1  # the first chunk the last round re-ran
        while K > 1:  # repair rounds
            ks = np.flatnonzero(_differs(starts[:, 1:], S[:, C - 1 :: C][:, : K - 1])) + 1
            if ks.size == 0:
                break
            if ks[0] == front + 1:  # the last round's exact re-run did not coalesce
                ks = ks[:1]
            front = ks[0]
            prev = S[:, ks * C - 1]
            if not np.isfinite(prev[:, 0]).all():
                break  # an exact state before chunk ks[0] is non-finite
            starts[:, ks] = prev
            _rerun(A1, U, l, xs, S, C, ks, prev)
    if not np.isfinite(H).all():
        s = int(np.argmin(np.isfinite(S).all(axis=0)))
        direction = "backward" if backward else "forward"
        raise AssumptionError(f"{direction} state blow-up at step {n - 1 - s if backward else s}",
                              stage="simulate")
    return H


def rnn_forward(params: RnnParams, x: np.ndarray) -> SequenceData:
    """Run the forward recursion from h_0 = 0 and return the observed (x, y).

    Raises on non-finite states, which signals violated norm assumptions.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != params.d_x:
        raise ValueError(f"input dim {x.shape[0]} != d_x {params.d_x}")
    return SequenceData(x=x, y=params.A2.T @ _unroll(params.A1, params.U, params.l, x).T)


def brnn_forward(params: BrnnParams, x: np.ndarray) -> SequenceData:
    """Forward pass for h, backward pass for z, y_t = A2^T [h_t; z_t].

    Boundary states are h_0 = 0 and z_{n+1} = 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != params.d_x:
        raise ValueError(f"input dim {x.shape[0]} != d_x {params.d_x}")
    h = _unroll(params.A1, params.U, params.l, x).T
    z = _unroll(params.B1, params.V, params.l, x, backward=True).T
    return SequenceData(x=x, y=params.A2.T @ np.vstack([h, z]))
