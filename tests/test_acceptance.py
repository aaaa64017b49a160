"""End-to-end acceptance checks, one test per criterion.

Every test finishes by printing a single pass/fail line so a transcript of
the run doubles as a checklist.  Expected values come from closed-form
population computations, independent finite-difference or quadrature
oracles, and planted-model constructions; none are tuned to the estimator.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from score_reference import score
from spectral_rnn.cp_decomp import decompose
from spectral_rnn.diagnostics import (align, concentration_bound,
                                      lipschitz_bound, sample_sweep)
from spectral_rnn.moments import (cross_moment, cross_moment_s2,
                                  population_moment_oracle)
from spectral_rnn.recovery import (recover_brnn, recover_linear,
                                   recover_quadratic, train_linear,
                                   train_quadratic, train_scalar)
from spectral_rnn.score import QuadraticTest, stein_check
from spectral_rnn.sequence_models import (BrnnParams, MarkovChainSpec,
                                          RnnParams, _unroll,
                                          bounded_input_spec, brnn_forward,
                                          rnn_forward, sample_markov_chain)


def _verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _quadratic_model():
    """Unit-row quadratic reference model, d_x=6, d_h=3, d_y=4."""
    rng = np.random.default_rng(4)
    A1 = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    U = 0.3 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
    A2 = np.linalg.qr(rng.standard_normal((4, 3)))[0].T \
        * np.array([[1.5], [1.2], [1.0]])
    return RnnParams(A1=A1, U=U, A2=A2, l=2)


def test_criterion_1_stein_identity():
    rng = np.random.default_rng(0)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    spec = MarkovChainSpec(W=0.5 * Q, sigma=math.sqrt(0.75))
    a = rng.standard_normal(3)
    a /= np.linalg.norm(a)
    seeds = (0, 1, 2)
    err_small = np.mean([stein_check(spec, QuadraticTest(a), 2, 200_000, s)[0]
                         for s in seeds])
    err_large = np.mean([stein_check(spec, QuadraticTest(a), 2, 800_000,
                                     s + 100)[0] for s in seeds])
    ratio = err_large / err_small
    ok = err_small < 0.05 and 0.35 <= ratio <= 0.65
    _verdict(1, ok, f"error {err_small:.4f} at 2e5, x4 ratio {ratio:.2f}")


def test_criterion_2_score_closed_forms():
    worst = 0.0
    points = 0
    for d_x in (1, 2, 3):
        spec = bounded_input_spec(d_x, 0.5, seed=d_x)
        x = sample_markov_chain(spec, 40, seed=10 + d_x)
        for m in (1, 2, 3, 4):
            for t in range(2, 11):
                closed = score(spec, x, t, m, closed_form=True)
                recursive = score(spec, x, t, m, closed_form=False)
                worst = max(worst, float(np.max(np.abs(closed - recursive))))
                points += 1
    ok = worst < 1e-10 and points >= 100
    _verdict(2, ok, f"max gap {worst:.2e} over {points} points")


def test_criterion_3_second_moment_identity():
    rng = np.random.default_rng(8)
    A1 = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    A2 = rng.standard_normal((3, 4))
    params = RnnParams(A1=A1, U=np.zeros((3, 3)), A2=A2, l=2)
    spec = bounded_input_spec(6, 0.5, seed=2)
    x = sample_markov_chain(spec, 500_000, seed=0)
    data = rnn_forward(params, x)
    T2_hat = cross_moment_s2(spec, data).value
    T2 = population_moment_oracle(params, "S2-order3")
    rel = np.linalg.norm(T2_hat - T2) / np.linalg.norm(T2)

    scalar = RnnParams(A1=[[1.0]], U=[[0.0]], A2=[[1.0]], l=2)
    value = population_moment_oracle(scalar, "S2-order3").ravel()[0]
    ok = rel < 0.05 and abs(value - 2.0) < 1e-12
    _verdict(3, ok, f"relative error {rel:.4f}, scalar value {value:.12f}")


def _best_column_errors(est, true):
    ne = np.linalg.norm(est, axis=0)
    nt = np.linalg.norm(true, axis=0)
    cos = (true.T @ est) / np.outer(nt, np.maximum(ne, 1e-300))
    rows, cols = linear_sum_assignment(-np.abs(cos))
    perm = cols[np.argsort(rows)]
    signs = np.sign(cos[np.arange(true.shape[1]), perm])
    aligned = est[:, perm] * signs
    return np.linalg.norm(aligned - true, axis=0)


def test_criterion_4_cp_pipeline():
    rng = np.random.default_rng(11)
    d, k = 8, 3
    B = rng.standard_normal((d, k))
    B /= np.linalg.norm(B, axis=0)
    M = rng.standard_normal((d, k))
    w = np.array([2.0, 1.5, 1.0])
    T = np.einsum("j,ij,kj,lj->ikl", w, M, B, B)

    cp = decompose(T, k=k, seed=0)
    err_plain = _best_column_errors(cp.factor, B).max()

    Q = np.linalg.qr(rng.standard_normal((d, k)))[0]
    T_orth = np.einsum("j,ij,kj,lj->ikl", w, M, Q, Q)
    cp_orth = decompose(T_orth, k=k, seed=0)
    err_orth = _best_column_errors(cp_orth.factor, Q).max()

    noise = rng.standard_normal(T.shape)
    noise *= 1e-3 * np.linalg.norm(T) / np.linalg.norm(noise)
    cp_noisy = decompose(T + noise, k=k, seed=0)
    err_noisy = _best_column_errors(cp_noisy.factor, B).max()

    ok = err_plain < 1e-6 and err_orth < 1e-10 and err_noisy <= 1e-2
    _verdict(4, ok, f"clean {err_plain:.2e}, orthogonal {err_orth:.2e}, "
                    f"noisy {err_noisy:.2e}")


def test_criterion_5_end_to_end_quadratic():
    params = _quadratic_model()
    spec = bounded_input_spec(6, 0.5, seed=2)

    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    est = recover_quadratic(T2, 3, T4=T4, seed=0)
    rep = align(est.A1, params.A1, est.A2, params.A2, est.U, params.U)
    oracle_err = rep.max_error

    errs = []
    for seed in range(5):
        x = sample_markov_chain(spec, 500_000, seed=seed)
        data = rnn_forward(params, x)
        est = train_quadratic(data, spec, 3, seed=seed)
        rep = align(est.A1, params.A1, est.A2, params.A2, est.U, params.U)
        errs.append(max(rep.per_row_errors["A1"].max(),
                        rep.per_row_errors["A2"].max()))
    med = float(np.median(errs))

    chain = bounded_input_spec(1, 0.25, seed=5)
    scalar = RnnParams(A1=[[1.0]], U=[[0.3]], A2=[[1.0]], l=2)
    gaps = []
    for seed in range(5):
        x = sample_markov_chain(chain, 1_000_000, seed=seed)
        data = rnn_forward(scalar, x)
        est = train_quadratic(data, chain, 1, seed=seed)
        gaps.append(abs(abs(est.U[0, 0]) - 0.3))
    u_gap = float(np.median(gaps))

    ok = oracle_err < 1e-6 and med < 0.1 and u_gap < 1e-2
    _verdict(5, ok, f"oracle {oracle_err:.2e}, median row error {med:.4f}, "
                    f"recurrence gap {u_gap:.4f}")


def test_criterion_6_sample_complexity_shape():
    params = _quadratic_model()
    params = RnnParams(A1=params.A1, U=np.zeros((3, 3)), A2=params.A2, l=2)
    spec = bounded_input_spec(6, 0.5, seed=2)

    def cell(n, seed):
        x = sample_markov_chain(spec, int(n), seed + 17)
        data = rnn_forward(params, x)
        est = recover_quadratic(cross_moment_s2(spec, data).value, 3, seed=seed)
        rep = align(est.A1, params.A1)
        return [("A1", int(r), float(e))
                for r, e in enumerate(rep.per_row_errors["A1"])]

    ns = [10_000, 100_000, 1_000_000]
    result = sample_sweep(cell, ns, seeds=[0, 1, 2], workers=1)
    med = {n: np.median([e for nn, _, _, _, e in result.rows if nn == n])
           for n in ns}
    ok = -0.7 <= result.slope <= -0.3 and med[ns[2]] < min(med[ns[0]], med[ns[1]])
    _verdict(6, ok, f"slope {result.slope:.3f}, medians "
                    f"{med[ns[0]]:.4f}/{med[ns[1]]:.4f}/{med[ns[2]]:.4f}")


def test_criterion_7_bidirectional_oracle():
    rng = np.random.default_rng(7)
    A1 = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    B1 = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    U = 0.25 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    V = 0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A2 = rng.standard_normal((4, 4))
    params = BrnnParams(A1=A1, B1=B1, U=U, V=V, A2=A2, l=2)
    T2 = population_moment_oracle(params, "S2-order3")
    T4b = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    T4f = population_moment_oracle(params, "S4-reshaped-order3", shift=+1)
    est = recover_brnn(T2, 2, T4_back=T4b, T4_fwd=T4f, seed=0)
    repf = align(est.A1, A1, est.A2[:2], A2[:2], est.U, U)
    repbw = align(est.B1, B1, est.A2[2:], A2[2:], est.V, V)
    err = max(repf.max_error, repf.u_error, repbw.max_error, repbw.u_error)

    # a zeroed backward chain reduces the model to the one-directional one,
    # so the quadratic recovery applies verbatim
    quad = RnnParams(A1=A1, U=U, A2=A2[:2], l=2)
    degen = BrnnParams(A1=A1, B1=np.zeros_like(B1), U=U,
                       V=np.zeros_like(V),
                       A2=np.vstack([A2[:2], np.zeros_like(A2[2:])]), l=2)
    spec = bounded_input_spec(4, 0.5, seed=1)
    x = sample_markov_chain(spec, 500, seed=2)
    same = np.array_equal(brnn_forward(degen, x).y, rnn_forward(quad, x).y)
    T2q = population_moment_oracle(quad, "S2-order3")
    T4q = population_moment_oracle(quad, "S4-reshaped-order3", shift=-1)
    estq = recover_quadratic(T2q, 2, T4=T4q, seed=0)
    repq = align(estq.A1, A1, estq.A2, A2[:2], estq.U, U)
    ok = err < 1e-6 and same and repq.max_error < 1e-6
    _verdict(7, ok, f"oracle error {err:.2e}, degenerate case "
                    f"{'matches' if same else 'differs from'} forward model")


def test_criterion_8_scalar_cubic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 3))
    a /= np.linalg.norm(a)
    params = RnnParams(A1=a, U=np.zeros((1, 1)), A2=[[0.8]], l=3)
    spec = bounded_input_spec(3, 0.5, seed=0)
    x = sample_markov_chain(spec, 500_000, seed=15)
    data = rnn_forward(params, x)
    est = train_scalar(data, spec, 1)
    cos = (est.A1 @ a.T)[0, 0] / np.linalg.norm(est.A1)
    direction = 1.0 - abs(cos)

    unit = RnnParams(A1=[[1.0]], U=[[0.0]], A2=[[1.0]], l=3)
    iid = MarkovChainSpec(W=np.zeros((1, 1)), sigma=1.0)
    xg = sample_markov_chain(iid, 400_000, seed=1)
    weight = cross_moment(iid, rnn_forward(unit, xg), 3).value.ravel()[0]

    with pytest.raises(ValueError, match=r"^train_scalar fits cubic units \(l = 3\), got 2$"):
        train_scalar(data, spec, 1, l=2)
    ok = direction < 1e-3 and abs(weight - 6.0) < 0.6
    _verdict(8, ok, f"direction gap {direction:.2e}, weight {weight:.3f}, "
                    f"degree-2 request rejected")


def test_criterion_9_linear_case():
    """The linear model is fixed by its blocks only up to a similarity, so
    the criterion reads its invariants: the Markov parameter C0 = A2 A1 and
    the eigenvalue of U, which for one unit is U itself."""
    est = recover_linear(np.array([[0.5]]), np.array([[0.25]]), 1)
    # sqrt(0.5)^2 rounds to one ulp above 0.5; U = 0.25 / sqrt(0.5 * 0.5) is exact
    exact = abs(est.A2[0, 0] * est.A1[0, 0] - 0.5) <= 1e-15 and est.U[0, 0] == 0.5

    spec = bounded_input_spec(1, 0.5, seed=3)
    params = RnnParams(A1=[[0.5]], U=[[0.5]], A2=[[1.0]], l=1)
    x = sample_markov_chain(spec, 100_000, seed=4)
    data = rnn_forward(params, x)
    est = train_linear(data, spec, 1)
    u_rel = abs(est.U[0, 0] - 0.5) / 0.5
    ok = exact and u_rel < 0.05
    _verdict(9, ok, f"exact blocks {'ok' if exact else 'off'}, "
                    f"estimated recurrence off by {u_rel:.3%}")


def test_criterion_10_invariants():
    # per-unit sign flips of (A1 row, U row) leave outputs bitwise unchanged
    spec = bounded_input_spec(3, 0.5, seed=1, tail_prob=1e-6)
    rng = np.random.default_rng(2)
    A1 = 0.6 * np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    U = 0.4 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A2 = rng.standard_normal((2, 2))
    params = RnnParams(A1=A1, U=U, A2=A2, l=2)
    flip = np.array([-1.0, 1.0])
    flipped = RnnParams(A1=flip[:, None] * A1, U=flip[:, None] * U,
                        A2=A2, l=2)
    x = sample_markov_chain(spec, 10_000, seed=3)
    data = rnn_forward(params, x)
    sign_ok = np.array_equal(data.y, rnn_forward(flipped, x).y)

    bounded = bool(np.all(np.linalg.norm(_unroll(A1, U, 2, x), axis=1) <= 1.0))

    n = 250
    lb = lipschitz_bound(params, s2_norm=1.5, gamma=2.0, n=n)
    lb_direct = (np.linalg.norm(A2, 2)
                 * (np.linalg.norm(A1, 2) / (1.0 - 2 * np.linalg.norm(U, 2))
                    * 1.5 + 3.0 * 2.0) / n)
    cb = concentration_bound(2.0, 0.5, 1.3, 1000, 4, 9, 0.05)
    cb_direct = (2.0 * (1.0 + 1.0 / (math.sqrt(8.0) * 1.3 * 1000 ** 1.5))
                 / 0.5 * math.sqrt(8.0 * 1.3 ** 2 * 1000
                                   * math.log(13 / 0.05)))
    bounds_ok = abs(lb - lb_direct) < 1e-12 and abs(cb - cb_direct) < 1e-12 * cb

    def cell(n_, seed):
        r = np.random.default_rng(seed * 31 + n_)
        return [("A1", 0, float(r.random()))]

    base = sample_sweep(cell, [100, 200], [0, 1], workers=1)
    det_ok = all(sample_sweep(cell, [100, 200], [0, 1], workers=w).rows
                 == base.rows for w in (2, 4))

    ok = sign_ok and bounded and bounds_ok and det_ok
    _verdict(10, ok, f"signs {'exact' if sign_ok else 'broken'}, "
                     f"state bounded {bounded}, bounds match {bounds_ok}, "
                     f"worker-count invariance {det_ok}")
