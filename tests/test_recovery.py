"""Parameter recovery from exact (oracle) and simulated moments."""

import importlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import data_path_reference
from spectral_rnn import cli, cp_decomp, moments, recovery
from spectral_rnn.config import from_items
from spectral_rnn.diagnostics import align
from spectral_rnn.moments import (cross_moment_s2, cross_moment_s4_reshaped,
                                  population_moment_oracle)
from spectral_rnn.recovery import (fit_recurrence_row, quadratic_moments,
                                   recover_brnn, recover_linear,
                                   recover_quadratic, recover_scalar,
                                   train_brnn, train_linear, train_quadratic,
                                   train_scalar)
from spectral_rnn.score import centered_scores
from spectral_rnn.sequence_models import (AssumptionError, BrnnParams, RnnParams,
                                          SequenceData, bounded_input_spec, brnn_forward,
                                          rnn_forward, sample_markov_chain)


def _quad_model(seed=5, d_x=6, d_h=3, d_y=4, u_scale=0.3):
    rng = np.random.default_rng(seed)
    A1 = np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T
    U = u_scale * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0]
    A2 = rng.standard_normal((d_h, d_y))
    return RnnParams(A1=A1, U=U, A2=A2, l=2)


def test_quadratic_oracle_exact():
    params = _quad_model()
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    est = recover_quadratic(T2, 3, T4=T4, seed=0)
    rep = align(est.A1, params.A1, est.A2, params.A2, est.U, params.U)
    assert rep.max_error < 1e-10
    assert rep.u_error < 1e-10


def test_quadratic_recurrence_scalar_hidden():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 3))
    a /= np.linalg.norm(a)
    params = RnnParams(A1=a, U=[[0.35]], A2=[[1.3]], l=2)
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    est = recover_quadratic(T2, 1, T4=T4, seed=0)
    assert abs(abs(est.U[0, 0]) - 0.35) < 1e-8


def test_zero_t4_fits_zero_recurrence():
    params = _quad_model(u_scale=0.0)
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = np.zeros((params.d_y, params.d_x ** 2, params.d_x ** 2))
    est = recover_quadratic(T2, 3, T4=T4, seed=0)
    assert np.array_equal(est.U, np.zeros((3, 3)))


def test_brnn_zero_t4_splits_in_weight_order():
    """Equal (zero) block norms leave the stable sort in stage-1 order, so
    the first d_h units are forward, and both recurrences fit to zero."""
    rng = np.random.default_rng(7)
    params = BrnnParams(A1=np.linalg.qr(rng.standard_normal((4, 2)))[0].T,
                        B1=np.linalg.qr(rng.standard_normal((4, 2)))[0].T,
                        U=np.zeros((2, 2)), V=np.zeros((2, 2)),
                        A2=rng.standard_normal((4, 4)), l=2)
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = np.zeros((4, 16, 16))
    est = recover_brnn(T2, 2, T4_back=T4, T4_fwd=T4, seed=0)
    C, A2, _ = recovery._stage1_factors(T2, 4, 0)
    assert np.array_equal(est.A1, C[:2]) and np.array_equal(est.B1, C[2:])
    assert np.array_equal(est.A2, A2)
    assert np.array_equal(est.U, np.zeros((2, 2)))
    assert np.array_equal(est.V, np.zeros((2, 2)))


def test_stage1_never_returns_fewer_rows_than_asked():
    """A unit with a zero output row leaves T2 with rank 2, which decompose
    reports as two components; stage 1 must fail rather than return 2 rows."""
    params = _quad_model()
    A2 = params.A2.copy()
    A2[1] = 0.0
    T2 = population_moment_oracle(RnnParams(A1=params.A1, U=params.U, A2=A2), "S2-order3")
    with pytest.raises(AssumptionError, match="stage 1: rank deficiency, kept 2 of 3") as info:
        recover_quadratic(T2, 3, seed=0)
    assert info.value.stage == "stage1"
    cubic = RnnParams(A1=params.A1, U=np.zeros((3, 3)), A2=[[1.0], [0.0], [0.7]], l=3)
    T3 = population_moment_oracle(cubic, "S3-order4")[0]
    with pytest.raises(AssumptionError, match="rank deficiency"):
        recover_scalar(T3, 3, seed=0)


def test_recurrence_rejects_dependent_output_rows():
    """Output rows with A2[2] = A2[0] - A2[1]/2 pass stage 1 but have rank 2,
    so the recurrence stage cannot unmix T4 into three unit blocks."""
    params = _quad_model()
    A2 = params.A2.copy()
    A2[2] = A2[0] - 0.5 * A2[1]
    planted = RnnParams(A1=params.A1, U=params.U, A2=A2)
    T2 = population_moment_oracle(planted, "S2-order3")
    T4 = population_moment_oracle(planted, "S4-reshaped-order3", shift=-1)
    assert recover_quadratic(T2, 3, seed=0).A1.shape == (3, 6)
    with pytest.raises(AssumptionError, match="recurrence: A2 rank 2 of 3") as info:
        recover_quadratic(T2, 3, T4=T4, seed=0)
    assert info.value.stage == "recurrence"


def test_stage1_fallback_sweep_cell():
    """A d_y=6 sweep cell (master 4245, n=1e4, cell seed 2) where no slice
    combination of T2 is definite; stage 1 once exited with rank deficiency
    here, and the slice pencils give an estimate."""
    config = from_items({"model.d_x": "6", "model.d_h": "3", "model.d_y": "6",
                         "model.u_scale": "0.3", "model.norm_check": "off",
                         "estimation.n": "10000"})
    cell_master = cli._child_seeds(4245, 1)[0]
    seed = int(np.random.SeedSequence([cell_master, 10000, 2]).generate_state(1)[0])
    spec, params, data = cli._simulate(config, seed)
    est = train_quadratic(data, spec, 3, seed=seed)
    assert align(est.A1, cli._unit_input_rows(params).A1).max_error < 0.1


def test_fit_recurrence_row_roundtrip():
    rng = np.random.default_rng(2)
    A1 = np.linalg.qr(rng.standard_normal((5, 3)))[0].T
    u = rng.standard_normal(3) * 0.4
    H = 2.0 * np.einsum("j,ji,jl->il", u, A1, A1)
    # the block is 2 * the three index pairings of H with itself
    d = 5
    block = 2.0 * (np.einsum("ij,kl->ijkl", H, H)
                   + np.einsum("ik,jl->ijkl", H, H)
                   + np.einsum("il,jk->ijkl", H, H))
    got = fit_recurrence_row(block.reshape(d * d, d * d), A1)
    assert np.allclose(np.abs(got), np.abs(u), atol=1e-10)


def _pairings(Ha, Hb):
    """The three index pairings Ha_ij Hb_kl + Ha_ik Hb_jl + Ha_il Hb_jk, over
    leading axes."""
    return (np.einsum("...ij,...kl->...ijkl", Ha, Hb) + np.einsum("...ik,...jl->...ijkl", Ha, Hb)
            + np.einsum("...il,...jk->...ijkl", Ha, Hb))


def _fit_recurrence_row_full(Q_k, A1):
    """The fit in the full d coordinates, kept as the reference: one design
    column per pair p <= q, built from the three pairings of H_p and H_q, and
    a d^4-row least squares."""
    k = A1.shape[0]
    H = [2.0 * np.outer(A1[p], A1[p]) for p in range(k)]

    def column(p, q):
        block = _pairings(H[p], H[q])
        return 2.0 * (block if p == q else block + _pairings(H[q], H[p])).ravel()

    index = [(p, q) for p in range(k) for q in range(p, k)]
    G = np.stack([column(p, q) for p, q in index], axis=1)
    X = np.zeros((k, k))
    for (p, q), c in zip(index, np.linalg.lstsq(G, Q_k.ravel(), rcond=None)[0]):
        X[p, q] = X[q, p] = c
    vals, vecs = np.linalg.eigh(X)
    i = int(np.argmax(np.abs(vals)))
    return np.sqrt(abs(vals[i])) * vecs[:, i]


def _planted_block(u, rows):
    """2 * the pairings of H(u) = 2 sum_j u_j r_j r_j^T with itself, d^2 x d^2."""
    H = 2.0 * np.einsum("j,ji,jl->il", u, rows, rows)
    d = rows.shape[1]
    return 2.0 * _pairings(H, H).reshape(d * d, d * d)


def _rows(rng, k, d, sigma_min):
    """k x d rows of unit norm, not orthogonal, with singular values >= sigma_min."""
    while True:
        rows = rng.standard_normal((k, d)) + 0.5 * rng.standard_normal(d)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        if np.linalg.svd(rows, compute_uv=False).min() >= sigma_min:
            return rows


def _assert_same_row(got, want, rtol):
    """Equal up to the row sign, which the block does not fix."""
    sign = 1.0 if got @ want >= 0 else -1.0
    assert np.max(np.abs(got - sign * want)) <= rtol * np.max(np.abs(want))


def _symmetric_noise(rng, d):
    """A d^2 x d^2 block symmetric under every permutation of its four indices."""
    N = rng.standard_normal((d,) * 4)
    return (sum(N.transpose(p) for p in itertools.permutations(range(4))) / 24.0
            ).reshape(d * d, d * d)


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 10))),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.05))
def test_fit_in_span_matches_full_coordinate_fit(kd, seed, noise):
    """The fit in the span of the input rows solves the same least squares
    as the d^4-row fit, for non-orthogonal rows and a noisy symmetric block."""
    k, d = kd
    rng = np.random.default_rng(seed)
    rows = _rows(rng, k, d, 0.1)
    u = rng.uniform(0.2, 0.5) * rng.standard_normal(k) / np.sqrt(k)
    block = _planted_block(u, rows)
    block = block + noise * np.max(np.abs(block)) * _symmetric_noise(rng, d)
    _assert_same_row(fit_recurrence_row(block, rows), _fit_recurrence_row_full(block, rows),
                     1e-10)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_rank_one_design_matches_the_pairings(k, m, seed):
    """The closed-form design equals the pair-symmetrizations of the
    rank-one H_p = 2 r_p r_p^T that it replaces."""
    rows = np.random.default_rng(seed).standard_normal((k, m))
    H = 2.0 * rows[:, :, None] * rows[:, None, :]
    p, q = np.triu_indices(k)
    want = ((_pairings(H[p], H[q]) + _pairings(H[q], H[p]))
            * np.where(p == q, 1.0, 2.0)[:, None, None, None, None]).reshape(p.size, m * m, m * m)
    got = recovery._design(rows, p, q)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_design_pairs_are_cached_and_read_only(k):
    """Every plan of one k shares np.triu_indices(k) and the symmetric
    gather of its pairs, which fills the k x k matrix the pair-indexed
    assignment X[p, q] = X[q, p] = x fills; no caller can write them."""
    p, q, sym = recovery._pairs(k)
    for got, want in zip((p, q), np.triu_indices(k)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    x = np.random.default_rng(k).standard_normal(p.size)
    X = np.zeros((k, k))
    X[p, q] = X[q, p] = x
    assert x[sym].tobytes() == X.tobytes()
    for a in (p, q, sym):
        with pytest.raises(ValueError):
            a[0] = 1
    assert recovery._pairs(k)[0] is p


def test_fit_recurrence_row_planted_non_orthogonal():
    """A noiseless block of non-orthogonal rows (d > k) gives back its row."""
    rng = np.random.default_rng(41)
    rows = _rows(rng, 4, 9, 0.1)
    u = np.array([0.3, -0.1, 0.25, 0.05])
    _assert_same_row(fit_recurrence_row(_planted_block(u, rows), rows), u, 1e-10)


def test_fit_recurrence_row_in_brnn_basis_shape():
    """The BRNN fits each direction's d_h rows in the coordinates of a basis
    of all 2 d_h stage-1 rows: d_h x 2 d_h rows, which span only half of
    those coordinates."""
    rng = np.random.default_rng(42)
    C = _rows(rng, 4, 6, 0.1)
    basis = np.linalg.qr(C.T)[0].T
    rows = C[:2] @ basis.T
    assert rows.shape == (2, 4)
    u = np.array([0.2, -0.15])
    block = _planted_block(u, rows)
    _assert_same_row(fit_recurrence_row(block, rows), u, 1e-10)
    block = block + 0.01 * np.max(np.abs(block)) * _symmetric_noise(rng, 4)
    _assert_same_row(fit_recurrence_row(block, rows), _fit_recurrence_row_full(block, rows),
                     1e-10)


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 8))),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.05), st.sampled_from([0.0, 1.0, -1.0]))
def test_row_fits_on_one_plan_match_the_full_coordinate_fit(kd, seed, noise, parallel):
    """Every row of a direction fit on its one shared plan matches the
    d^4-row lstsq fit of its own block; with parallel = +-1 the second row is
    the first times parallel, which makes the design rank deficient, and the
    plan's solve still gives lstsq's minimum-norm answer."""
    k, d = kd
    rng = np.random.default_rng(seed)
    rows = _rows(rng, k, d, 0.1)
    if parallel:
        rows[1] = parallel * rows[0]
    Q = np.stack([_planted_block(rng.uniform(0.2, 0.5) * rng.standard_normal(k) / np.sqrt(k),
                                 rows) for _ in range(k)])
    Q = Q + noise * np.max(np.abs(Q)) * np.stack([_symmetric_noise(rng, d) for _ in range(k)])
    got = recovery._recurrence_rows(Q, rows, range(k))
    for row, block in zip(got, Q):
        _assert_same_row(row, _fit_recurrence_row_full(block, rows), 1e-10)


def test_recurrence_rows_build_one_plan_and_fit_each_row(monkeypatch):
    """A direction's shared fit work is built once (_row_fit_plan), and its
    rows are still one fit_recurrence_row call each, reached through the
    module attribute: one plan and d_h fits for the quadratic model, one
    plan per direction for the BRNN."""
    plans = _count_calls(monkeypatch, "_row_fit_plan", recovery._row_fit_plan, (recovery,))
    fits = _count_calls(monkeypatch, "fit_recurrence_row", recovery.fit_recurrence_row,
                        (recovery,))
    params = _quad_model()
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    est = recover_quadratic(T2, 3, T4=T4, seed=0)
    assert (len(plans), len(fits)) == (1, 3)
    assert align(est.A1, params.A1, est.A2, params.A2, est.U, params.U).u_error < 1e-10
    plans.clear()
    fits.clear()
    brnn = _brnn_model(8, d_x=4, d_y=5)
    T2 = population_moment_oracle(brnn, "S2-order3")
    T4s = [population_moment_oracle(brnn, "S4-reshaped-order3", shift=s) for s in (-1, 1)]
    recover_brnn(T2, 2, T4_back=T4s[0], T4_fwd=T4s[1], seed=0)
    assert (len(plans), len(fits)) == (2, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_unit_block_fails_at_recurrence(bad):
    """A non-finite block is an AssumptionError at stage recurrence, raised
    before any numpy warning or eigh's LinAlgError, whether the fit is
    called directly or reached from recover_quadratic's unmixed blocks."""
    rng = np.random.default_rng(43)
    rows = _rows(rng, 3, 5, 0.1)
    block = _planted_block(np.array([0.3, -0.2, 0.1]), rows)
    block[2, 7] = block[7, 2] = bad
    params = _quad_model()
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    T4[1, 3, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (lambda: fit_recurrence_row(block, rows),
                    lambda: recover_quadratic(T2, 3, T4=T4, seed=0)):
            with pytest.raises(AssumptionError, match="non-finite unit block") as info:
                fit()
            assert info.value.stage == "recurrence"


@pytest.mark.parametrize("k, d_y", [(1, 1), (2, 3), (3, 4), (4, 6), (5, 5)])
def test_output_map_has_the_bits_of_pinv(k, d_y):
    """One SVD of A2^T gives the rank check and M, bit for bit
    np.linalg.pinv(A2.T, rcond=1e-10), for output rows of mixed scales."""
    rng = np.random.default_rng(10 * k + d_y)
    for _ in range(20):
        A2 = rng.standard_normal((k, d_y)) * rng.uniform(0.05, 5.0, (k, 1))
        assert np.array_equal(recovery._output_map(A2), np.linalg.pinv(A2.T, rcond=1e-10))


@pytest.mark.parametrize("case", ["dependent", "zero row", "below the cut"])
def test_output_map_rank_deficient_fails_at_recurrence(case):
    """Output rows of rank below k at pinv's relative cut of 1e-10 fail at
    stage recurrence: a dependent row, a zero row, or a row whose singular
    direction is 1e-11 of the largest."""
    A2 = np.random.default_rng(44).standard_normal((3, 5))
    if case == "dependent":
        A2[2] = A2[0] - 0.5 * A2[1]
    elif case == "zero row":
        A2[1] = 0.0
    else:
        A2[2] = A2[0] + 1e-11 * np.linalg.norm(A2[0]) * np.eye(5)[0]
    with pytest.raises(AssumptionError, match="recurrence: A2 rank 2 of 3") as info:
        recovery._output_map(A2)
    assert info.value.stage == "recurrence"


def test_recover_scalar_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1, 3))
    a /= np.linalg.norm(a)
    params = RnnParams(A1=a, U=np.zeros((1, 1)), A2=[[0.8]], l=3)
    T3 = population_moment_oracle(params, "S3-order4")[0]
    est = recover_scalar(T3, 1, seed=0)
    cos = (est.A1 @ a.T)[0, 0] / np.linalg.norm(est.A1)
    assert 1.0 - abs(cos) < 1e-12
    # (a, a2) -> (-a, -a2) is a model symmetry for odd degree
    assert abs(abs(est.A2[0, 0]) - 0.8) < 1e-10


def test_recover_scalar_keeps_the_best_draw_on_data():
    """Chain 15 of the scalar cubic model (d_x=6, d_h=3, a1_scale 0.7,
    u_scale 0.2) at n=1e5: the deflated tensor power method read an aligned
    A1 error of 0.449 here, the lowest-residual of 16 single-pencil decompose
    calls 0.093, and one decompose, which keeps its best candidate, 0.091."""
    config = from_items({"model.d_x": "6", "model.d_h": "3", "model.d_y": "1",
                         "model.l": "3", "model.a1_scale": "0.7",
                         "model.u_scale": "0.2", "estimation.n": "100000"})
    spec, params, data = cli._simulate(config, 15, "scalar")
    T3 = moments.cross_moment(spec, data, 3, burn_in=10).value[0]
    est = recover_scalar(T3, 3, seed=15)
    assert align(est.A1, cli._unit_input_rows(params).A1).max_error <= 0.15


def test_recover_brnn_oracle_exact():
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
    repb = align(est.B1, B1, est.A2[2:], A2[2:], est.V, V)
    assert repf.max_error < 1e-9 and repf.u_error < 1e-9
    assert repb.max_error < 1e-9 and repb.u_error < 1e-9


def _orthonormal_rows(rng, k, d):
    return np.linalg.qr(rng.standard_normal((d, k)))[0].T


@st.composite
def _oracle_models(draw, brnn):
    """A random small quadratic model: d_x in 2-7, d_h up to min(d_x, 3),
    d_y in d_h..d_h+2 (a BRNN also needs 2 d_h <= d_x and d_y >= 2 d_h),
    orthonormal input rows, output rows orthonormal times distinct scales in
    [1.0, 1.6] and recurrences of norm u_scale in [0.05, 0.4]."""
    d_x = draw(st.integers(2, 7))
    d_h = draw(st.integers(1, min(d_x // 2, 2) if brnn else min(d_x, 3)))
    k = 2 * d_h if brnn else d_h
    d_y = draw(st.integers(max(d_h, k), d_h + 2))
    scales = np.array(draw(st.lists(st.floats(1.0, 1.6), min_size=k, max_size=k,
                                    unique=True)))
    u_scales = draw(st.lists(st.floats(0.05, 0.4), min_size=2, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A2 = _orthonormal_rows(rng, k, d_y) * scales[:, None]
    U, V = (s * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0] for s in u_scales)
    if brnn:
        return BrnnParams(A1=_orthonormal_rows(rng, d_h, d_x),
                          B1=_orthonormal_rows(rng, d_h, d_x), U=U, V=V, A2=A2, l=2)
    return RnnParams(A1=_orthonormal_rows(rng, d_h, d_x), U=U, A2=A2, l=2)


_ORACLE_PROPERTY = settings(max_examples=40)


@_ORACLE_PROPERTY
@given(_oracle_models(brnn=False), st.integers(0, 2 ** 16))
def test_quadratic_oracle_property(params, seed):
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    est = recover_quadratic(T2, params.d_h, T4=T4, seed=seed)
    rep = align(est.A1, params.A1, est.A2, params.A2, est.U, params.U)
    assert rep.max_error < 1e-8 and rep.u_error < 1e-8


@_ORACLE_PROPERTY
@given(_oracle_models(brnn=True), st.integers(0, 2 ** 16))
def test_brnn_oracle_property(params, seed):
    d_h = params.d_h
    T2 = population_moment_oracle(params, "S2-order3")
    T4b, T4f = (population_moment_oracle(params, "S4-reshaped-order3", shift=s)
                for s in (-1, 1))
    est = recover_brnn(T2, d_h, T4_back=T4b, T4_fwd=T4f, seed=seed)
    fwd = align(est.A1, params.A1, est.A2[:d_h], params.A2[:d_h], est.U, params.U)
    bwd = align(est.B1, params.B1, est.A2[d_h:], params.A2[d_h:], est.V, params.V)
    assert fwd.max_error < 1e-8 and fwd.u_error < 1e-8
    assert bwd.max_error < 1e-8 and bwd.u_error < 1e-8


def test_recover_brnn_needs_wide_output():
    T2 = np.zeros((3, 4, 4))  # d_y = 3 < 2 d_h = 4
    with pytest.raises(ValueError, match="output dimension"):
        recover_brnn(T2, 2)


def test_recover_linear_exact_blocks():
    """One unit: the balanced realization splits C0 = 0.5 into A2 = A1 =
    sqrt(0.5) (up to a common sign), and U = C1 / C0 exactly."""
    est = recover_linear(np.array([[0.5]]), np.array([[0.25]]), 1)
    assert est.U[0, 0] == 0.5
    np.testing.assert_allclose(est.A2 * est.A1, [[0.5]], rtol=1e-15)
    np.testing.assert_allclose(np.abs(est.A1), [[np.sqrt(0.5)]], rtol=1e-15)


def _markov(A1, U, A2, lags=3):
    return [A2.T @ np.linalg.matrix_power(U, j) @ A1 for j in range(lags)]


def _eig_gap(U_est, U_true):
    """Largest gap of the eigenvalues matched by an independent assignment."""
    lam, lam_true = np.linalg.eigvals(U_est), np.linalg.eigvals(U_true)
    cost = np.abs(lam_true[:, None] - lam[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


@st.composite
def _linear_models(draw):
    """(A1, U, A2) of a random linear model with d_h <= min(d_x, d_y), d_x
    and d_y in 1-6: input and output rows orthonormal times scales in
    [0.5, 1.5], and U orthogonal times a scale in [0.05, 0.9], a normal
    matrix, so eig(U) is well conditioned."""
    d_x, d_y = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d_h = draw(st.integers(1, min(d_x, d_y)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = rng.uniform(0.5, 1.5, size=(2, d_h, 1))
    U = draw(st.floats(0.05, 0.9)) * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0]
    return (scales[0] * _orthonormal_rows(rng, d_h, d_x), U,
            scales[1] * _orthonormal_rows(rng, d_h, d_y))


@settings(max_examples=60)
@given(_linear_models())
def test_recover_linear_realizes_exact_blocks(model):
    """From the exact S1-matrix blocks at lags 0 and 1 alone, the
    realization gives back C_0..C_2 and eig(U) to 1e-10: the invariants of
    the similarity the blocks leave free."""
    A1, U, A2 = model
    params = RnnParams(A1=A1, U=U, A2=A2, l=1)
    C0, C1 = (population_moment_oracle(params, "S1-matrix", shift=-j) for j in (0, 1))
    est = recover_linear(C0, C1, U.shape[0])
    assert est.A1.shape == A1.shape and est.A2.shape == A2.shape
    for got, want in zip(_markov(est.A1, est.U, est.A2), _markov(A1, U, A2)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(C0)
    assert _eig_gap(est.U, U) <= 1e-10


@pytest.mark.parametrize("C0,d_h,rank", [
    (np.diag([2.0, 1e-14]), 2, 1),      # below the 1e-10 relative cut
    (np.diag([2.0, 0.0]), 2, 1),
    (np.zeros((3, 4)), 1, 0),
    (np.ones((2, 3)), 2, 1),
], ids=["below-cut", "zero-singular-value", "zero", "rank-one"])
def test_recover_linear_rank_deficient_c0_is_an_assumption_error(C0, d_h, rank):
    """A C0 of rank below d_h at the 1e-10 relative cut cannot be realized
    with d_h units: it fails loudly at its stage instead of dividing by a
    singular value pinv would have dropped."""
    with pytest.raises(AssumptionError, match=f"^realization: C0 rank {rank} of {d_h}$") as info:
        recover_linear(C0, C0, d_h)
    assert info.value.stage == "realization"


def test_recover_linear_non_finite_blocks_are_a_linalg_error():
    """A NaN block makes the realization's SVD fail, which the CLI
    reports as a numerical failure (exit 3)."""
    C0 = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        recover_linear(C0, C0, 1)


def test_train_quadratic_from_data():
    params = _quad_model(seed=10, d_x=4, d_h=2, d_y=3, u_scale=0.25)
    spec = bounded_input_spec(4, 0.5, seed=11)
    x = sample_markov_chain(spec, 200000, seed=12)
    data = rnn_forward(params, x)
    est = train_quadratic(data, spec, 2, seed=0)
    rep = align(est.A1, params.A1, est.A2, params.A2)
    assert rep.max_error < 0.2


def test_train_scalar_from_data():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 3))
    a /= np.linalg.norm(a)
    params = RnnParams(A1=a, U=np.zeros((1, 1)), A2=[[0.8]], l=3)
    spec = bounded_input_spec(3, 0.5, seed=0)
    x = sample_markov_chain(spec, 200000, seed=15)
    data = rnn_forward(params, x)
    est = train_scalar(data, spec, 1)
    cos = (est.A1 @ a.T)[0, 0] / np.linalg.norm(est.A1)
    assert 1.0 - abs(cos) < 1e-2
    with pytest.raises(ValueError, match=r"^train_scalar fits cubic units \(l = 3\), got 2$"):
        train_scalar(data, spec, 1, l=2)


def test_train_linear_from_data():
    params = RnnParams(A1=[[0.5]], U=[[0.5]], A2=[[1.0]], l=1)
    spec = bounded_input_spec(1, 0.4, seed=16)
    x = sample_markov_chain(spec, 100000, seed=17)
    data = rnn_forward(params, x)
    est = train_linear(data, spec, 1)
    assert abs(est.U[0, 0] - 0.5) < 0.05
    # A1 and A2 are fixed only up to a scale; their product is C0 = 0.5
    assert abs(est.A2[0, 0] * est.A1[0, 0] - 0.5) < 0.025


def test_train_linear_eig_error_over_twenty_chains():
    """The CLI's linear model (d_x=6, d_h=3, d_y=4, u_scale 0.6) at n=1e5,
    through the shared fit path: over seeds 0-19 u_eig_error read
    0.0013-0.0092 and markov_error 0.0093-0.0158, here bounded at twice the
    worst chain, and the median u_eig_error (0.0034) at 0.005."""
    config = from_items({"model.d_x": "6", "model.d_h": "3", "model.d_y": "4",
                         "model.l": "1", "model.u_scale": "0.6", "estimation.n": "100000"})
    reports = [cli._report(*cli._fit(config, seed, "train-linear", "linear"), 1)[1]
               for seed in range(20)]
    eig = [r["u_eig_error"] for r in reports]
    assert max(eig) < 0.02 and np.median(eig) < 0.005
    assert max(r["markov_error"] for r in reports) < 0.035


def test_recurrence_sign_freedom_is_reported():
    """recover_quadratic fixes an arbitrary sign per recurrence row;
    alignment compares entrywise magnitudes."""
    params = _quad_model(seed=18, d_h=2, d_x=4, d_y=3)
    T2 = population_moment_oracle(params, "S2-order3")
    T4 = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    est = recover_quadratic(T2, 2, T4=T4, seed=0)
    rep = align(est.A1, params.A1, U_est=est.U, U_true=params.U)
    assert rep.u_error < 1e-9


# the package exports the function score, which hides the module attribute
score_module = importlib.import_module("spectral_rnn.score")


def _count_calls(monkeypatch, name, fn, modules):
    """Replace fn at every module attribute the library reaches it through."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("family", ["quadratic", "brnn"])
def test_train_computes_scores_and_stage1_once(monkeypatch, family):
    spec = bounded_input_spec(4, 0.5, seed=19)
    x = sample_markov_chain(spec, 20000, seed=20)
    if family == "quadratic":
        data = rnn_forward(_quad_model(seed=21, d_x=4, d_h=2, d_y=3), x)
        train = train_quadratic
    else:
        rng = np.random.default_rng(22)
        params = BrnnParams(A1=np.linalg.qr(rng.standard_normal((4, 1)))[0].T,
                            B1=np.linalg.qr(rng.standard_normal((4, 1)))[0].T,
                            U=[[0.3]], V=[[0.2]], A2=rng.standard_normal((2, 3)), l=2)
        data = brnn_forward(params, x)
        train = train_brnn
    scores = _count_calls(monkeypatch, "centered_scores", score_module.centered_scores,
                          (score_module, moments))
    decomps = _count_calls(monkeypatch, "decompose", cp_decomp.decompose,
                           (cp_decomp, recovery))
    train(data, spec, 1 if family == "brnn" else 2, seed=3)
    assert len(scores) == 1
    assert len(decomps) == 1


def test_train_linear_computes_scores_once(monkeypatch):
    params = RnnParams(A1=[[0.5]], U=[[0.5]], A2=[[1.0]], l=1)
    spec = bounded_input_spec(1, 0.4, seed=23)
    data = rnn_forward(params, sample_markov_chain(spec, 5000, seed=24))
    scores = _count_calls(monkeypatch, "centered_scores", score_module.centered_scores,
                          (score_module, moments))
    train_linear(data, spec, 1)
    assert len(scores) == 1


def _row_basis(rows):
    """Orthonormal basis (rows) of the span of the given rows, as the data
    pipelines take it."""
    return np.linalg.qr(rows.T)[0].T


def _unit_moment_by_hand(spec, data, C, A2, shifts, burn_in=10):
    """The training path's moment assembled by hand: the unit outputs
    Z = pinv(A2^T) y - (C x)^2 in the basis of the rows C, with no baseline.
    (basis, one k-row block per shift)."""
    basis = _row_basis(C)
    Z = np.linalg.pinv(A2.T, rcond=1e-10) @ data.y - (C @ data.x) ** 2
    Q = cross_moment_s4_reshaped(spec, SequenceData(x=data.x, y=Z), shift=shifts,
                                 burn_in=burn_in, basis=basis).value
    return basis, np.split(Q, len(shifts))


def _mixed_moment_by_hand(spec, data, C, A2, shifts, burn_in=10, basis=None):
    """The mixed moment of the outputs minus the baseline A2^T (C x)^2 of
    stage-1 rows C, one d_y-row block per shift."""
    minus = SequenceData(x=data.x, y=data.y - A2.T @ (C @ data.x) ** 2)
    T4 = cross_moment_s4_reshaped(spec, minus, shift=shifts, burn_in=burn_in,
                                  basis=basis).value
    return np.split(T4, len(shifts))


def test_train_quadratic_equals_recover_quadratic_bitwise():
    """Reusing the stage-1 decomposition leaves the estimate bit for bit
    equal to recovering from the same moments by hand: stage 1 from T2 with a
    fresh decomposition, then the recurrence from the unit-output moment in
    the coordinates of a basis of the stage-1 input rows."""
    params = _quad_model(seed=23, d_x=4, d_h=2, d_y=3)
    spec = bounded_input_spec(4, 0.5, seed=24)
    data = rnn_forward(params, sample_markov_chain(spec, 30000, seed=25))
    seed = 4
    est = train_quadratic(data, spec, 2, seed=seed)
    T2 = cross_moment_s2(spec, data).value
    first = recover_quadratic(T2, 2, seed=seed)
    basis, [Q] = _unit_moment_by_hand(spec, data, first.A1, first.A2, (-1,))
    assert Q.shape == (2, 4, 4)
    U = recovery._recurrence_rows(Q, first.A1, range(2), basis)
    for name, ref in (("A1", first.A1), ("A2", first.A2), ("U", U)):
        assert np.array_equal(getattr(est, name), ref), name


def test_train_brnn_equals_recover_brnn_bitwise():
    """train_brnn recovers from the moments one would assemble by hand: T2,
    then the unit-output moment of both shifts in the coordinates of a basis
    of all four stage-1 input rows, split and fit by the shared tail."""
    rng = np.random.default_rng(29)
    params = BrnnParams(A1=np.linalg.qr(rng.standard_normal((4, 2)))[0].T,
                        B1=np.linalg.qr(rng.standard_normal((4, 2)))[0].T,
                        U=0.25 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                        V=0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                        A2=rng.standard_normal((4, 5)), l=2)
    spec = bounded_input_spec(4, 0.5, seed=30)
    data = brnn_forward(params, sample_markov_chain(spec, 30000, seed=31))
    seed = 6
    est = train_brnn(data, spec, 2, seed=seed)
    T2 = cross_moment_s2(spec, data).value
    first = recover_brnn(T2, 2, seed=seed)  # no shifts: stage-1 (weight) order
    C = np.vstack([first.A1, first.B1])
    (basis, [Qb]), (_, [Qf]) = (_unit_moment_by_hand(spec, data, C, first.A2, (shift,))
                                for shift in (-1, +1))
    ref = recovery._split_brnn(C, first.A2, Qb, Qf, basis)
    for name in ("A1", "B1", "A2", "U", "V"):
        assert np.array_equal(getattr(est, name), getattr(ref, name)), name


def test_quadratic_moments_match_train_quadratic_bitwise():
    """quadratic_moments is the front half of train_quadratic: T2, the
    stage-1 estimate read off decompose(T2, k, seed), and the unit-output
    moment at shift -1 in the basis of the stage-1 input rows, each equal
    bit for bit to the same step taken by hand; fitting the rows on them
    gives train's U."""
    params = _quad_model(seed=26, d_x=4, d_h=2, d_y=3)
    spec = bounded_input_spec(4, 0.5, seed=27)
    data = rnn_forward(params, sample_markov_chain(spec, 20000, seed=28))
    T2, first, basis, Q = quadratic_moments(data, spec, 2, seed=5)
    assert np.array_equal(T2, cross_moment_s2(spec, data).value)
    cp = cp_decomp.decompose(T2, 2, 5)
    assert first.U is None
    assert np.array_equal(first.A1, cp.factor.T)
    assert np.array_equal(first.A2, (cp.mode1 * (cp.weights / 2.0)).T)
    by_hand, [Q_ref] = _unit_moment_by_hand(spec, data, first.A1, first.A2, (-1,))
    assert Q.shape == (2, 4, 4)
    assert np.array_equal(basis, by_hand) and np.array_equal(Q, Q_ref)
    est = train_quadratic(data, spec, 2, seed=5)
    U = recovery._recurrence_rows(Q, first.A1, range(2), basis)
    for name, ref in (("A1", first.A1), ("A2", first.A2), ("U", U)):
        assert np.array_equal(getattr(est, name), ref), name


def _brnn_model(seed, d_x=4, d_y=5):
    rng = np.random.default_rng(seed)
    return BrnnParams(A1=np.linalg.qr(rng.standard_normal((d_x, 2)))[0].T,
                      B1=np.linalg.qr(rng.standard_normal((d_x, 2)))[0].T,
                      U=0.25 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                      V=0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                      A2=rng.standard_normal((4, d_y)), l=2)


def _assert_rel_close(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def test_train_recurrence_in_span_matches_full_moment():
    """The fit in the stage-1 span gives the recurrence that the same fit
    gives from the full d_x-coordinate moment, up to rounding."""
    params = _quad_model(seed=32, d_x=6, d_h=3, d_y=4)
    spec = bounded_input_spec(6, 0.5, seed=33)
    data = rnn_forward(params, sample_markov_chain(spec, 30000, seed=34))
    est = train_quadratic(data, spec, 3, seed=7)
    T2, first, _, _ = quadratic_moments(data, spec, 3, seed=7)
    [T4] = _mixed_moment_by_hand(spec, data, first.A1, first.A2, (-1,))
    assert T4.shape == (4, 36, 36)
    ref = recover_quadratic(T2, 3, T4=T4, seed=7)
    assert np.array_equal(est.A1, ref.A1) and np.array_equal(est.A2, ref.A2)
    _assert_rel_close(est.U, ref.U)

    bparams = _brnn_model(35, d_x=6)
    data = brnn_forward(bparams, sample_markov_chain(spec, 30000, seed=36))
    est = train_brnn(data, spec, 2, seed=8)
    _, T2 = recovery._second_moment(data, spec, 10)
    first = recover_brnn(T2, 2, seed=8)
    T4b, T4f = _mixed_moment_by_hand(spec, data, np.vstack([first.A1, first.B1]),
                                     first.A2, (-1, 1))
    assert T4b.shape == (5, 36, 36)
    ref = recover_brnn(T2, 2, T4_back=T4b, T4_fwd=T4f, seed=8)
    for name in ("A1", "B1", "A2"):
        assert np.array_equal(getattr(est, name), getattr(ref, name)), name
    _assert_rel_close(est.U, ref.U)
    _assert_rel_close(est.V, ref.V)


@pytest.mark.parametrize("family", ["quadratic", "brnn"])
def test_training_path_takes_moment_in_span(monkeypatch, family):
    """train_* ask cross_moment_s4_reshaped, once, for
    the k-dimensional moment of the k unit outputs, k x k^2 x k^2 with k the
    number of stage-1 rows, never d_y rows or d_x^4 columns; the BRNN asks
    for both shifts in one call, stacked along the output."""
    spec = bounded_input_spec(6, 0.5, seed=37)
    x = sample_markov_chain(spec, 20000, seed=38)
    if family == "quadratic":
        data, k, shift = rnn_forward(_quad_model(seed=39, d_x=6, d_h=2, d_y=3), x), 2, -1
    else:
        data, k, shift = brnn_forward(_brnn_model(40, d_x=6), x), 4, (-1, 1)
    shapes = []

    def wrapped(*args, **kwargs):
        result = cross_moment_s4_reshaped(*args, **kwargs)
        shapes.append((kwargs["shift"], result.value.shape))
        return result

    monkeypatch.setattr(moments, "cross_moment_s4_reshaped", wrapped)
    (train_quadratic if family == "quadratic" else train_brnn)(data, spec, 2, seed=1)
    rows = np.size(shift) * k
    assert shapes == [(shift, (rows, k * k, k * k))]


def _brnn_observed_model():
    """The bidirectional model of the brnn_observed benchmark workload."""
    spec = bounded_input_spec(d_x=6, w_scale=0.5, seed=1)
    rng = np.random.default_rng(7)
    params = BrnnParams(A1=np.linalg.qr(rng.standard_normal((6, 2)))[0].T,
                        B1=np.linalg.qr(rng.standard_normal((6, 2)))[0].T,
                        U=0.25 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                        V=0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                        A2=rng.standard_normal((4, 6)), l=2)
    return spec, params


def test_brnn_split_in_span_pins_a_swapped_dataset():
    """Chain seed 212 of the brnn_observed model at n=1e5: with one random
    slice pencil in stage 1, the block norms of the full d_x-coordinate
    moments split the units wrongly (per-direction A1/B1 errors 0.97/0.54)
    while their norms in the span of the stage-1 rows split them correctly.
    With the lowest-residual pencil both split it correctly, and no other
    witness of a full-coordinate misplit was found (chain seeds 200-399 at
    n=3e4, 200-299 at n=1e5)."""
    spec, params = _brnn_observed_model()
    data = brnn_forward(params, sample_markov_chain(spec, 100_000, 212))
    est = train_brnn(data, spec, 2, seed=212)
    assert align(est.A1, params.A1).max_error < 0.25
    assert align(est.B1, params.B1).max_error < 0.35
    _, T2 = recovery._second_moment(data, spec, 10)
    first = recover_brnn(T2, 2, seed=212)
    T4b, T4f = _mixed_moment_by_hand(spec, data, np.vstack([first.A1, first.B1]),
                                     first.A2, (-1, 1))
    full = recover_brnn(T2, 2, T4_back=T4b, T4_fwd=T4f, seed=212)
    assert align(full.A1, params.A1).max_error < 0.25


@pytest.mark.parametrize("chain_seed", [200, 201])
def test_stage1_reads_the_brnn_observed_datasets(chain_seed):
    """Benchmark seed 100's two brnn_observed datasets (n=3e5): their T2 is
    within about 2% of the population T2, yet one random slice pencil read
    a stage-1 error of 0.886 on the stacked rows [A1; B1] of chain 200."""
    spec, params = _brnn_observed_model()
    data = brnn_forward(params, sample_markov_chain(spec, 300_000, chain_seed))
    T2 = cross_moment_s2(spec, data, burn_in=10).value
    C, _, _ = recovery._stage1_factors(T2, 4, chain_seed)
    assert align(C, np.vstack([params.A1, params.B1])).max_error <= 0.1


def test_train_quadratic_reads_quad_e2e_chain_14():
    """Chain 14 of the quad_e2e benchmark model at n=1e5, which one random
    slice pencil in stage 1 read at a max A1/A2 row error of 0.507."""
    spec = bounded_input_spec(d_x=6, w_scale=0.5, seed=2)
    rng = np.random.default_rng(4)
    A1 = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    U = 0.3 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
    A2 = np.linalg.qr(rng.standard_normal((4, 3)))[0].T * np.array([[1.5], [1.2], [1.0]])
    params = RnnParams(A1=A1, U=U, A2=A2, l=2)
    data = rnn_forward(params, sample_markov_chain(spec, 100_000, 14))
    est = train_quadratic(data, spec, 3, seed=14)
    rep = align(est.A1, A1, est.A2, A2)
    assert max(rep.per_row_errors["A1"].max(), rep.per_row_errors["A2"].max()) < 0.1


def _mixed_assembly(data, spec, d_h, brnn, burn_in, seed):
    """The estimate of the mixed assembly: stage 1 from T2, then the d_y-row
    moment of the outputs minus the baseline A2^T (C x)^2 in the basis of the
    stage-1 rows, unmixed (_unit_blocks) and fit by the fits recover_* run
    (_recurrence_rows, or _split_brnn), in that basis."""
    T2 = cross_moment_s2(spec, data, burn_in=burn_in).value
    if not brnn:
        est = recover_quadratic(T2, d_h, seed=seed)
        basis = _row_basis(est.A1)
        [T4] = _mixed_moment_by_hand(spec, data, est.A1, est.A2, (-1,), burn_in, basis)
        est.U = recovery._recurrence_rows(recovery._unit_blocks(T4, est.A2), est.A1,
                                          range(d_h), basis)
        return est
    first = recover_brnn(T2, d_h, seed=seed)
    C = np.vstack([first.A1, first.B1])
    basis = _row_basis(C)
    T4b, T4f = _mixed_moment_by_hand(spec, data, C, first.A2, (-1, 1), burn_in, basis)
    return recovery._split_brnn(C, first.A2, recovery._unit_blocks(T4b, first.A2),
                                recovery._unit_blocks(T4f, first.A2), basis)


@settings(max_examples=12)
@given(st.booleans().flatmap(lambda brnn: st.tuples(st.just(brnn), _oracle_models(brnn))),
       st.integers(0, 6), st.sampled_from([-1, 1, (-1, 1)]), st.integers(0, 2 ** 16))
def test_unit_output_moment_equals_unmixed_mixed_moment(model, burn_in, shift, seed):
    """The identity the training path rests on: for A2 of full row rank,
    pinv(A2^T) A2^T = I, so the moment of the unit outputs
    Z = pinv(A2^T) y - (C x)^2 is the unmixed moment of y - A2^T (C x)^2.
    Checked on short simulated data of random small models, with the true
    rows; then train_* give the estimate of the mixed assembly, with the
    same stage 1 and split and the recurrence up to rounding."""
    brnn, params = model
    spec = bounded_input_spec(params.d_x, 0.5, seed=seed)
    x = sample_markov_chain(spec, 3000, seed=seed + 1)
    data = brnn_forward(params, x) if brnn else rnn_forward(params, x)
    C = np.vstack([params.A1, params.B1]) if brnn else params.A1
    shifts = tuple(np.atleast_1d(shift).tolist())
    basis, Q = recovery._moments(data, spec, C, params.A2, shift, burn_in,
                                 score_module.centered_scores(spec, x))
    mixed = _mixed_moment_by_hand(spec, data, C, params.A2, shifts, burn_in, basis)
    assert list(Q) == list(shifts)
    for sh, T4 in zip(shifts, mixed):
        assert Q[sh].shape == (C.shape[0],) + T4.shape[1:]
        _assert_rel_close(Q[sh], recovery._unit_blocks(T4, params.A2))

    train = train_brnn if brnn else train_quadratic
    try:
        ref = _mixed_assembly(data, spec, params.d_h, brnn, burn_in, seed)
    except AssumptionError as err:
        with pytest.raises(AssumptionError) as got:
            train(data, spec, params.d_h, burn_in=burn_in, seed=seed)
        assert (got.value.stage, str(got.value)) == (err.stage, str(err))
        return
    est = train(data, spec, params.d_h, burn_in=burn_in, seed=seed)
    for name in ("A1", "B1", "A2") if brnn else ("A1", "A2"):
        assert np.array_equal(getattr(est, name), getattr(ref, name)), name
    for name in ("U", "V") if brnn else ("U",):
        _assert_rel_close(getattr(est, name), getattr(ref, name), 1e-10)


def test_brnn_split_unchanged_by_the_unit_output_moment():
    """On the brnn_observed model at n=3e4, chain seeds 200-219, train_brnn
    splits the units exactly as the mixed assembly does: A1 and B1 equal bit
    for bit."""
    spec, params = _brnn_observed_model()
    for chain_seed in range(200, 220):
        data = brnn_forward(params, sample_markov_chain(spec, 30_000, chain_seed))
        est = train_brnn(data, spec, 2, seed=chain_seed)
        ref = _mixed_assembly(data, spec, 2, True, 10, chain_seed)
        assert np.array_equal(est.A1, ref.A1), chain_seed
        assert np.array_equal(est.B1, ref.B1), chain_seed


def _unit_output_case(rng, k, d_x, n):
    data = SequenceData(x=rng.standard_normal((d_x, n)), y=rng.standard_normal((k + 1, n)))
    return data, rng.standard_normal((k, d_x)), rng.standard_normal((k, k + 1))


# n on both sides of the block grid: whole blocks, a last block of 1-3, 7 and
# 63 columns (folded into the block before it) and of 64 (a block of its own)
_GRID_LENGTHS = [4096 * m + r for m in range(4) for r in (0, 1, 2, 3, 7, 63, 64) if 4096 * m + r >= 3]


@pytest.mark.parametrize("k", range(1, 8))
def test_unit_outputs_keep_the_one_product_bits(k):
    """(C x)^2 formed on the block grid gives Z the bits of C x as one
    product, for k <= 7 unit rows and d_x <= 12."""
    rng = np.random.default_rng(k)
    for d_x in range(1, 13):
        for n in _GRID_LENGTHS:
            data, C, A2 = _unit_output_case(rng, k, d_x, n)
            want = data_path_reference.unit_outputs(data, C, A2)
            assert recovery._unit_outputs(data, C, A2).tobytes() == want.tobytes(), (d_x, n)


@pytest.mark.parametrize("k", [6, 8, 12, 16])
def test_unit_outputs_differ_from_one_product_only_in_the_kernel_tail(k):
    """At d_x = 16, and at k >= 12 from d_x = 4, a block's product can round
    the last n mod 16 columns differently from one product over all n (the
    BLAS kernel computes those in a tail of its 16-column tiles; k=8, d_x=16,
    n=8193 is one such case on the 2-core AVX-512 host this was measured
    on).  Every other column keeps its bits, and the tail agrees within the
    rounding bound of a d_x-term dot product, squared, and a subtraction."""
    rng = np.random.default_rng(50 + k)
    for d_x in (4, 16):
        for n in (8193, 8194, 12291, 12303, 40963):
            data, C, A2 = _unit_output_case(rng, k, d_x, n)
            got = recovery._unit_outputs(data, C, A2)
            want = data_path_reference.unit_outputs(data, C, A2)
            body = n - n % 16
            assert got[:, :body].tobytes() == want[:, :body].tobytes(), (d_x, n)
            eps, cx = np.finfo(float).eps, C @ data.x
            bound = (2 * d_x * eps * np.abs(cx) * (np.abs(C) @ np.abs(data.x))
                     + 2 * eps * np.abs(want))
            assert np.all(np.abs(got - want) <= bound), (d_x, n)


def test_unit_output_moment_holds_no_second_k_by_n_array():
    """_moments holds Z and block-sized scratch, not C x or (C x)^2 as a
    second k x n array: at n = 4e5 and k = 4 its peak stays below Z plus
    4 MiB (the moment kernel's scratch is under 2 MiB)."""
    n, d_x, k = 400_000, 6, 4
    spec = bounded_input_spec(d_x, 0.5, seed=60)
    x = sample_markov_chain(spec, n, seed=61)
    rng = np.random.default_rng(62)
    data = SequenceData(x=x, y=rng.standard_normal((k + 1, n)))
    C = np.linalg.qr(rng.standard_normal((d_x, k)))[0].T
    A2 = rng.standard_normal((k, k + 1))
    scores = centered_scores(spec, x)
    tracemalloc.start()
    try:
        recovery._moments(data, spec, C, A2, (-1, 1), 10, scores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * n * 8 + (4 << 20)
