"""Cross-moment estimators against closed-form and derivative-based oracles."""

import itertools
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from score_reference import score_from_local
from spectral_rnn import moments
from spectral_rnn.moments import (_MOMENT_BLOCK, DEFAULT_BURN_IN, _moment_means,
                                  cross_moment, cross_moment_s2,
                                  cross_moment_s4_reshaped,
                                  population_moment_oracle)
from spectral_rnn.score import centered_scores, precision_matrix
from spectral_rnn.sequence_models import (BrnnParams, RnnParams, SequenceData,
                                          bounded_input_spec, brnn_forward,
                                          rnn_forward, sample_markov_chain)


def _quad_params(seed=0, d_x=4, d_h=2, d_y=3, u_scale=0.3):
    rng = np.random.default_rng(seed)
    A1 = np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T
    U = u_scale * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0]
    A2 = rng.standard_normal((d_h, d_y))
    return RnnParams(A1=A1, U=U, A2=A2, l=2)


def test_oracle_s2_matches_output_hessian():
    """2 sum_k A2[k] (x) a_k (x) a_k equals the Hessian of y_t in x_t,
    measured by finite differences on the actual forward map (exact for a
    quadratic, up to rounding)."""
    params = _quad_params()
    oracle = population_moment_oracle(params, "S2-order3")
    x = sample_markov_chain(bounded_input_spec(4, 0.5, seed=1), 30, seed=2)
    t = 20
    h = 0.5
    d_x, d_y = params.d_x, params.d_y
    hess = np.zeros((d_y, d_x, d_x))
    for i in range(d_x):
        for j in range(d_x):
            acc = np.zeros(d_y)
            for si in (+1, -1):
                for sj in (+1, -1):
                    xp = x.copy()
                    xp[i, t] += si * h
                    xp[j, t] += sj * h
                    acc += si * sj * rnn_forward(params, xp).y[:, t]
            hess[:, i, j] = acc / (4 * h * h)
    assert np.allclose(hess, oracle, atol=1e-9)


def test_oracle_s4_matches_lagged_fourth_derivative():
    """The reshaped fourth-order oracle equals the fourth derivative of y_t
    in x_{t-1}, by finite differences (exact for a quartic polynomial)."""
    params = _quad_params(seed=3, d_x=2, d_h=2, d_y=2)
    oracle = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    x = sample_markov_chain(bounded_input_spec(2, 0.5, seed=4), 12, seed=5)
    t, lag = 8, 7
    step = 0.5
    d_x, d_y = 2, params.d_y
    D4 = np.zeros((d_y, d_x, d_x, d_x, d_x))
    for idx in np.ndindex(d_x, d_x, d_x, d_x):
        acc = np.zeros(d_y)
        for signs in np.ndindex(2, 2, 2, 2):
            xp = x.copy()
            w = 1.0
            for mode, sbit in zip(idx, signs):
                s = 1.0 if sbit == 0 else -1.0
                xp[mode, lag] += s * step
                w *= s
            acc += w * rnn_forward(params, xp).y[:, t]
        D4[(slice(None),) + idx] = acc / (2 * step) ** 4
    # the fourth derivative only involves the immediately preceding step when
    # the lag is t-1; deeper dependence is through lower degrees only
    assert np.allclose(D4.reshape(d_y, d_x * d_x, d_x * d_x), oracle,
                       atol=1e-8)


def test_oracle_s3_matches_third_derivative():
    rng = np.random.default_rng(6)
    A1 = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    A2 = rng.standard_normal((2, 2))
    params = RnnParams(A1=A1, U=np.zeros((2, 2)), A2=A2, l=3)
    oracle = population_moment_oracle(params, "S3-order4")
    x = sample_markov_chain(bounded_input_spec(3, 0.5, seed=7), 10, seed=8)
    t, step = 5, 0.5
    D3 = np.zeros((2, 3, 3, 3))
    for idx in np.ndindex(3, 3, 3):
        acc = np.zeros(2)
        for signs in np.ndindex(2, 2, 2):
            xp = x.copy()
            w = 1.0
            for mode, sbit in zip(idx, signs):
                s = 1.0 if sbit == 0 else -1.0
                xp[mode, t] += s * step / 2
                w *= s
            acc += w * rnn_forward(params, xp).y[:, t]
        D3[(slice(None),) + idx] = acc / step ** 3
    assert np.allclose(D3, oracle, atol=1e-8)


def test_empirical_s2_matches_oracle():
    params = _quad_params(seed=9, u_scale=0.0)
    spec = bounded_input_spec(4, 0.5, seed=10)
    x = sample_markov_chain(spec, 120000, seed=11)
    data = rnn_forward(params, x)
    m = cross_moment_s2(spec, data)
    oracle = population_moment_oracle(params, "S2-order3")
    rel = np.linalg.norm(m.value - oracle) / np.linalg.norm(oracle)
    assert rel < 0.05
    assert m.value.shape == (3, 4, 4)
    assert m.n_used <= data.n


def test_empirical_s2_scalar_value_two():
    """d = 1 quadratic with unit weights: the moment value is exactly 2."""
    params = RnnParams(A1=[[1.0]], U=[[0.0]], A2=[[1.0]], l=2)
    spec = bounded_input_spec(1, 0.5, seed=12)
    x = sample_markov_chain(spec, 200000, seed=13)
    data = rnn_forward(params, x)
    m = cross_moment_s2(spec, data)
    assert np.allclose(population_moment_oracle(params, "S2-order3"), [[[2.0]]])
    assert abs(m.value[0, 0, 0] - 2.0) < 0.1


def test_empirical_s4_matches_oracle():
    params = _quad_params(seed=14, d_x=2, d_h=1, d_y=1, u_scale=0.3)
    spec = bounded_input_spec(2, 0.5, seed=15)
    x = sample_markov_chain(spec, 300000, seed=16)
    data = rnn_forward(params, x)
    m = cross_moment_s4_reshaped(spec, data, shift=-1)
    oracle = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    rel = np.linalg.norm(m.value - oracle) / np.linalg.norm(oracle)
    assert rel < 0.8  # high-variance statistic; recovery projects it down
    assert m.value.shape == (1, 4, 4)


def test_s4_noise_floor_decays_with_n():
    """With no recurrence the lagged fourth-order moment is exactly zero, so
    the estimate is pure noise and should shrink roughly like 1/sqrt(n)."""
    params = _quad_params(seed=30, d_x=2, d_h=1, d_y=1, u_scale=0.0)
    spec = bounded_input_spec(2, 0.5, seed=31)
    norms = []
    for n in (50000, 400000):
        x = sample_markov_chain(spec, n, seed=32)
        data = rnn_forward(params, x)
        m = cross_moment_s4_reshaped(spec, data, shift=-1)
        norms.append(np.linalg.norm(m.value))
    assert norms[1] < norms[0] / 1.5


def test_empirical_s3_matches_oracle():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((1, 3))
    a /= np.linalg.norm(a)
    params = RnnParams(A1=a, U=np.zeros((1, 1)), A2=[[0.7]], l=3)
    spec = bounded_input_spec(3, 0.5, seed=18)
    x = sample_markov_chain(spec, 200000, seed=19)
    data = rnn_forward(params, x)
    m = cross_moment(spec, data, 3)
    oracle = population_moment_oracle(params, "S3-order4")[0]
    rel = np.linalg.norm(m.value[0] - oracle) / np.linalg.norm(oracle)
    assert rel < 0.2


def test_brnn_oracle_uses_both_directions():
    rng = np.random.default_rng(20)
    A1 = np.linalg.qr(rng.standard_normal((3, 1)))[0].T
    B1 = np.linalg.qr(rng.standard_normal((3, 1)))[0].T
    A2 = rng.standard_normal((2, 2))
    params = BrnnParams(A1=A1, B1=B1, U=np.zeros((1, 1)), V=np.zeros((1, 1)),
                        A2=A2, l=2)
    oracle = population_moment_oracle(params, "S2-order3")
    want = 2.0 * (np.einsum("a,i,j->aij", A2[0], A1[0], A1[0])
                  + np.einsum("a,i,j->aij", A2[1], B1[0], B1[0]))
    assert np.allclose(oracle, want)


def test_s1_oracle_is_the_lag_powers():
    """Linear scalar model A2 = 1, A1 = 0.5, U = 0.5: blocks 0.5, 0.25, 0.125."""
    params = RnnParams(A1=[[0.5]], U=[[0.5]], A2=[[1.0]], l=1)
    got = [population_moment_oracle(params, "S1-matrix", shift=-k)[0, 0]
           for k in range(3)]
    assert np.allclose(got, [0.5, 0.25, 0.125])


def test_lagged_s1_moments_empirical():
    params = RnnParams(A1=[[0.5]], U=[[0.5]], A2=[[1.0]], l=1)
    spec = bounded_input_spec(1, 0.4, seed=21)
    x = sample_markov_chain(spec, 150000, seed=22)
    data = rnn_forward(params, x)
    lags = cross_moment(spec, data, 1, shift=(0, -1, -2))
    assert lags.value.shape == (3, 1)
    for k, want in enumerate([0.5, 0.25, 0.125]):
        assert abs(lags.value[k, 0] - want) < 0.05
        # one pass shared by the lags gives each lag's own bits
        assert np.array_equal(lags.value[k:k + 1], cross_moment(spec, data, 1, shift=-k).value)


def test_baseline_subtraction_changes_nothing_in_expectation():
    """Subtracting a function of x_t only must leave the lagged fourth-order
    moment consistent (checked against the population oracle)."""
    params = _quad_params(seed=23, d_x=2, d_h=1, d_y=1, u_scale=0.3)
    spec = bounded_input_spec(2, 0.5, seed=24)
    x = sample_markov_chain(spec, 300000, seed=25)
    data = rnn_forward(params, x)
    baseline = params.A2.T @ (params.A1 @ x) ** 2
    m = cross_moment_s4_reshaped(spec, _minus(data, baseline), shift=-1)
    oracle = population_moment_oracle(params, "S4-reshaped-order3", shift=-1)
    rel = np.linalg.norm(m.value - oracle) / np.linalg.norm(oracle)
    assert rel < 0.8


def test_s3_oracle_rejects_a_quartic_unit():
    """The third-order moment of a quartic unit a^(x)4 is 24 E[a.x] a^(x)3 = 0,
    not 6 a^(x)3: the oracle reads cubic units only."""
    quartic = RnnParams(A1=[[1.0, 0.0]], U=[[0.0]], A2=[[1.0]], l=4)
    with pytest.raises(ValueError, match="cubic"):
        population_moment_oracle(quartic, "S3-order4")
    with pytest.raises(ValueError, match="unknown moment kind"):
        population_moment_oracle(quartic, "S3-order4-scalar")


def test_oracle_rejects_unknown_kind():
    params = _quad_params()
    with pytest.raises(ValueError):
        population_moment_oracle(params, "S9")
    with pytest.raises(ValueError):
        population_moment_oracle(params, "S4-reshaped-order3", shift=0)


# Reference formulas for the moment kernel: direct einsum and full
# d^2-column Gram expressions, averaged over the same aligned positions.

def _minus(data, baseline):
    """The same inputs with baseline subtracted from the outputs."""
    return SequenceData(x=data.x, y=data.y - baseline)


def _ref_aligned(spec, data, shift):
    n = data.n
    idx = np.arange(max(1, 1 - shift) + DEFAULT_BURN_IN, min(n - 2, n - 2 - shift) + 1)
    Y = data.y[:, idx]
    Y = Y - Y.mean(axis=1, keepdims=True)
    return Y, centered_scores(spec, data.x)[:, idx + shift]


def _ref_s2(spec, data):
    Y, S = _ref_aligned(spec, data, 0)
    return np.einsum("at,it,jt->aij", Y, S, S) / Y.shape[1]


def _ref_s3(spec, data):
    Y, S = _ref_aligned(spec, data, 0)
    N = Y.shape[1]
    Lam = precision_matrix(spec)
    val = np.einsum("at,it,jt,kt->aijk", Y, S, S, S) / N
    ys = Y @ S.T / N
    return val - (np.einsum("ai,jk->aijk", ys, Lam)
                  + np.einsum("aj,ik->aijk", ys, Lam)
                  + np.einsum("ak,ij->aijk", ys, Lam))


def _ref_s4(spec, data, shift):
    Y, S = _ref_aligned(spec, data, shift)
    d_y, N = Y.shape
    d = S.shape[0]
    K = (S[:, None, :] * S[None, :, :]).reshape(d * d, N)
    gram = np.stack([(K * Y[a]) @ K.T for a in range(d_y)]) / N
    M = np.einsum("at,it,jt->aij", Y, S, S) / N
    Lam = precision_matrix(spec)
    T = gram.reshape(d_y, d, d, d, d)
    T -= (np.einsum("aij,kl->aijkl", M, Lam)
          + np.einsum("aik,jl->aijkl", M, Lam)
          + np.einsum("ail,jk->aijkl", M, Lam)
          + np.einsum("ajk,il->aijkl", M, Lam)
          + np.einsum("ajl,ik->aijkl", M, Lam)
          + np.einsum("akl,ij->aijkl", M, Lam))
    return T.reshape(d_y, d * d, d * d)


def _kernel_case(d_x, d_y, N, shift):
    """Outputs quadratic in the current and previous input, on a chain with
    exactly N aligned positions at this shift, and an x_t-only baseline."""
    n = N + DEFAULT_BURN_IN + (2 if shift == 0 else 3)
    spec = bounded_input_spec(d_x, 0.5, seed=40 + d_x)
    x = sample_markov_chain(spec, n, seed=41)
    rng = np.random.default_rng(42)
    G = rng.standard_normal((d_y, d_x))
    y = ((G @ x) ** 2 + np.roll(G @ x, 1, axis=1) ** 2
         + 0.1 * rng.standard_normal((d_y, n)))
    return spec, SequenceData(x=x, y=y), 0.9 * (G @ x) ** 2


def _assert_kernel_close(new, ref):
    """The kernel sums in another order than the reference; 1e-12 relative
    stands against a measured gap of about 1e-13."""
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [512, 1024, 1025, 4099,  # within a block, then just past one
                               _MOMENT_BLOCK // 2, _MOMENT_BLOCK, _MOMENT_BLOCK + 1,
                               4 * _MOMENT_BLOCK + 3])
@pytest.mark.parametrize("d_y", [1, 4])
@pytest.mark.parametrize("d_x", [1, 2, 6])
def test_moment_kernel_matches_reference_formulas(d_x, d_y, N):
    spec, data, _ = _kernel_case(d_x, d_y, N, 0)
    m2 = cross_moment_s2(spec, data)
    assert m2.n_used == N
    _assert_kernel_close(m2.value, _ref_s2(spec, data))
    # both orders of a score pair read the same product
    assert np.array_equal(m2.value, m2.value.transpose(0, 2, 1))
    m3 = cross_moment(spec, data, 3)
    assert m3.n_used == N
    _assert_kernel_close(m3.value, _ref_s3(spec, data))
    for shift in (-1, 1):
        spec, data, baseline = _kernel_case(d_x, d_y, N, shift)
        for case in (data, _minus(data, baseline)):
            m4 = cross_moment_s4_reshaped(spec, case, shift=shift)
            assert m4.n_used == N
            _assert_kernel_close(m4.value, _ref_s4(spec, case, shift))


def test_scores_argument_matches_computed_scores():
    spec, data, baseline = _kernel_case(3, 2, 3000, -1)
    s = centered_scores(spec, data.x)
    assert np.array_equal(cross_moment_s2(spec, data, scores=s).value,
                          cross_moment_s2(spec, data).value)
    assert np.array_equal(cross_moment(spec, data, 1, shift=-1, scores=s).value,
                          cross_moment(spec, data, 1, shift=-1).value)
    minus = _minus(data, baseline)
    for shift in (-1, 1):
        given = cross_moment_s4_reshaped(spec, minus, shift=shift, scores=s)
        computed = cross_moment_s4_reshaped(spec, minus, shift=shift)
        assert np.array_equal(given.value, computed.value)
    with pytest.raises(ValueError, match="shape of x"):
        cross_moment_s2(spec, data, scores=s[:, :-1])
    with pytest.raises(ValueError, match="shape of x"):
        cross_moment_s4_reshaped(spec, data, scores=s[:2])
    with pytest.raises(ValueError, match="shape of x"):
        cross_moment(spec, data, 1, scores=s[:, 1:])


def _assert_symmetric(T):
    """Exactly equal under every permutation of the score indices."""
    for perm in itertools.permutations(range(1, T.ndim)):
        assert np.array_equal(T, T.transpose((0,) + perm)), perm


_KERNEL_PROPERTY = settings(max_examples=5)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("d", range(1, 8))
@_KERNEL_PROPERTY
@given(d_y=st.integers(1, 3), N=st.integers(1, 2 * _MOMENT_BLOCK + 7),
       seed=st.integers(0, 2**32 - 1))
@example(d_y=3, N=2 * _MOMENT_BLOCK + 7, seed=0)  # a partial last block
def test_score_power_means_matches_einsum(d, order, d_y, N, seed):
    """The monomial kernel against brute-force means of y (x) s^(x)m, with y
    centered over the N aligned positions of shift 0 at burn-in 0, for every
    order up to the given one in one pass."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((d_y, N + 2))
    S = rng.standard_normal((d, N + 2))
    orders = tuple(range(1, order + 1))
    [(n_used, means)] = _moment_means(y, S, (0,), 0, orders)
    assert n_used == N
    Y = y[:, 1:-1] - y[:, 1:-1].mean(axis=1, keepdims=True)

    def brute(m):
        modes = "ijkl"[:m]
        spec = "at," + ",".join(c + "t" for c in modes) + "->a" + modes
        return np.einsum(spec, Y, *[S[:, 1:-1]] * m) / N

    for m, mean in zip(orders, means):
        _assert_kernel_close(mean, brute(m))
        _assert_symmetric(mean)


@settings(max_examples=40)
@given(d_x=st.integers(1, 4), d_h=st.integers(1, 3), d_y=st.integers(1, 3),
       n=st.integers(12, 80), burn_in=st.integers(0, 6), block=st.integers(1, 9),
       shifts=st.lists(st.integers(-2, 2), min_size=1, max_size=5, unique=True),
       with_basis=st.booleans(), with_baseline=st.booleans(),
       seed=st.integers(0, 2**16))
def test_stacked_shifts_equal_single_shift_calls(d_x, d_h, d_y, n, burn_in, block, shifts,
                                                 with_basis, with_baseline, seed):
    """One call at a tuple of shifts stacks, along the output mode, the bits of
    the single-shift calls: the kernel's blocks sit on one grid whatever
    shifts are asked, here with blocks of a few positions so that every
    window starts and ends inside one."""
    params = _quad_params(seed=seed, d_x=d_x, d_h=min(d_h, d_x), d_y=d_y)
    spec = bounded_input_spec(d_x, 0.5, seed=seed + 1)
    data = rnn_forward(params, sample_markov_chain(spec, n, seed=seed + 2))
    kwargs = {"burn_in": burn_in}
    if with_basis:
        kwargs["basis"] = np.linalg.qr(params.A1.T)[0].T
    if with_baseline:
        data = _minus(data, params.A2.T @ (0.9 * params.A1 @ data.x) ** 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_MOMENT_BLOCK", block)
        stacked = cross_moment_s4_reshaped(spec, data, shift=tuple(shifts), **kwargs)
        single = [cross_moment_s4_reshaped(spec, data, shift=shift, **kwargs)
                  for shift in shifts]
    assert stacked.value.shape[0] == len(shifts) * d_y
    assert stacked.n_used == min(m.n_used for m in single)
    blocks = np.split(stacked.value, len(shifts))
    for shift, got, want in zip(shifts, blocks, single):
        assert want.n_used == n - 2 - burn_in - abs(shift)
        assert np.array_equal(got, want.value), shift


def test_moment_kernel_holds_no_full_length_output_copies():
    """The kernel centers each block of the output as it goes: a two-shift
    S4 in a basis, S2 and S3 hold no full-length array, beyond block-sized
    scratch."""
    n, d_x, d_y = 200_000, 6, 4
    spec = bounded_input_spec(d_x, 0.5, seed=60)
    x = sample_markov_chain(spec, n, seed=61)
    rng = np.random.default_rng(62)
    data = SequenceData(x=x, y=rng.standard_normal((d_y, n)))
    scores = centered_scores(spec, x)
    basis = np.linalg.qr(rng.standard_normal((d_x, 4)))[0].T
    scratch = 2 << 20  # 2 MiB of block-sized scratch, whatever _MOMENT_BLOCK is
    tracemalloc.start()
    try:
        cross_moment_s4_reshaped(spec, data, shift=(-1, 1), scores=scores, basis=basis)
        _, peak_s4 = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cross_moment_s2(spec, data, scores=scores)
        _, peak_s2 = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # S3's 83 monomial rows at d_x = 6 would take 2.7 MB at 4096 positions
        _moment_means(data.y[:1], scores, (0,), 0, (1, 3))
        _, peak_s3 = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_s4 < scratch
    assert peak_s2 < scratch
    assert peak_s3 < scratch


def _gathered(S, m):
    """Order-m monomial rows as fancy-index gathers: s_i * s_j over the pairs,
    then pair rows times order m - 2 rows, in _monomials(d, m) order."""
    d = S.shape[0]
    if m == 1:
        return S
    (iu, ju), pair = moments._monomials(d, 2)
    if m == 2:
        return S[iu] * S[ju]
    mono, lower = moments._monomials(d, m)[0], moments._monomials(d, m - 2)[1]
    head = pair[mono[0] * d + mono[1]]
    tail = lower[np.ravel_multi_index(mono[2:], (d,) * (m - 2))]
    return _gathered(S, 2)[head] * _gathered(S, m - 2)[tail]


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("d", range(1, 8))
def test_workspace_rows_are_the_gathered_monomials(d, m):
    """Every order's rows of the workspace, built by the suffix-product steps,
    carry the bits of the gathered products in _monomials order."""
    mono, offsets, steps = moments._suffix_plan(d, (m,))
    S = np.random.default_rng(10 * d + m).standard_normal((d, 37))
    work = np.full((offsets[0], S.shape[1]), np.nan)
    work[:d] = S
    for head, tail, dest in steps:
        np.multiply(work[head], work[tail], out=work[dest])
    assert set(mono) == set(range(2 - m % 2, m + 1, 2)) | {1, 2}
    assert offsets[0] == sum(mono[k][0].shape[1] for k in mono)
    for k in mono:
        rows = work[offsets[k]:offsets[k] + mono[k][0].shape[1]]
        assert np.array_equal(rows, _gathered(S, k)), k


def test_suffix_plan_is_cached_and_read_only():
    """Every call of the kernel at one (d, orders) shares one plan, which no
    caller can change."""
    mono, offsets, steps = plan = moments._suffix_plan(4, (2, 4))
    assert moments._suffix_plan(4, (2, 4)) is plan
    fresh = moments._suffix_plan.__wrapped__(4, (2, 4))
    assert dict(offsets) == dict(fresh[1]) and steps == fresh[2]
    for arrays in mono.values():
        assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(TypeError):
        offsets[0] = 0
    with pytest.raises(TypeError):
        mono[1] = None
    assert isinstance(steps, tuple)


def test_moment_kernel_is_reentrant_across_threads():
    """Two threads running the kernel at once on different data each get the
    bits of a serial call: the workspace belongs to the call."""
    cases = []
    for seed in (70, 71):
        spec = bounded_input_spec(4, 0.5, seed=seed)
        x = sample_markov_chain(spec, 3 * _MOMENT_BLOCK + 50, seed=seed)
        rng = np.random.default_rng(seed)
        y, baseline = rng.standard_normal((2, 3, x.shape[1]))
        basis = np.linalg.qr(rng.standard_normal((4, 3)))[0].T
        cases.append((spec, SequenceData(x=x, y=y - baseline),
                      {"shift": (-1, 1), "basis": basis}))
    serial = [cross_moment_s4_reshaped(*case[:2], **case[2]).value for case in cases]
    barrier = threading.Barrier(2)

    def run(case):
        barrier.wait(timeout=60)
        return [cross_moment_s4_reshaped(*case[:2], **case[2]).value for _ in range(4)]

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run, cases, timeout=300))
    for want, got in zip(serial, results):
        for value in got:
            assert np.array_equal(value, want)


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 7), (5, 100), (27 + 6, 4096),
                                       (49 + 4, 4096), (83 + 1, 2048), (153 + 1, 1024),
                                       (24 + 3, 1500)])
def test_aligned_rows_start_on_cache_lines(rows, cols):
    """Every row of the kernel's buffer starts on a 64-byte boundary, and
    only rows of at least 4096 positions carry the stride padding."""
    for _ in range(4):  # several allocations, wherever they land
        buf = moments._aligned_rows(rows, cols)
        assert buf.shape == (rows, cols) and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0 and buf.strides[0] % 64 == 0
        assert buf.strides[1] == 8
        assert buf.strides[0] == 8 * moments._row_stride(cols) >= 8 * cols
    assert moments._row_stride(4096) == 4104 and moments._row_stride(2048) == 2048


def _layout(offset_bytes, pad):
    """An _aligned_rows stand-in whose rows start offset_bytes past a cache
    line and lie cols rounded up to a line plus pad columns apart, filled
    with NaN so a read of an unwritten entry would show."""
    def rows_of(rows, cols):
        stride = -(-cols // 8) * 8 + pad
        raw = np.full(rows * stride + 16, np.nan)
        skip = -raw.ctypes.data % 64 // 8 + offset_bytes // 8
        return raw[skip:skip + rows * stride].reshape(rows, stride)[:, :cols]
    return rows_of


@pytest.mark.parametrize("layout", [_layout(8, 0), _layout(40, 8), _layout(0, 0),
                                    _layout(0, 24), _layout(0, 1)],
                         ids=["misaligned", "misaligned-padded", "unpadded",
                              "pad-24", "pad-1"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_moment_bits_do_not_depend_on_the_row_layout(m, layout):
    """The row layout changes where the kernel's rows sit, not what it sums:
    misaligned rows, unpadded rows and other pads give the default bits, at
    one and two shifts, with and without a basis, over 2048- and 4096-wide
    blocks with a partial last block."""
    spec, data, _ = _kernel_case(4, 2, 3 * 4096 + 777, 1)
    s = centered_scores(spec, data.x)
    basis = np.linalg.qr(np.random.default_rng(81).standard_normal((4, 3)))[0].T
    for block in (2048, 4096):
        for shift, B in itertools.product((-1, (-1, 1)), (None, basis)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(moments, "_MOMENT_BLOCK", block)
                want = cross_moment(spec, data, m, shift=shift, scores=s, basis=B)
                mp.setattr(moments, "_aligned_rows", layout)
                got = cross_moment(spec, data, m, shift=shift, scores=s, basis=B)
            assert np.array_equal(got.value, want.value), (block, shift, B is None)


def _contract(T4, B):
    """A reshaped order-4 moment with every score mode contracted with B's rows."""
    k, d = B.shape
    full = T4.reshape((T4.shape[0],) + (d,) * 4)
    out = np.einsum("aijkl,pi,qj,rk,sl->apqrs", full, B, B, B, B, optimize=True)
    return out.reshape(T4.shape[0], k * k, k * k)


@pytest.mark.parametrize("rows", ["k < d_x", "k = d_x", "brnn 2 d_h"])
def test_s4_in_basis_is_contracted_moment(rows):
    """S_4 is multilinear in s and Lambda, so the moment of the projected
    scores B s with precision B Lambda B^T is the full moment contracted
    with B on every score mode."""
    d_x = 6
    spec = bounded_input_spec(d_x, 0.5, seed=50)
    x = sample_markov_chain(spec, 20000, seed=51)
    rng = np.random.default_rng(52)
    if rows == "brnn 2 d_h":
        p = BrnnParams(A1=np.linalg.qr(rng.standard_normal((d_x, 2)))[0].T,
                       B1=np.linalg.qr(rng.standard_normal((d_x, 2)))[0].T,
                       U=0.25 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                       V=0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0],
                       A2=rng.standard_normal((4, 5)), l=2)
        data, C = brnn_forward(p, x), np.vstack([p.A1, p.B1])
    else:
        p = _quad_params(seed=53, d_x=d_x, d_h=3 if rows == "k < d_x" else d_x, d_y=4)
        data, C = rnn_forward(p, x), p.A1
    basis = np.linalg.qr(C.T)[0].T
    k = basis.shape[0]
    data = _minus(data, p.A2.T @ (C @ x) ** 2)
    for shift in (-1, 1):
        full = cross_moment_s4_reshaped(spec, data, shift=shift)
        proj = cross_moment_s4_reshaped(spec, data, shift=shift, basis=basis)
        assert proj.value.shape == (data.y.shape[0], k * k, k * k)
        assert proj.n_used == full.n_used
        _assert_kernel_close(proj.value, _contract(full.value, basis))


def _contract_modes(T, B):
    """T with every score mode (all but the first) contracted with B's rows."""
    for axis in range(1, T.ndim):
        T = np.moveaxis(np.tensordot(T, B, axes=([axis], [1])), -1, axis)
    return T


_ORDERS_PROPERTY = settings(max_examples=40)


@_ORDERS_PROPERTY
@given(m=st.integers(1, 6), d_x=st.integers(1, 3), k=st.integers(1, 3), d_y=st.integers(1, 2),
       n=st.integers(8, 40), burn_in=st.integers(0, 3), block=st.integers(1, 9),
       shifts=st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
       with_basis=st.booleans(), seed=st.integers(0, 2**16))
def test_cross_moment_matches_per_position_score_average(m, d_x, k, d_y, n, burn_in, block,
                                                         shifts, with_basis, seed):
    """cross_moment at every order m <= 6 is the mean over the aligned
    positions of the centered y_t (x) score_from_local(s_(t + shift), Lambda, m),
    with an orthonormal basis that mean with every score mode contracted with
    it; a tuple of shifts stacks the bits of the single-shift calls."""
    rng = np.random.default_rng(seed)
    spec = bounded_input_spec(d_x, 0.5, seed=seed)
    x, S = rng.standard_normal((2, d_x, n))
    data = SequenceData(x=x, y=rng.standard_normal((d_y, n)))
    Lam = precision_matrix(spec)
    basis = np.linalg.qr(rng.standard_normal((d_x, min(k, d_x))))[0].T if with_basis else None
    kwargs = {"burn_in": burn_in, "scores": S, "basis": basis}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_MOMENT_BLOCK", block)
        stacked = cross_moment(spec, data, m, shift=tuple(shifts), **kwargs)
        single = [cross_moment(spec, data, m, shift=shift, **kwargs) for shift in shifts]
    for shift, got, one in zip(shifts, np.split(stacked.value, len(shifts)), single):
        assert np.array_equal(got, one.value), shift
        idx = np.arange(max(1, 1 - shift) + burn_in, min(n - 2, n - 2 - shift) + 1)
        Y = data.y[:, idx] - data.y[:, idx].mean(axis=1, keepdims=True)
        want = sum(np.multiply.outer(Y[:, j], score_from_local(S[:, t + shift], Lam, m))
                   for j, t in enumerate(idx)) / idx.size
        if basis is not None:
            want = _contract_modes(want, basis)
        assert one.n_used == idx.size and one.value.shape == want.shape
        # rounding of sums of terms up to max|y| (max|s| + max|Lambda|)^m
        scale = np.abs(Y).max() * (np.abs(S).max() + np.abs(Lam).max()) ** m
        np.testing.assert_allclose(one.value, want, rtol=0, atol=1e-12 * scale)
    assert stacked.n_used == min(one.n_used for one in single)


def _hand_written(means, Lam, m):
    """The order-3 (order-4) moment as written out by hand: the kernel's top
    mean minus the sum, in this order, of the three (six) placements of
    Lambda against the mean of order m - 2."""
    low, val = means
    places = {3: ("ai,jk->aijk", "aj,ik->aijk", "ak,ij->aijk"),
              4: ("aij,kl->aijkl", "aik,jl->aijkl", "ail,jk->aijkl",
                  "ajk,il->aijkl", "ajl,ik->aijkl", "akl,ij->aijkl")}[m]
    total = np.einsum(places[0], low, Lam)
    for sub in places[1:]:
        total = total + np.einsum(sub, low, Lam)
    val -= total
    return val


@pytest.mark.parametrize("shift", [-1, (-1, 1)])
@pytest.mark.parametrize("coords", ["full", "span"])
@pytest.mark.parametrize("m", [3, 4])
def test_cross_moment_keeps_the_hand_written_bits(m, coords, shift):
    """Summing each group of Lambda terms in the lexicographic order of its
    s modes, then subtracting the sum, gives the bits of the hand-written
    expressions the pipelines were built on."""
    spec, data, _ = _kernel_case(5, 3, 3000, 1)
    s = centered_scores(spec, data.x)
    Lam = precision_matrix(spec)
    basis = None
    if coords == "span":
        basis = np.linalg.qr(np.random.default_rng(80).standard_normal((5, 3)))[0].T
        Lam = basis @ Lam @ basis.T
    shifts = tuple(np.atleast_1d(shift).tolist())
    parts = _moment_means(data.y, s, shifts, DEFAULT_BURN_IN, (m - 2, m), basis)
    want = np.concatenate([_hand_written(means, Lam, m) for _, means in parts])
    got = cross_moment(spec, data, m, shift=shift, scores=s, basis=basis)
    assert np.array_equal(got.value, want)
