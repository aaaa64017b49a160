"""Input chain simulation and forward maps of the sequence models."""

import inspect
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_discrete_lyapunov

import data_path_reference
import spectral_rnn
from spectral_rnn import sequence_models
from spectral_rnn.diagnostics import sample_sweep
from spectral_rnn.sequence_models import (_CHUNKS, _SCAN_BLOCK, _SCAN_CHUNK,
                                          _WARMUP, AssumptionError,
                                          BrnnParams, MarkovChainSpec,
                                          RnnParams, SequenceData, _differs,
                                          _unroll,
                                          bounded_input_spec, brnn_forward,
                                          rnn_forward, sample_markov_chain,
                                          stationary_covariance)


def test_spec_validation():
    with pytest.raises(ValueError):
        MarkovChainSpec(W=np.zeros((2, 3)), sigma=1.0)
    with pytest.raises(ValueError):
        MarkovChainSpec(W=np.zeros((2, 2)), sigma=0.0)
    with pytest.raises(AssumptionError):
        MarkovChainSpec(W=np.eye(2), sigma=1.0)


def test_stationary_covariance_scalar():
    # W = 0.5, sigma^2 = 0.75: Sigma = 0.75 / (1 - 0.25) = 1
    spec = MarkovChainSpec(W=np.array([[0.5]]), sigma=np.sqrt(0.75))
    assert np.allclose(stationary_covariance(spec), [[1.0]])


def test_stationary_covariance_solves_lyapunov():
    rng = np.random.default_rng(0)
    W = 0.6 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
    spec = MarkovChainSpec(W=W, sigma=0.7)
    S = stationary_covariance(spec)
    want = solve_discrete_lyapunov(W, spec.sigma ** 2 * np.eye(3))
    assert np.allclose(S, want, atol=1e-10)


def test_stationary_covariance_near_unit_norm():
    rng = np.random.default_rng(1)
    W = 0.9999 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
    spec = MarkovChainSpec(W=W, sigma=0.5)
    start = time.perf_counter()
    S = stationary_covariance(spec)
    elapsed = time.perf_counter() - start
    residual = S - W @ S @ W.T - spec.sigma ** 2 * np.eye(3)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(S)
    assert np.array_equal(S, S.T)
    assert elapsed < 0.5


def test_stationary_covariance_non_normal():
    # upper-triangular W is far from normal: spectral radius 0.44 at norm 0.95
    rng = np.random.default_rng(2)
    W = np.triu(rng.standard_normal((12, 12)))
    W *= 0.95 / np.linalg.norm(W, 2)
    spec = MarkovChainSpec(W=W, sigma=0.3)
    S = stationary_covariance(spec)
    want = solve_discrete_lyapunov(W, spec.sigma ** 2 * np.eye(12))
    assert np.allclose(S, want, atol=1e-10)
    residual = S - W @ S @ W.T - spec.sigma ** 2 * np.eye(12)
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(S)
    assert np.array_equal(S, S.T)


def _loop_chain(spec, n, seed):
    """The chain drawn and stepped one time step at a time."""
    rng = np.random.default_rng(seed)
    d = spec.d_x
    x = np.empty((d, n))
    if spec.init == "stationary":
        x[:, 0] = rng.multivariate_normal(np.zeros(d), stationary_covariance(spec),
                                          method="cholesky")
    else:
        x[:, 0] = 0.0
    eps = rng.standard_normal((d, n - 1)) * spec.sigma
    for t in range(1, n):
        x[:, t] = spec.W @ x[:, t - 1] + eps[:, t - 1]
    return x


def _chain_spec(kind, init):
    rng = np.random.default_rng(11)
    if kind == "rotation":
        W = 0.5 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
    elif kind == "zero_W":
        W = np.zeros((3, 3))
    elif kind == "scalar":
        W = np.array([[0.7]])
    else:  # near_unit
        W = 0.99 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
    return MarkovChainSpec(W=W, sigma=0.3, init=init)


def _assert_same_chain(x, ref):
    # identical generator use: the first column is drawn before any stepping
    assert x.shape == ref.shape
    assert np.array_equal(x[:, 0], ref[:, 0])
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("kind", ["rotation", "zero_W", "scalar", "near_unit"])
@pytest.mark.parametrize("init", ["stationary", "zero"])
# lengths around one block, and 63-65 and 197, whose block starts run
# through a level of the recursion
@pytest.mark.parametrize("n", [1, 2, 3, _SCAN_BLOCK - 1, _SCAN_BLOCK,
                               _SCAN_BLOCK + 1, 3 * _SCAN_BLOCK + 5, 63, 64, 65, 197])
def test_blocked_scan_matches_loop(kind, init, n):
    spec = _chain_spec(kind, init)
    _assert_same_chain(sample_markov_chain(spec, n, seed=5), _loop_chain(spec, n, seed=5))


@pytest.mark.parametrize("d_x", [3, 12])
def test_blocked_scan_matches_loop_across_chunks(d_x):
    # d_x = 12 gives the widest Toeplitz kernel here, _SCAN_BLOCK * 12 rows
    rng = np.random.default_rng(d_x)
    spec = MarkovChainSpec(W=0.9 * np.linalg.qr(rng.standard_normal((d_x, d_x)))[0],
                           sigma=0.2)
    n = 2 * _SCAN_BLOCK * _SCAN_CHUNK + 7
    _assert_same_chain(sample_markov_chain(spec, n, seed=3), _loop_chain(spec, n, seed=3))


_SPAN = _SCAN_BLOCK * _SCAN_CHUNK  # steps per chunk of the scan
_DEEP = 4 * _SCAN_BLOCK ** 3     # enough steps for three blocked levels of the recursion


def _rotation_of(d, rng):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


@settings(max_examples=25)
@given(d=st.integers(1, 8),
       n=st.one_of(st.integers(1, 2 * _DEEP), st.integers(2 * _SPAN, 2 * _SPAN + 3 * _SCAN_BLOCK)),
       norm=st.floats(0.0, 0.99), non_normal=st.booleans(),
       init=st.sampled_from(["stationary", "zero"]), seed=st.integers(0, 2**16))
@example(d=2, n=1, norm=0.5, non_normal=False, init="stationary", seed=0)
@example(d=2, n=_SCAN_BLOCK, norm=0.5, non_normal=False, init="stationary", seed=0)
@example(d=3, n=_SCAN_BLOCK + 1, norm=0.9, non_normal=False, init="zero", seed=1)
@example(d=3, n=_SCAN_BLOCK + 2, norm=0.9, non_normal=True, init="stationary", seed=1)
@example(d=5, n=_DEEP, norm=0.99, non_normal=False, init="stationary", seed=2)
@example(d=8, n=2 * _SPAN + 2, norm=0.99, non_normal=True, init="stationary", seed=3)
def test_recursive_scan_matches_loop(d, n, norm, non_normal, init, seed):
    """The chain, filled by the blocked scan and its recursion over block
    starts, equals the step loop to rounding for any dimension, length
    (loop-only, one level, several levels, several chunks) and ||W|| < 1."""
    rng = np.random.default_rng(seed)
    W = np.triu(rng.standard_normal((d, d))) if non_normal else _rotation_of(d, rng)
    W *= norm / max(np.linalg.norm(W, 2), 1e-300)
    spec = MarkovChainSpec(W=W, sigma=0.3, init=init)
    _assert_same_chain(sample_markov_chain(spec, n, seed=seed),
                       _loop_chain(spec, n, seed=seed))


def test_recursive_scan_depth(monkeypatch):
    """Each level scans the block starts of the one above, so _DEEP steps run
    at least three blocked levels before the step loop."""
    steps, scan = [], sequence_models._linear_scan

    def traced(W, x, eps):
        steps.append(eps.shape[1])
        scan(W, x, eps)

    monkeypatch.setattr(sequence_models, "_linear_scan", traced)
    spec = MarkovChainSpec(W=0.5 * _rotation_of(3, np.random.default_rng(0)), sigma=0.3)
    sample_markov_chain(spec, _DEEP, seed=0)
    assert steps[0] == _DEEP - 1
    assert sum(s > _SCAN_BLOCK for s in steps) >= 3
    assert steps[-1] <= _SCAN_BLOCK


# steps (n - 1) on both sides of one block and of one chunk of the scan,
# and several chunks with a short last one
_DRAW_LENGTHS = [1, 2, _SCAN_BLOCK, _SCAN_BLOCK + 1, _SCAN_BLOCK + 2, 2 * _SCAN_BLOCK + 1,
                 _SPAN, _SPAN + 1, _SPAN + 2, 2 * _SPAN + 1, 2 * _SPAN + _SCAN_BLOCK + 4]


@pytest.mark.parametrize("d_x", range(1, 13))
def test_sample_markov_chain_keeps_the_draw_then_scan_bits(d_x):
    """Innovations drawn row by row into x and scanned in place give the
    bits of drawing them all into one array first and scanning from it."""
    rng = np.random.default_rng(100 + d_x)
    W = 0.9 * _rotation_of(d_x, rng)
    for init in ("stationary", "zero"):
        spec = MarkovChainSpec(W=W, sigma=0.3, init=init)
        for n in _DRAW_LENGTHS:
            want = data_path_reference.sample_markov_chain(spec, n, seed=n)
            assert sample_markov_chain(spec, n, seed=n).tobytes() == want.tobytes(), (init, n)


def test_sample_markov_chain_holds_its_output_and_chunk_scratch_only():
    """At n = 1e5 the innovations are not a second d_x x n array: the peak
    is x plus a few chunk-sized arrays of the scan (E, R and their
    reordered copies), not x twice."""
    d_x, n = 6, 100_000
    spec = bounded_input_spec(d_x, 0.5, seed=1)
    chunk = d_x * _SPAN * 8  # bytes of one chunk of innovations
    sample_markov_chain(spec, 2 * _SPAN, seed=0)  # build any lazy state first
    tracemalloc.start()
    try:
        x = sample_markov_chain(spec, n, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + 6 * chunk


def test_sample_markov_chain_deterministic_and_stationary():
    spec = MarkovChainSpec(W=np.array([[0.5]]), sigma=np.sqrt(0.75))
    x1 = sample_markov_chain(spec, 5000, seed=7)
    x2 = sample_markov_chain(spec, 5000, seed=7)
    assert np.array_equal(x1, x2)
    assert x1.shape == (1, 5000)
    # stationary marginal has unit variance for this spec
    assert abs(np.var(x1) - 1.0) < 0.1
    # lag-1 autocorrelation is W
    r = np.corrcoef(x1[0, :-1], x1[0, 1:])[0, 1]
    assert abs(r - 0.5) < 0.05


# worst measured distance of the closed-form quantile from scipy's chi2.isf
# over d_x 1-64 x tail_prob {1e-2, 1e-3, 1e-6}; scipy's isf is itself up to
# 11 ulp from the true quantile there, the closed form up to 3
CHI2_ISF_ULPS = 13


def test_bounded_input_spec_chi2_quantile_within_ulps_of_scipy_isf():
    for d_x in range(1, 65):
        for tail_prob in (1e-2, 1e-3, 1e-6):
            q = sequence_models._chi2_upper_quantile(d_x, tail_prob)
            ref = stats.chi2.isf(tail_prob, d_x)
            assert abs(q - ref) <= CHI2_ISF_ULPS * np.spacing(ref), (d_x, tail_prob)
            spec = bounded_input_spec(d_x, 0.5, tail_prob=tail_prob)
            assert spec.sigma == np.sqrt((1.0 / q) * (1.0 - 0.5 ** 2))


def test_chi2_quantile_is_cached_with_its_bits():
    """Every sweep cell builds the same input law, so the quantile is
    computed once per (d, tail_prob) and the cached value is the computed one."""
    q = sequence_models._chi2_upper_quantile(7, 1e-3)
    hits = sequence_models._chi2_upper_quantile.cache_info().hits
    assert sequence_models._chi2_upper_quantile(7, 1e-3) == q
    assert sequence_models._chi2_upper_quantile.cache_info().hits == hits + 1
    assert q == sequence_models._chi2_upper_quantile.__wrapped__(7, 1e-3)


@pytest.mark.parametrize("d_x", [100, 1000, 5000])
def test_bounded_input_spec_chi2_quantile_at_high_dimension(d_x):
    # e^{-x/2} underflows past x = 1490, so this needs the log-space terms
    for tail_prob in (1e-2, 1e-3, 1e-6):
        q = sequence_models._chi2_upper_quantile(d_x, tail_prob)
        ref = stats.chi2.isf(tail_prob, d_x)
        assert abs(q - ref) <= 1e-12 * ref, (d_x, tail_prob)


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: bounded_input_spec(6, 0.5, tail_prob=1.5), "tail_prob", id="tail_prob=1.5"),
    pytest.param(lambda: bounded_input_spec(6, 0.5, tail_prob=-0.1), "tail_prob", id="tail_prob=-0.1"),
    pytest.param(lambda: bounded_input_spec(6, 0.5, tail_prob=float("nan")), "tail_prob",
                 id="tail_prob=nan"),
    pytest.param(lambda: bounded_input_spec(6, 0.5, tail_prob=1.0), "tail_prob", id="tail_prob=1"),
    pytest.param(lambda: bounded_input_spec(6, 0.5, tail_prob=0.0), "tail_prob", id="tail_prob=0"),
    pytest.param(lambda: bounded_input_spec(0, 0.5), "d_x", id="d_x=0"),
    pytest.param(lambda: MarkovChainSpec(W=0.5 * np.eye(2), sigma=float("nan")), "sigma",
                 id="sigma=nan"),
    pytest.param(lambda: MarkovChainSpec(W=0.5 * np.eye(2), sigma=float("inf")), "sigma",
                 id="sigma=inf"),
])
def test_out_of_range_chain_input_rejected_by_name(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            build()


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(spectral_rnn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tempfile, spectral_rnn, spectral_rnn.cli\n"
         "spectral_rnn.bounded_input_spec(6, 0.5)\n"
         "with tempfile.TemporaryDirectory() as out:\n"
         "    code = spectral_rnn.cli.main(['generate', '--out', out, '--set', 'model.d_x=6',\n"
         "                                  '--set', 'model.d_h=3', '--set', 'model.d_y=4',\n"
         "                                  '--set', 'input.sigma=auto', '--set', 'estimation.n=500'])\n"
         "assert code == 0, code\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


# The package's API, pinned: a name added to or dropped from it fails here,
# so the change is made on purpose.
PACKAGE_API = (
    "AssumptionError", "BrnnParams", "MarkovChainSpec", "RnnParams", "SequenceData",
    "bounded_input_spec", "brnn_forward", "rnn_forward", "sample_markov_chain",
    "stationary_covariance",
    "centered_scores", "precision_matrix", "stein_check",
    "MomentTensor", "cross_moment", "cross_moment_s2", "cross_moment_s4_reshaped",
    "population_moment_oracle",
    "CpDecomposition", "decompose",
    "BrnnEstimate", "RnnEstimate", "quadratic_moments", "recover_brnn", "recover_linear",
    "recover_quadratic", "recover_scalar", "train_brnn", "train_linear", "train_quadratic",
    "train_scalar",
    "RecoveryReport", "SweepResult", "align", "concentration_bound", "lipschitz_bound",
    "sample_sweep",
    "ConfigError", "ExperimentConfig", "parse_config",
)


def test_star_import_gives_the_api_and_no_modules():
    assert spectral_rnn.__all__ == PACKAGE_API
    namespace = {}
    exec("from spectral_rnn import *", namespace)
    exported = sorted(name for name in namespace if name != "__builtins__")
    assert exported == sorted(PACKAGE_API)
    assert not any(inspect.ismodule(namespace[name]) for name in exported)


def test_bounded_input_spec_norm():
    spec = bounded_input_spec(4, 0.5, seed=1)
    assert abs(np.linalg.norm(spec.W, 2) - 0.5) < 1e-12
    x = sample_markov_chain(spec, 20000, seed=0)
    frac = np.mean(np.linalg.norm(x, axis=0) > 1.0)
    assert frac < 5e-3  # tail probability target is 1e-3
    # stationary covariance is isotropic by construction
    S = stationary_covariance(spec)
    assert np.allclose(S, S[0, 0] * np.eye(4), atol=1e-10)


def test_rnn_forward_hand_example():
    # d = 1, l = 2, A1 = U = 0.5, A2 = 1, x = (1, 1):
    # h1 = (0.5)^2 = 0.25, h2 = (0.5 + 0.5 * 0.25)^2 = 0.390625
    params = RnnParams(A1=[[0.5]], U=[[0.5]], A2=[[1.0]], l=2)
    x = np.array([[1.0, 1.0, 0.0]])
    data = rnn_forward(params, x)
    h = _unroll(params.A1, params.U, params.l, x).T
    assert np.allclose(h[0, :2], [0.25, 0.390625])
    assert np.array_equal(data.y, h)
    assert [f.name for f in fields(data)] == ["x", "y"]  # the states are not kept


def test_rnn_forward_matches_loop():
    rng = np.random.default_rng(2)
    A1 = 0.4 * np.linalg.qr(rng.standard_normal((5, 2)))[0].T
    U = 0.3 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A2 = rng.standard_normal((2, 3))
    params = RnnParams(A1=A1, U=U, A2=A2, l=2)
    spec = bounded_input_spec(5, 0.5, seed=3)
    x = sample_markov_chain(spec, 50, seed=4)
    data = rnn_forward(params, x)
    states = _unroll(A1, U, 2, x)
    h = np.zeros(2)
    for t in range(x.shape[1]):
        h = (A1 @ x[:, t] + U @ h) ** 2
        assert np.allclose(states[t], h)
        assert np.allclose(data.y[:, t], A2.T @ h)


def test_rnn_forward_blow_up_raises():
    params = RnnParams(A1=[[2.0]], U=[[2.0]], A2=[[1.0]], l=2)
    x = np.ones((1, 200))
    with np.errstate(over="ignore"), pytest.raises(AssumptionError):
        rnn_forward(params, x)


def test_brnn_backward_blow_up_names_direction_and_step():
    params = BrnnParams(A1=[[0.1]], B1=[[2.0]], U=[[0.1]], V=[[2.0]],
                        A2=[[1.0], [1.0]], l=2)
    n = 20 * _CHUNKS + 500  # the blow-up lies in the last chunk of the backward pass
    x = np.zeros((1, n))
    x[0, :100] = 1.0  # z stays 0 from the end down to t = 100
    z = 0.0
    with np.errstate(over="ignore"):
        for t in range(99, -1, -1):
            z = (2.0 * x[0, t] + 2.0 * z) ** 2
            if not np.isfinite(z):
                break
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssumptionError,
                           match=f"^backward state blow-up at step {t}$"):
            brnn_forward(params, x)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_forward_kernel_matches_loop_across_chunks(l):
    rng = np.random.default_rng(12)
    A1 = 0.4 * np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    B1 = 0.4 * np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    U = 0.3 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    V = 0.2 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A2 = rng.standard_normal((4, 2))
    x = sample_markov_chain(bounded_input_spec(3, 0.5, seed=13), 16 * _CHUNKS + 37,
                            seed=14)
    h0 = np.array([0.3, -0.2])
    n = x.shape[1]
    h = np.empty((2, n))
    z = np.empty((2, n))
    hp, zp = h0, np.zeros(2)
    for t in range(n):
        hp = (A1 @ x[:, t] + U @ hp) ** l
        h[:, t] = hp
        zp = (B1 @ x[:, n - 1 - t] + V @ zp) ** l
        z[:, n - 1 - t] = zp
    got_h = _unroll(A1, U, l, x, h0).T
    np.testing.assert_allclose(got_h, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))
    got_z = _unroll(B1, V, l, x, backward=True).T
    np.testing.assert_allclose(got_z, z, rtol=0, atol=1e-12 * np.max(np.abs(z)))
    assert got_h.shape == got_z.shape == (2, n)


def _kernel_model(d_x, d_h, u_scale, seed):
    rng = np.random.default_rng(seed)
    A1 = 0.5 * np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T
    U = u_scale * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0]
    return A1, U


@pytest.mark.parametrize("l", [1, 2, 3])
# 255-257 and 10243 (= 40 * 256 + 3) are kept from an earlier _CHUNKS of 256
# as more chunk layouts; 10243 now ends in a 3-step chunk
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 10243, _CHUNKS - 1, _CHUNKS,
                               _CHUNKS + 1, 40 * _CHUNKS + 3])
def test_chunked_kernel_equals_sequential(n, l):
    A1, U = _kernel_model(4, 3, 0.3, seed=n)
    x = sample_markov_chain(bounded_input_spec(4, 0.5, seed=1), n, seed=2)
    h0 = np.array([0.2, -0.1, 0.3])
    for start in (None, h0):
        for backward in (False, True):
            ref = _unroll(A1, U, l, x, start, backward, chunks=1)
            got = _unroll(A1, U, l, x, start, backward)
            assert got.shape == (n, 3)
            assert np.array_equal(got, ref)


def _first_pass_starts(A1, U, l, x, chunks, backward=False):
    """Each chunk k >= 1's start after its warm-up from zero, and the length
    C of a chunk, as _unroll lays them out in step order."""
    xs = x[:, ::-1] if backward else x
    n = xs.shape[1]
    C = max(-(-n // chunks), min(_WARMUP, n))
    return [_unroll(A1, U, l, xs[:, k - _WARMUP : k], chunks=1)[-1]
            for k in range(C, n, C)], C


def test_chunked_kernel_repairs_slow_mixing_exactly():
    # a linear recursion with a near-unit rotation takes hundreds of steps to
    # forget its start state bit for bit, far more than _WARMUP, so most
    # chunks start wrong and are repaired: with short chunks over several
    # rounds, as a re-run reaches the chunk's end, with four long chunks
    # inside one round
    A1, U = _kernel_model(4, 3, 0.95, seed=3)
    x = sample_markov_chain(bounded_input_spec(4, 0.5, seed=4), _CHUNKS * _WARMUP,
                            seed=5)
    for l in (1, 2):
        for backward in (False, True):
            ref = _unroll(A1, U, l, x, backward=backward, chunks=1)
            steps = ref[::-1] if backward else ref
            for chunks in (_CHUNKS, 4):
                got = _unroll(A1, U, l, x, backward=backward, chunks=chunks)
                assert np.array_equal(got, ref)
                if l == 1:
                    starts, C = _first_pass_starts(A1, U, l, x, chunks, backward)
                    wrong = sum(s.tobytes() != steps[k * C - 1].tobytes()
                                for k, s in enumerate(starts, 1))
                    assert wrong > (chunks - 1) // 2


def test_repair_that_runs_through_its_chunk_needs_a_second_round():
    # an integrator (l = 1, U = 1) never forgets its start, so a re-run never
    # coalesces.  Chunk 2's warm-up misses chunk 0's inputs, so its main
    # pass ends wrong; round 1 makes chunk 2 exact, but chunk 3 re-ran from
    # that wrong end and stays wrong until round 2
    A1 = U = np.eye(1)
    # the last chunk is short, and it too is re-run
    x = sample_markov_chain(bounded_input_spec(1, 0.5, seed=6), 40 * _WARMUP + 5, seed=7)
    for backward in (False, True):
        ref = _unroll(A1, U, 1, x, backward=backward, chunks=1)
        steps, xs = (ref[::-1], x[:, ::-1]) if backward else (ref, x)
        C = _WARMUP
        main2 = _unroll(A1, U, 1, xs[:, 2 * C - _WARMUP : 3 * C], chunks=1)[-1]
        round1 = _unroll(A1, U, 1, xs[:, 3 * C : 4 * C], h0=main2, chunks=1)[-1]
        assert main2.tobytes() != steps[3 * C - 1].tobytes()
        assert round1.tobytes() != steps[4 * C - 1].tobytes()
        for chunks in (_CHUNKS, 40, 8):
            assert np.array_equal(_unroll(A1, U, 1, x, backward=backward, chunks=chunks), ref)


def test_repair_that_never_coalesces_reruns_each_chunk_about_once(monkeypatch):
    # after round 1 of an integrator each round makes only its first chunk
    # exact, so later rounds re-run only that chunk, as a serial repair
    # would, instead of every mismatched chunk again (about K^2 / 2 re-runs)
    x = sample_markov_chain(bounded_input_spec(1, 0.5, seed=6), _CHUNKS * _WARMUP, seed=7)
    widths = []
    rerun = sequence_models._rerun
    monkeypatch.setattr(sequence_models, "_rerun",
                        lambda *args: widths.append(args[6].size) or rerun(*args))
    for backward in (False, True):
        widths.clear()
        got = _unroll(np.eye(1), np.eye(1), 1, x, backward=backward)
        assert np.array_equal(got, _unroll(np.eye(1), np.eye(1), 1, x, backward=backward,
                                           chunks=1))
        # chunk 1's warm-up covers all of chunk 0, so chunks 2 .. K-1 start wrong
        assert widths[0] == _CHUNKS - 2
        assert widths[1:] == [1] * (_CHUNKS - 3)


def test_mismatch_is_any_bit():
    # -0.0 and +0.0 differ in the sign bit; a NaN equals only the same bits
    nan, neg_nan = np.nan, np.copysign(np.nan, -1.0)
    a = np.array([[0.0, -0.0, nan, nan, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
    b = np.array([[-0.0, -0.0, nan, neg_nan, 1.0], [1.0, 1.0, 1.0, 1.0, np.nextafter(1.0, 2.0)]])
    assert _differs(a, b).tolist() == [True, False, False, True, True]
    # from h0 = -0.0, h_t = x_t + h_{t-1} with x_t = -0.0 stays -0.0, while
    # every warm-up from +0.0 stays +0.0: the chunks are wrong in the sign
    # bit alone, and repairing them gives the sequential bits
    x = np.full((1, 4 * _CHUNKS), -0.0)
    h0 = np.array([-0.0])
    ref = _unroll(np.eye(1), np.eye(1), 1, x, h0=h0, chunks=1)
    assert np.signbit(ref).all()
    got = _unroll(np.eye(1), np.eye(1), 1, x, h0=h0)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("backward", [False, True])
def test_blow_up_after_repaired_chunks_names_its_step(backward):
    # every chunk of an integrator after the first two starts wrong and is
    # repaired; two inputs of 1.5e308 overflow it far after those chunks
    n = 8 * _CHUNKS
    t0 = 5 * _CHUNKS + 3
    x = np.full((1, n), 0.5)
    x[0, t0 : t0 + 2] = 1.5e308
    # the chunks before the spike, laid out as in the full run (C = _WARMUP)
    starts, C = _first_pass_starts(np.eye(1), np.eye(1), 1, x[:, :t0], _CHUNKS)
    assert C == _WARMUP
    assert sum(s[0] != 0.5 * k * C for k, s in enumerate(starts, 1)) > len(starts) // 2
    step = t0 if backward else t0 + 1
    direction = "backward" if backward else "forward"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssumptionError, match=f"^{direction} state blow-up at step {step}$"):
            _unroll(np.eye(1), np.eye(1), 1, x, backward=backward)


def test_forward_blow_up_in_a_later_chunk_names_its_step():
    params = RnnParams(A1=[[1.0]], U=[[2.0]], A2=[[1.0]], l=2)
    n = 40 * _CHUNKS
    t0 = 25 * _CHUNKS + 7  # inside a chunk well after the first
    x = np.zeros((1, n))
    x[0, t0] = 2.0
    h = 0.0
    with np.errstate(over="ignore"):
        for t in range(t0, n):
            h = (x[0, t] + 2.0 * h) ** 2
            if not np.isfinite(h):
                break
    assert t > t0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssumptionError,
                           match=f"^forward state blow-up at step {t}$"):
            rnn_forward(params, x)


def test_non_finite_warm_up_is_repaired_not_raised():
    # h_t = (1 - 2^50) + 2^50 h_{t-1} stays exactly 1 from h0 = 1, while a
    # warm-up from zero overflows within _WARMUP steps
    big = 2.0 ** 50
    x = np.full((1, 4 * _CHUNKS), 1.0 - big)
    U = np.array([[big]])
    ref = _unroll(np.eye(1), U, 1, x, h0=np.ones(1), chunks=1)
    assert np.array_equal(ref, np.ones((x.shape[1], 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _unroll(np.eye(1), U, 1, x, h0=np.ones(1))
    assert np.array_equal(got, ref)


def test_forward_kernel_is_reentrant_across_sweep_threads():
    # cells of a threaded sweep simulate distinct models and inputs; odd
    # seeds run a slowly mixing linear model, so their chunks get repaired.
    # Each cell must match a one-worker run.
    def run(workers):
        out = {}

        def cell(n, seed):
            slow = seed % 2
            A1, U = _kernel_model(4, 2, 0.5 if slow else 0.3, seed)
            l = 1 if slow else 2
            x = sample_markov_chain(bounded_input_spec(4, 0.5, seed=seed), n, seed)
            if seed < 2:
                out[n, seed] = rnn_forward(RnnParams(A1=A1, U=U, A2=np.eye(2), l=l), x).y
            else:
                params = BrnnParams(A1=A1, B1=A1[::-1], U=U, V=U.T, A2=np.ones((4, 3)), l=l)
                out[n, seed] = brnn_forward(params, x).y
            return []

        sample_sweep(cell, [20_000, 40_000], [0, 1, 2, 3], workers=workers)
        return out

    interval = sys.getswitchinterval()
    base = run(1)
    sys.setswitchinterval(1e-5)  # switch threads often, inside the kernels
    try:
        for workers in (2, 2, 2, 2, 2, 4):
            threaded = run(workers)
            assert threaded.keys() == base.keys()
            assert all(np.array_equal(threaded[c], base[c]) for c in base)
    finally:
        sys.setswitchinterval(interval)


def test_brnn_forward_matches_loop():
    rng = np.random.default_rng(5)
    A1 = 0.4 * np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    B1 = 0.4 * np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    U = 0.2 * np.eye(2)
    V = 0.1 * np.eye(2)
    A2 = rng.standard_normal((4, 3))
    params = BrnnParams(A1=A1, B1=B1, U=U, V=V, A2=A2, l=2)
    spec = bounded_input_spec(4, 0.5, seed=6)
    x = sample_markov_chain(spec, 40, seed=7)
    data = brnn_forward(params, x)
    states = (_unroll(A1, U, 2, x).T, _unroll(B1, V, 2, x, backward=True).T)
    n = x.shape[1]
    h = np.zeros((2, n))
    z = np.zeros((2, n))
    hp = np.zeros(2)
    for t in range(n):
        hp = (A1 @ x[:, t] + U @ hp) ** 2
        h[:, t] = hp
    zp = np.zeros(2)
    for t in range(n - 1, -1, -1):
        zp = (B1 @ x[:, t] + V @ zp) ** 2
        z[:, t] = zp
    assert np.allclose(states[0], h)
    assert np.allclose(states[1], z)
    assert np.allclose(data.y, A2.T @ np.vstack([h, z]))
    assert np.array_equal(data.y, A2.T @ np.vstack(states))


def test_scalar_output_hand_example():
    # l = 3, A1 = 0.5, no recurrence, x = 1: y = (0.5)^3 = 0.125
    params = RnnParams(A1=[[0.5]], U=[[0.0]], A2=[[1.0]], l=3)
    data = rnn_forward(params, np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(data.y[0, 0], 0.125)


def test_sign_symmetry_forward_invariance():
    """Flipping an input row together with its recurrence row leaves outputs
    unchanged for even degree."""
    rng = np.random.default_rng(8)
    A1 = 0.4 * np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    U = 0.3 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A2 = rng.standard_normal((2, 3))
    x = sample_markov_chain(bounded_input_spec(4, 0.5, seed=9), 60, seed=10)
    base = rnn_forward(RnnParams(A1=A1, U=U, A2=A2, l=2), x)
    flip = np.diag([1.0, -1.0])
    flipped = rnn_forward(RnnParams(A1=flip @ A1, U=flip @ U, A2=A2, l=2), x)
    assert np.array_equal(base.y, flipped.y)


def test_sequence_data_validation():
    with pytest.raises(ValueError):
        SequenceData(x=np.zeros((2, 4)), y=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        SequenceData(x=np.zeros((2, 2)), y=np.zeros((1, 2)))
