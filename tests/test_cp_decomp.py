"""CP decomposition: planted-tensor recovery, candidate selection, failure."""

import gc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bookkeeping_reference
from spectral_rnn import cp_decomp
from spectral_rnn.cp_decomp import decompose
from spectral_rnn.moments import cross_moment_s2, population_moment_oracle
from spectral_rnn.recovery import recover_scalar
from spectral_rnn.sequence_models import (AssumptionError, RnnParams,
                                          bounded_input_spec, rnn_forward,
                                          sample_markov_chain)


def _planted(d, k, seed, weights=None, orthogonal=False):
    rng = np.random.default_rng(seed)
    if orthogonal:
        B = np.linalg.qr(rng.standard_normal((d, k)))[0]
    else:
        B = rng.standard_normal((d, k))
        B /= np.linalg.norm(B, axis=0)
    w = np.asarray(weights if weights is not None else rng.uniform(1.0, 3.0, k))
    A = rng.standard_normal((d, k))
    A /= np.linalg.norm(A, axis=0)
    T = np.einsum("r,ar,ir,jr->aij", w, A, B, B)
    return T, w, A, B


def _best_column_error(est, truth):
    """Max over true columns of the error to the best matching estimate column,
    modulo sign."""
    errs = []
    for r in range(truth.shape[1]):
        cand = []
        for s in range(est.shape[1]):
            for sign in (1.0, -1.0):
                cand.append(np.linalg.norm(sign * est[:, s] - truth[:, r]))
        errs.append(min(cand))
    return max(errs)


def test_planted_asymmetric_exact():
    T, w, A, B = _planted(8, 3, seed=0)
    cp = decompose(T, 3, seed=1)
    assert cp.rank == 3
    rel = np.linalg.norm(cp.reconstruct() - T) / np.linalg.norm(T)
    assert rel < 1e-10
    assert _best_column_error(cp.factor, B) < 1e-8


def test_planted_orthogonal_exact():
    T, w, A, B = _planted(8, 3, seed=2, orthogonal=True)
    cp = decompose(T, 3, seed=3)
    assert np.linalg.norm(cp.reconstruct() - T) / np.linalg.norm(T) < 1e-12
    assert _best_column_error(cp.factor, B) < 1e-10


def test_planted_noise_robustness():
    T, w, A, B = _planted(8, 3, seed=4)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(T.shape)
    Tn = T + 1e-3 * np.linalg.norm(T) / np.linalg.norm(noise) * noise
    cp = decompose(Tn, 3, seed=6)
    assert _best_column_error(cp.factor, B) <= 1e-2


def test_weights_sorted_and_residual():
    T, w, A, B = _planted(6, 3, seed=7, weights=[1.0, 2.5, 1.7])
    cp = decompose(T, 3, seed=8)
    mags = np.abs(cp.weights)
    assert np.all(mags[:-1] >= mags[1:] - 1e-12)
    assert cp.residual(T) < 1e-10


def _signed_weights(cp):
    """Weights of a fully symmetric fit, signed by <mode1_r, factor_r>."""
    return np.sign(np.sum(cp.mode1 * cp.factor, axis=0)) * cp.weights


def test_symmetric_planted_exact():
    """A fully symmetric tensor is pair-symmetric with mode1 = +-factor."""
    rng = np.random.default_rng(9)
    B = np.linalg.qr(rng.standard_normal((7, 3)))[0]
    w = np.array([2.0, 1.5, 1.0])
    T = np.einsum("r,ir,jr,kr->ijk", w, B, B, B)
    cp = decompose(T, 3, seed=10)
    assert np.linalg.norm(cp.reconstruct() - T) / np.linalg.norm(T) < 1e-10
    assert np.allclose(np.abs(np.sum(cp.mode1 * cp.factor, axis=0)), 1.0, atol=1e-10)


def test_symmetric_signed_weights():
    """A negative-weight component shows as mode1 = -factor, so the weight
    signed by <mode1, factor> is negative (up to the v -> -v, w -> -w
    symmetry of odd-order rank-1 terms, which the factor sign convention fixes)."""
    rng = np.random.default_rng(11)
    B = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    w = np.array([2.0, -1.2])
    T = np.einsum("r,ir,jr,kr->ijk", w, B, B, B)
    cp = decompose(T, 2, seed=12)
    assert np.linalg.norm(cp.reconstruct() - T) / np.linalg.norm(T) < 1e-10
    signed = _signed_weights(cp)
    rebuilt = np.einsum("r,ir,jr,kr->ijk", signed, cp.factor, cp.factor, cp.factor)
    assert np.linalg.norm(rebuilt - T) / np.linalg.norm(T) < 1e-10
    assert np.allclose(np.abs(signed), [2.0, 1.2], atol=1e-10)
    flips = np.sign(B.T @ cp.factor).diagonal()  # B's columns in weight order
    assert np.allclose(signed * flips, w, atol=1e-10)


def test_zero_tensor_rank_zero():
    cp = decompose(np.zeros((2, 3, 3)), 2, seed=0)
    assert cp.rank == 0
    assert np.allclose(cp.reconstruct(), 0.0)


def test_rank_detection_drops_tiny_components():
    T, w, A, B = _planted(6, 2, seed=13)
    cp = decompose(T, 3, seed=14)  # ask for one more than the true rank
    assert cp.rank == 2
    assert np.linalg.norm(cp.reconstruct() - T) / np.linalg.norm(T) < 1e-8


def test_rank_deficient_raises():
    """A rank-1 symmetric tensor asked for rank 3: every draw raises or keeps
    fewer than 3 components, so the scalar stage 1 fails loudly."""
    rng = np.random.default_rng(15)
    b = rng.standard_normal(5)
    b /= np.linalg.norm(b)
    T = np.einsum("i,j,k->ijk", b, b, b)
    with pytest.raises(AssumptionError, match="rank") as info:
        recover_scalar(T, 3, seed=16)
    assert info.value.stage == "stage1"


def test_whiten_orthogonalizes_components():
    rng = np.random.default_rng(17)
    B = rng.standard_normal((6, 3))
    B /= np.linalg.norm(B, axis=0)
    w = np.array([2.0, 1.4, 1.0])
    T = np.einsum("r,ir,jr,kr->ijk", w, B, B, B)
    # the components are not orthogonal; the pencil's eigenvectors still
    # recover them exactly
    cp = decompose(T, 3, seed=18)
    assert np.linalg.norm(cp.reconstruct() - T) / np.linalg.norm(T) < 1e-8
    assert _best_column_error(cp.factor, B) < 1e-8


def test_odeco_tensor():
    rng = np.random.default_rng(19)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3]
    w = np.array([3.0, 2.0, 1.0])
    T = np.einsum("r,ir,jr,kr->ijk", w, Q, Q, Q)
    cp = decompose(T, 3, seed=20)
    assert _best_column_error(cp.factor, Q) < 1e-8
    assert np.allclose(np.abs(_signed_weights(cp)), w, atol=1e-8)


def test_reconstruct_shape_and_modes():
    T, w, A, B = _planted(5, 2, seed=24)
    cp = decompose(T, 2, seed=25)
    assert cp.reconstruct().shape == T.shape
    assert cp.mode1.shape[0] == T.shape[0]
    assert cp.factor.shape[0] == T.shape[1]


def _no_definite_combo(seed, noise):
    """Pair-symmetric rank-3 tensor whose mode-1 vectors have zero in their
    convex hull, so no slice combination is definite (Gordan) and no
    whitening by one exists; plus noise of relative size noise, symmetric in
    the two shared modes."""
    rng = np.random.default_rng(seed)
    P = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    phi = np.array([0.0, 2.1, 4.3]) + rng.uniform(0, 2 * np.pi)
    A = P @ np.stack([np.cos(phi), np.sin(phi)])
    B = rng.standard_normal((6, 3))
    B /= np.linalg.norm(B, axis=0)
    T = np.einsum("r,ar,ir,jr->aij", [1.5, 1.2, 1.0], A, B, B)
    E = rng.standard_normal(T.shape)
    E += E.transpose(0, 2, 1)
    return T + noise * np.linalg.norm(T) / np.linalg.norm(E) * E, B


def test_fallback_exact_without_noise():
    for seed in range(8):
        T, B = _no_definite_combo(seed, 0.0)
        cp = decompose(T, 3, seed=0)
        assert _best_column_error(cp.factor, B) < 1e-12


def test_fallback_works_in_the_signal_subspace():
    """With 0.1% noise, eigenvectors of M1 pinv(M2) over all six dimensions
    fail with rank deficiency on 7 of these 47 tensors and reach a median
    factor error of 0.9 on the rest; projected onto the top-3 subspace
    first, one pencil read a worst error of 0.027 and the lowest-residual of
    eight reads 1.3e-3."""
    errs = []
    for seed in range(47):
        T, B = _no_definite_combo(seed, 1e-3)
        errs.append(_best_column_error(decompose(T, 3, seed=0).factor, B))
    assert np.median(errs) < 0.01
    assert max(errs) < 0.05


# planted CP recovery on the one path, for both tensor shapes: random sizes,
# well-conditioned shared factors, weights in [0.5, 1.5] so they can nearly tie
@st.composite
def _shape(draw):
    d = draw(st.integers(2, 7))
    k = draw(st.integers(1, d))
    weights = draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k))
    return d, k, np.array(weights), draw(st.integers(0, 2**32 - 1))


def _unit_columns(rng, d, k):
    """d x k unit columns with smallest singular value at least 0.05."""
    B = rng.standard_normal((d, k))
    B /= np.linalg.norm(B, axis=0)
    assume(np.linalg.svd(B, compute_uv=False)[-1] >= 0.05)
    return B


@settings(max_examples=100)
@given(shape=_shape(), extra=st.integers(0, 2))
def test_planted_pair_symmetric_property(shape, extra):
    d, k, w, seed = shape
    rng = np.random.default_rng(seed)
    B = _unit_columns(rng, d, k)
    A = rng.standard_normal((k + extra, k))
    A /= np.linalg.norm(A, axis=0)
    T = np.einsum("r,ar,ir,jr->aij", w, A, B, B)
    cp = decompose(T, k, seed=seed % 1000)
    assert cp.rank == k
    assert cp.residual(T) < 1e-8


@settings(max_examples=30)
@given(shape=_shape(), signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=7, max_size=7))
def test_planted_cubic_oracle_property(shape, signs):
    """The scalar cubic oracle 6 sum_k a2_k a_k^(x)3 with signed a2: the
    recovered (A1, a2) rebuild it, so rows and signed weights are right
    modulo the (a, a2) -> (-a, -a2) symmetry."""
    d, k, w, seed = shape
    rng = np.random.default_rng(seed)
    A1 = _unit_columns(rng, d, k).T
    a2 = np.array(signs[:k]) * w
    T3 = population_moment_oracle(RnnParams(A1=A1, U=np.zeros((k, k)), A2=a2[:, None], l=3),
                                  "S3-order4")[0]
    est = recover_scalar(T3, k, seed=seed % 1000)
    rebuilt = 6.0 * np.einsum("r,ri,rj,rk->ijk", est.A2[:, 0], est.A1, est.A1, est.A1)
    assert np.linalg.norm(rebuilt - T3) / np.linalg.norm(T3) < 1e-10


def _rank_one_cube():
    """b (x) b (x) b, which has rank 1, for fits asked for rank 3."""
    rng = np.random.default_rng(15)
    b = rng.standard_normal(5)
    b /= np.linalg.norm(b)
    return np.einsum("i,j,k->ijk", b, b, b), b


def test_repeated_factor_is_not_returned():
    """One random pencil raised here on 4 of these 16 seeds and, at seed 5,
    returned b twice (the copy with weight 6e-10); the lowest-residual
    candidate is b alone on every seed."""
    T, b = _rank_one_cube()
    for seed in range(16):
        cp = decompose(T, 3, seed=seed)
        assert cp.rank == 1
        assert abs(cp.factor[:, 0] @ b) > 1.0 - 1e-12


def test_failed_candidates_leave_no_reference_cycle():
    """A kept exception's traceback would tie decompose's frame, and its
    callers' arrays, into a cycle that only the cyclic collector frees.
    Some candidates fail on the rank-1 cube at seed 10; every one does on
    e_1 (x) e_1 (x) e_1, whose slice pencils are all singular."""
    cube, _ = _rank_one_cube()
    spike = np.zeros((3, 3, 3))
    spike[0, 0, 0] = 1.0
    stage = message = None
    gc.collect()
    gc.disable()
    try:
        cube_failed = decompose(cube, 3, seed=10).failed
        try:
            decompose(spike, 3, seed=0)
        except AssumptionError as exc:
            stage, message = exc.stage, str(exc)
        found = gc.collect()
    finally:
        gc.enable()
    assert 0 < cube_failed < cp_decomp.CANDIDATES
    assert stage == "stage1" and "rank deficiency" in message
    assert found == 0


def _sequential_decompose(T, k, seed):
    """decompose as one loop iteration per candidate, kept as the reference
    for the stacked pass: (the kept fit, how many candidates were skipped),
    or (None, CANDIDATES) when every one is."""
    T = np.asarray(T, dtype=float)
    d1, d = T.shape[0], T.shape[1]
    V = np.linalg.svd(T.transpose(1, 0, 2).reshape(d, -1), full_matrices=False)[0][:, :k]
    core = np.tensordot(np.moveaxis(np.tensordot(T, V, axes=([1], [0])), -1, 1), V,
                        axes=([2], [0]))
    rng = np.random.default_rng(seed)

    def slice_matrix(theta):
        M = np.tensordot(theta, core, axes=(0, 0))
        return 0.5 * (M + M.T)

    def candidate():
        M1 = slice_matrix(rng.standard_normal(d1))
        M2 = slice_matrix(rng.standard_normal(d1))
        C = V @ np.real(np.linalg.eig(M1 @ np.linalg.inv(M2))[1])
        norms = np.linalg.norm(C, axis=0)
        if np.any(norms < cp_decomp.DEFAULT_TOL):
            raise AssumptionError("rank deficiency", stage="stage1")
        factor = C / norms
        G = np.stack([np.outer(factor[:, r], factor[:, r]).ravel() for r in range(k)], axis=1)
        B, _, grank, _ = np.linalg.lstsq(G, T.reshape(d1, -1).T, rcond=None)
        if grank < k:
            raise AssumptionError("rank deficiency", stage="stage1")
        B = B.T
        weights = np.linalg.norm(B, axis=0)
        mode1 = np.divide(B, weights, out=np.zeros_like(B), where=weights > 0)
        return cp_decomp.CpDecomposition(*bookkeeping_reference.finalize(weights, mode1, factor))

    fits = []
    for _ in range(cp_decomp.CANDIDATES):
        try:
            fits.append(candidate())
        except (AssumptionError, np.linalg.LinAlgError):
            continue
    failed = cp_decomp.CANDIDATES - len(fits)
    if not fits:
        return None, failed
    return min(fits, key=lambda cp: cp.residual(T)), failed


def _assert_matches_sequential(T, k, seed):
    """decompose skips as many candidates as the reference and keeps its fit:
    weights, mode1 and factor within 1e-12 relative, up to the order of
    components whose weights tie to rounding."""
    want, failed = _sequential_decompose(T, k, seed)
    if want is None:
        with pytest.raises(AssumptionError, match="rank deficiency"):
            decompose(T, k, seed=seed)
        return
    got = decompose(T, k, seed=seed)
    assert got.failed == failed
    assert got.rank == want.rank
    a, b = (np.vstack([cp.weights, cp.mode1, cp.factor]) for cp in (got, want))
    gap = np.max(np.abs(a[:, :, None] - b[:, None, :]), axis=0)  # got x reference columns
    match = np.argmin(gap, axis=0)
    assert sorted(match) == list(range(want.rank))
    assert np.all(gap[match, np.arange(want.rank)] <= 1e-12 * np.max(np.abs(b)))


@settings(max_examples=100)
@given(shape=_shape(), extra=st.integers(0, 2))
def test_stacked_candidates_match_the_sequential_loop_on_planted(shape, extra):
    d, k, w, seed = shape
    rng = np.random.default_rng(seed)
    B = _unit_columns(rng, d, k)
    A = rng.standard_normal((k + extra, k))
    A /= np.linalg.norm(A, axis=0)
    _assert_matches_sequential(np.einsum("r,ar,ir,jr->aij", w, A, B, B), k, seed % 1000)


def test_stacked_candidates_match_the_sequential_loop_on_hard_tensors():
    """Candidates that fail (the rank-1 cube asked for rank 3) and tensors
    with no definite slice combination, exact and noisy, where the candidates'
    fits differ, so matching the reference picks out the kept candidate."""
    cube, _ = _rank_one_cube()
    for seed in range(16):
        _assert_matches_sequential(cube, 3, seed)
    for seed in range(8):
        for noise in (0.0, 1e-3):
            T, _ = _no_definite_combo(seed, noise)
            _assert_matches_sequential(T, 3, seed)


def test_stacked_solve_failure_is_a_stage1_error(monkeypatch):
    """All candidates share one eig call, so a LAPACK failure there cannot
    skip one candidate; it fails stage 1 with the stage's name instead."""
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    T, *_ = _planted(6, 3, seed=0)
    with pytest.raises(AssumptionError, match="did not converge") as info:
        decompose(T, 3, seed=1)
    assert info.value.stage == "stage1"


def _sign_edge_columns(d, rng):
    """Factor columns at the edges of _finalize's sign rule: zeros (of either
    sign), a NaN inside or first, and a first entry of either sign just
    below, at and just above sig_tol times the column's largest magnitude,
    followed by an entry of the other sign."""
    cols = [np.zeros(d), -np.zeros(d)]
    for where in (0, d // 2):
        col = -np.abs(rng.standard_normal(d))
        col[where] = np.nan
        cols.append(col)
    for toward in (0.0, None, np.inf):
        for sign in (-1.0, 1.0):
            col = rng.uniform(-1.0, 1.0, d)
            col[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 4.0)
            cut = 1e-8 * np.max(np.abs(col))
            col[0] = sign * (cut if toward is None else np.nextafter(cut, toward))
            col[1] = -sign * rng.uniform(0.1, 1.0)
            cols.append(col)
    return cols


@pytest.mark.parametrize("d", [3, 5, 8])
def test_finalize_keeps_the_sign_rule_of_the_column_loop(d):
    """The one-pass sign rule gives the column loop's bits, layout included,
    on edge columns mixed with generic ones, with weights that tie, fall
    under the rank cut or are all zero; the inputs are left as they were."""
    rng = np.random.default_rng(d)
    edges = _sign_edge_columns(d, rng)
    for trial in range(40):
        k = int(rng.integers(1, len(edges) + 3))
        pool = edges + [rng.standard_normal(d) for _ in range(3)]
        factor = np.stack([pool[i] for i in rng.permutation(len(pool))[:k]], axis=1)
        mode1 = rng.standard_normal((d + 1, k))
        weights = rng.choice([0.0, 1e-12, 0.5, 1.0, 2.0], k) if trial % 4 else np.zeros(k)
        before = [a.copy() for a in (weights, mode1, factor)]
        got = cp_decomp._finalize(weights, mode1, factor)
        want = bookkeeping_reference.finalize(weights.copy(), mode1.copy(), factor.copy())
        for g, w in zip(got, want):
            assert (g.shape, g.strides, g.tobytes()) == (w.shape, w.strides, w.tobytes())
        for a, b in zip((weights, mode1, factor), before):
            assert a.tobytes() == b.tobytes()


def test_decompose_is_deterministic_given_its_seed():
    T, _ = _no_definite_combo(3, 1e-3)
    first, again = decompose(T, 3, seed=7), decompose(T, 3, seed=7)
    for name in ("weights", "mode1", "factor"):
        assert np.array_equal(getattr(first, name), getattr(again, name))


@pytest.mark.parametrize("seed", range(4))
def test_decompose_bits_do_not_depend_on_the_memory_layout(seed):
    """The moment kernel's T2, a C-ordered copy and a Fortran-ordered copy
    hold the same values, so they decompose to the same bytes and give the
    same residual."""
    rng = np.random.default_rng(seed)
    d_x, d_h, d_y = 4 + seed % 3, 3, 5
    params = RnnParams(A1=np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T,
                       U=0.3 * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0],
                       A2=rng.standard_normal((d_h, d_y)), l=2)
    spec = bounded_input_spec(d_x, 0.5, seed=seed)
    T2 = cross_moment_s2(spec, rnn_forward(params, sample_markov_chain(spec, 5000, seed))).value
    fits = [decompose(T, d_h, seed=seed)
            for T in (T2, np.ascontiguousarray(T2), np.asfortranarray(T2))]
    for name in ("weights", "mode1", "factor"):
        want = getattr(fits[0], name).tobytes()
        assert [getattr(cp, name).tobytes() for cp in fits[1:]] == [want, want], name
    residuals = {fits[0].residual(T) for T in (T2, np.ascontiguousarray(T2), np.asfortranarray(T2))}
    assert len(residuals) == 1


def _einsum_residuals(T, weights, mode1, factor):
    """||T - fit_c|| of each candidate with the fit rebuilt from its factors
    by einsum, the scoring the designs replaced; kept as the reference."""
    fit = np.einsum("cr,car,cir,cjr->caij", weights, mode1, factor, factor)
    return np.linalg.norm((T - fit).reshape(len(fit), -1), axis=1)


def _designs(factor):
    """The stacked c x d^2 x k designs decompose forms from c x d x k factors."""
    c, d, k = factor.shape
    return (factor[:, :, None, :] * factor[:, None, :, :]).reshape(c, d * d, k)


@settings(max_examples=100)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(2, 6).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d))), st.integers(0, 2**32 - 1))
def test_candidate_residuals_match_the_einsum_reconstruction(c, d1, dk, seed):
    """Scoring the candidates on their designs gives the residuals of the
    einsum reconstruction to 1e-12 relative, weights cut to zero included."""
    d, k = dk
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((c, d, k))
    factor /= np.linalg.norm(factor, axis=1, keepdims=True)
    mode1 = rng.standard_normal((c, d1, k))
    mode1 /= np.linalg.norm(mode1, axis=1, keepdims=True)
    weights = rng.uniform(0.5, 3.0, (c, k)) * (rng.random((c, k)) > 0.2)
    T = (np.einsum("r,ar,ir,jr->aij", weights[0], mode1[0], factor[0], factor[0])
         + 0.1 * rng.standard_normal((d1, d, d)))
    got = cp_decomp._fit_residuals(np.asfortranarray(T.reshape(d1, -1)), weights, mode1,
                                   _designs(factor))
    want = _einsum_residuals(T, weights, mode1, factor)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_decompose_keeps_the_einsum_scored_candidate_on_simulated_t2(monkeypatch):
    """On 20 simulated T2s (n = 2e4) decompose keeps the candidate that the
    einsum reconstruction scores lowest, and every candidate's residual
    matches that reconstruction's to 1e-12 relative.  The factors are read
    back from the designs: column r of G_c is the vec of f f^T."""
    calls, real = [], cp_decomp._fit_residuals

    def spy(unfolded, weights, mode1, G):
        out = real(unfolded, weights, mode1, G)
        calls.append((weights, mode1, G, out))
        return out

    monkeypatch.setattr(cp_decomp, "_fit_residuals", spy)
    compared = 0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        d_x, d_h, d_y = 4 + seed % 3, 3, 5
        params = RnnParams(A1=np.linalg.qr(rng.standard_normal((d_x, d_h)))[0].T,
                           U=0.3 * np.linalg.qr(rng.standard_normal((d_h, d_h)))[0],
                           A2=rng.standard_normal((d_h, d_y)), l=2)
        spec = bounded_input_spec(d_x, 0.5, seed=seed)
        data = rnn_forward(params, sample_markov_chain(spec, 20000, seed=seed))
        T2 = cross_moment_s2(spec, data).value
        calls.clear()
        cp = decompose(T2, d_h, seed=seed)
        ((weights, mode1, G, got),) = calls
        F = G.transpose(0, 2, 1).reshape(len(G), d_h, d_x, d_x)
        top = np.argmax(np.diagonal(F, axis1=2, axis2=3), axis=2)
        pick = np.take_along_axis(F, top[:, :, None, None], axis=3)[..., 0]
        factor = (pick / np.sqrt(np.take_along_axis(pick, top[:, :, None], axis=2))
                  ).transpose(0, 2, 1)
        want = _einsum_residuals(T2, weights, mode1, factor)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert np.argmin(got) == np.argmin(want)
        assert cp.rank == d_h
        compared += len(got) > 1
    assert compared == 20
