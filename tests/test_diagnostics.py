"""Tests for alignment, error bounds and sweeps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import bookkeeping_reference
from spectral_rnn.diagnostics import (SweepResult, _assignment, align,
                                      concentration_bound, lipschitz_bound,
                                      sample_sweep)
from spectral_rnn.sequence_models import AssumptionError, RnnParams


def _unit_rows(k, d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, d))
    return A / np.linalg.norm(A, axis=1, keepdims=True)


def test_align_identity():
    A1 = _unit_rows(3, 5, 0)
    rep = align(A1, A1)
    assert np.array_equal(rep.permutation, [0, 1, 2])
    assert np.all(rep.signs == 1.0)
    assert rep.max_error == 0.0


def test_align_permutation_and_signs():
    A1 = _unit_rows(3, 5, 1)
    U = 0.2 * np.random.default_rng(2).standard_normal((3, 3))
    A2 = np.random.default_rng(3).standard_normal((4, 3)).T
    perm = np.array([2, 0, 1])
    signs = np.array([1.0, -1.0, 1.0])
    # scramble the estimate: permute rows and flip a sign the way the model
    # symmetry does (flip the A1 row together with its U row)
    A1_est = (signs[:, None] * A1)[perm]
    U_est = (signs[:, None] * U)[np.ix_(perm, perm)]
    A2_est = A2[perm]
    rep = align(A1_est, A1, A2_est, A2, U_est, U)
    assert rep.max_error < 1e-12
    assert rep.u_error < 1e-12
    assert np.allclose(rep.A1, A1)
    assert np.allclose(rep.A2, A2)


def test_align_sign_of_recurrence_ignored():
    # the recurrence is only identified entrywise up to sign, so a global
    # flip of U must not register as error
    A1 = _unit_rows(2, 4, 4)
    U = np.array([[0.1, -0.2], [0.05, 0.3]])
    rep = align(A1, A1, U_est=-U, U_true=U)
    assert rep.u_error < 1e-15


def test_align_odd_degree_flips_output_rows_and_recurrence_columns():
    """For odd degree, flipping a unit negates its output, so its A2 row and
    U column flip with its A1 and U rows: an exact estimate reads 0 at
    degree 3, while degree 2 keeps the A2 row and reads the flip as error."""
    A1 = _unit_rows(3, 5, 6)
    rng = np.random.default_rng(7)
    A2, U = rng.standard_normal((3, 2)), 0.3 * rng.standard_normal((3, 3))
    signs = np.array([1.0, -1.0, 1.0])
    A1_est, A2_est = signs[:, None] * A1, signs[:, None] * A2
    U_est = signs[:, None] * U * signs
    odd = align(A1_est, A1, A2_est, A2, U_est, U, degree=3)
    assert odd.max_error == 0.0 and odd.u_error == 0.0
    assert np.array_equal(odd.A2, A2) and np.array_equal(odd.U, U)
    even = align(A1_est, A1, A2_est, A2, U_est, U)
    assert np.array_equal(even.per_row_errors["A1"], np.zeros(3))
    assert even.per_row_errors["A2"][1] == pytest.approx(2 * np.linalg.norm(A2[1]))
    assert even.max_error == align(A1_est, A1, A2_est, A2, U_est, U, degree=2).max_error


_PROPERTY = settings(max_examples=60)



def _square_costs(max_k):
    """k x k costs, 1 <= k <= max_k, of small integers: ties are common, so
    the optimum is often not unique."""
    return st.integers(1, max_k).flatmap(
        lambda k: arrays(np.float64, (k, k), elements=st.integers(-3, 3).map(float)))


_costs = _square_costs(6)


@_PROPERTY
@given(_costs)
def test_assignment_is_optimal(cost):
    k = cost.shape[0]
    perm = _assignment(cost)
    assert sorted(perm) == list(range(k))
    best = min(cost[np.arange(k), list(p)].sum() for p in itertools.permutations(range(k)))
    assert cost[np.arange(k), perm].sum() == best


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
def test_assignment_matches_scipy(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        cost = rng.standard_normal((k, k))  # continuous: the optimum is unique
        rows, cols = linear_sum_assignment(cost)
        assert np.array_equal(_assignment(cost), cols[np.argsort(rows)])


def _assert_reference_permutation(cost):
    """The search on Python floats returns the array search's permutation,
    the optimum its tie rule picks, not just some optimum."""
    got, want = _assignment(cost), bookkeeping_reference.assignment(cost)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300)
@given(_square_costs(8))
def test_assignment_breaks_ties_as_the_array_search(cost):
    _assert_reference_permutation(cost)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("value", [-1.0, 0.0, 2.5])
def test_assignment_on_equal_costs_is_the_array_search_identity(k, value):
    cost = np.full((k, k), value)
    _assert_reference_permutation(cost)
    assert np.array_equal(_assignment(cost), np.arange(k))


@pytest.mark.parametrize("k", range(1, 9))
def test_assignment_on_abs_cosines_matches_the_array_search(k):
    """align's costs, -|cos| of unit rows: generic rows, rows equal up to
    sign (a tied optimum per pair) and orthonormal rows against the
    coordinate axes (cosines 0 and +-1, rounded)."""
    rng = np.random.default_rng(36000 + k)
    for _ in range(40):
        est, true = _unit_rows(k, k + 2, rng.integers(2 ** 32)), _unit_rows(k, k + 2, rng.integers(2 ** 32))
        _assert_reference_permutation(-np.abs(true @ est.T))
        doubled = np.vstack([est[: (k + 1) // 2]] * 2)[:k] * rng.choice([-1.0, 1.0], (k, 1))
        _assert_reference_permutation(-np.abs(true @ doubled.T))
        basis = np.linalg.qr(rng.standard_normal((k, k)))[0]
        _assert_reference_permutation(-np.abs(np.eye(k) @ np.round(basis, 1).T))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_align_median_is_numpys(k):
    """align's median_error has np.median's bits over its k, 2k or 3k row
    errors, odd and even counts, and is NaN when an error is."""
    rng = np.random.default_rng(k)
    A1, A2, U = _unit_rows(k, 6, k), rng.standard_normal((k, 3)), rng.standard_normal((k, k))
    est = [M + 0.1 * rng.standard_normal(M.shape) for M in (A1, A2, U)]
    for args in [(est[0], A1), (est[0], A1, est[1], A2), (est[0], A1, est[1], A2, est[2], U),
                 (A1, A1, A2, A2)]:
        rep = align(*args)
        errs = np.concatenate(list(rep.per_row_errors.values()))
        assert rep.median_error == float(np.median(errs))
    est[1][k // 2, 0] = np.nan
    assert math.isnan(align(est[0], A1, est[1], A2).median_error)


@_PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
def test_align_invariant_under_unit_symmetries(seed, k):
    """Permuting the estimate's units and flipping their signs the way the
    model symmetry does leaves the aligned estimate and its errors unchanged."""
    rng = np.random.default_rng(seed)
    A1, A2 = _unit_rows(k, 7, seed), rng.standard_normal((k, 4))
    U = 0.3 * rng.standard_normal((k, k))
    est = [M + 0.05 * rng.standard_normal(M.shape) for M in (A1, A2, U)]
    perm, signs = rng.permutation(k), rng.choice([-1.0, 1.0], k)
    moved = [(signs[:, None] * est[0])[perm], est[1][perm],
             (signs[:, None] * est[2])[np.ix_(perm, perm)]]
    a = align(est[0], A1, est[1], A2, est[2], U)
    b = align(moved[0], A1, moved[1], A2, moved[2], U)
    for name in ("A1", "A2", "U"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(perm[b.permutation], a.permutation)
    assert (a.max_error, a.median_error, a.u_error) == (b.max_error, b.median_error, b.u_error)


def test_align_shape_mismatch():
    with pytest.raises(ValueError, match="matching shapes"):
        align(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="non-finite"):
        align(np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2))


def test_lipschitz_bound_formula():
    params = RnnParams(A1=0.3 * np.eye(2), U=0.1 * np.eye(2),
                       A2=0.7 * np.eye(2), l=2)
    got = lipschitz_bound(params, s2_norm=1.5, gamma=2.0, n=100)
    want = 0.7 * (0.3 / (1.0 - 2 * 0.1) * 1.5 + 3.0 * 2.0) / 100
    assert abs(got - want) < 1e-15


def test_lipschitz_bound_contraction_violation():
    params = RnnParams(A1=0.3 * np.eye(2), U=0.6 * np.eye(2),
                       A2=np.eye(2), l=2)
    with pytest.raises(AssumptionError, match="l \\* \\|\\|U\\|\\| >= 1"):
        lipschitz_bound(params, s2_norm=1.0, gamma=1.0, n=10)


def test_concentration_bound_formula():
    G, theta, c, n, d1, d2, delta = 2.0, 0.5, 1.3, 1000, 4, 9, 0.05
    got = concentration_bound(G, theta, c, n, d1, d2, delta)
    lead = G * (1.0 + 1.0 / (math.sqrt(8.0) * c * n ** 1.5)) / (1.0 - theta)
    want = lead * math.sqrt(8.0 * c * c * n * math.log((d1 + d2) / delta))
    assert abs(got - want) < 1e-12 * want


def test_concentration_bound_invalid_args():
    with pytest.raises(AssumptionError, match="mixing"):
        concentration_bound(1.0, 1.0, 1.0, 10, 2, 2, 0.1)
    with pytest.raises(ValueError):
        concentration_bound(1.0, 0.5, -1.0, 10, 2, 2, 0.1)
    with pytest.raises(ValueError):
        concentration_bound(1.0, 0.5, 1.0, 10, 2, 2, 1.5)


def test_sweep_csv_header():
    res = SweepResult(rows=[(100, 0, "A1", 1, 0.25)])
    lines = res.csv_lines()
    assert lines[0] == "n,seed,matrix,row,error"
    assert lines[1] == "100,0,A1,1,0.25"


def test_sample_sweep_slope_on_synthetic_decay():
    def cell(n, seed):
        rng = np.random.default_rng(seed)
        err = 3.0 / math.sqrt(n) * math.exp(0.01 * rng.standard_normal())
        return [("A1", 0, err)]

    res = sample_sweep(cell, ns=[10 ** 3, 10 ** 4, 10 ** 5],
                       seeds=range(8), workers=1)
    assert -0.55 < res.slope < -0.45
    assert len(res.rows) == 24


def test_sample_sweep_deterministic_in_workers():
    def cell(n, seed):
        rng = np.random.default_rng(seed * 1000 + n)
        return [("A1", r, float(rng.random())) for r in range(2)]

    ns = [100, 200, 400]
    seeds = [0, 1, 2]
    base = sample_sweep(cell, ns, seeds, workers=1)
    for workers in (2, 4):
        other = sample_sweep(cell, ns, seeds, workers=workers)
        assert other.rows == base.rows
        assert other.slope == base.slope


def test_sample_sweep_empty_cells_skipped():
    def cell(n, seed):
        if n == 200:
            return []
        return [("A1", 0, 1.0 / n)]

    res = sample_sweep(cell, ns=[100, 200, 400], seeds=[0], workers=1)
    kept = {row[0] for row in res.rows}
    assert kept == {100, 400}
    assert np.isfinite(res.slope)


def test_sample_sweep_single_n_no_slope():
    res = sample_sweep(lambda n, s: [("A1", 0, 0.5)], ns=[100], seeds=[0])
    assert math.isnan(res.slope)
