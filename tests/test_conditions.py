"""Solvability report, spectral radius, and the error-bound family."""

import dataclasses
import json
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_scalar_problem
from fracbvp.conditions import (
    BoundUndefinedError,
    apriori_error,
    check_conditions,
    combined_error_bound,
    delta_gap_bound,
    radius_bound,
    spectral_radius,
)
from fracbvp.fracops import alpha1, kernel_constant
from fracbvp.problem import builtin_problem, problem_from_config

# The steep-forcing builtin, M/K resolved once; every pin below is
# frozen from this configuration (p = 1.5, T = 1, N = 401).
GYRE = builtin_problem("acc-gyre")
REPORT = check_conditions(GYRE)

STIFF_K = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1.0
    alpha1 = 1.0
    alpha2 = 2.0
    N = 51

    [domain]
    lo = 1.0
    hi = 2.0

    [rhs]
    expr = 50 * u1

    [omega_box]
    lo = -333.0
    hi = -320.0

    [bounds]
    M = 844.11
    K = 50.0
    """
)


# --- spectral radius ----------------------------------------------------


def test_spectral_radius_scalar_is_the_entry():
    assert spectral_radius(np.array([[0.3]])) == pytest.approx(0.3, rel=1e-12)
    assert spectral_radius(0.3) == pytest.approx(0.3, rel=1e-12)


def test_spectral_radius_zero_and_identity():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_permutation():
    # max modulus eigenvalue 1, even though the eigenvector cycle never settles
    assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.ones((2, 3)))


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_spectral_radius_matches_eig_oracle(seed, n):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.0, 3.0, size=(n, n))
    want = float(np.max(np.abs(np.linalg.eigvals(Q))))
    assert spectral_radius(Q) == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_spectral_radius_cyclic_matrix():
    # imprimitive: eigenvalues +-sqrt(1.5) share the largest modulus
    Q = np.array([[0.0, 3.0], [0.5, 0.0]])
    assert spectral_radius(Q) == pytest.approx(np.sqrt(1.5), rel=1e-14)
    assert radius_bound(Q) == pytest.approx(np.sqrt(1.5), rel=1e-12)


def test_radius_bound_reducible_stays_above_radius():
    Q = np.array([[0.9, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    assert spectral_radius(Q) == pytest.approx(1.0, rel=1e-14)
    assert radius_bound(Q) >= spectral_radius(Q)
    assert radius_bound(np.zeros((3, 3))) == 0.0


_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@st.composite
def _nonnegative_matrix(draw):
    n = draw(st.integers(1, 5))
    Q = np.array(draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):  # one entry per row and column: cyclic blocks
        Q = Q * np.eye(n)[draw(st.permutations(range(n)))]
    return Q


def _cycle_radius(Q):
    """Exact radius when Q has one positive entry per row and column: the
    largest geometric mean of the entries along a cycle of the pattern."""
    succ = np.argmax(Q > 0, axis=1)
    best = 0.0
    for start in range(len(Q)):
        i, prod, length = start, 1.0, 0
        while i != start or length == 0:
            prod, i, length = prod * Q[i, succ[i]], succ[i], length + 1
        best = max(best, prod ** (1.0 / length))
    return best


def _exact_radius(Q):
    with mpmath.workdps(50):
        eigs = mpmath.eig(mpmath.matrix(Q.tolist()), left=False)[0]
        return float(max(abs(e) for e in eigs))


@given(_nonnegative_matrix())
def test_radius_and_bound_on_nonnegative_matrices(Q):
    n = Q.shape[0]
    r = spectral_radius(Q)
    assert r == pytest.approx(float(np.max(np.abs(np.linalg.eigvals(Q)))), rel=1e-12, abs=0.0)
    if np.count_nonzero(Q) == np.count_nonzero(Q.any(axis=1)) == np.count_nonzero(Q.any(axis=0)) == n:
        assert r == pytest.approx(_cycle_radius(Q), rel=1e-12)
    # eigvals itself is off by a few ulps, so the bound is held against
    # a 50-digit radius
    exact = _exact_radius(Q)
    bound = radius_bound(Q)
    assert bound >= exact
    if np.all(np.linalg.matrix_power(np.eye(n) + (Q > 0), n - 1) > 0):  # irreducible
        assert bound <= exact * (1.0 + 1e-9)


# --- the report on the steep-forcing example ----------------------------


def test_gyre_kernel_constant_pin():
    assert REPORT.kernel_const == pytest.approx(0.18806319451591874, rel=1e-15)
    assert REPORT.beta_over_m == REPORT.kernel_const
    assert REPORT.kernel_const == kernel_constant(GYRE.T, GYRE.p)


def test_gyre_contraction_pins():
    assert REPORT.Q.shape == (1, 1)
    assert REPORT.Q[0, 0] == pytest.approx(0.09403159725795937, rel=1e-15)
    assert REPORT.spectral_radius == pytest.approx(REPORT.Q[0, 0], rel=1e-12)
    assert REPORT.beta[0] == pytest.approx(158.82009645226074, rel=1e-12)
    assert REPORT.beta[0] == REPORT.M[0] * REPORT.kernel_const


def test_gyre_domain_verdicts():
    # The unit box easily admits the normalized constant (2*kc ~ 0.376),
    # but the raw beta ~ 159 ball around alpha1 is nowhere near inside.
    assert REPORT.dbeta_ok is True
    assert REPORT.dbeta_basis == "normalized"
    assert REPORT.dbeta_centered_ok is False
    assert REPORT.ok is True


def test_gyre_sensitivity_radius_closed_form():
    # sup_t |t - T (t/T)^p| at t* = T p^(-1/(p-1)); for p = 3/2 that is
    # tau = 4/9 and the sup equals 4/27.
    assert REPORT.R.shape == (1,)
    assert REPORT.R[0] == pytest.approx(4.0 / 27.0, rel=1e-13)
    grid = np.linspace(0.0, 1.0, 100001)
    numeric = np.max(np.abs(grid - grid**1.5))
    assert numeric <= REPORT.R[0] + 1e-12
    assert REPORT.R[0] == pytest.approx(numeric, rel=1e-8)


@given(st.floats(1.05, 2.0), st.floats(0.5, 2.0))
def test_sensitivity_radius_dominates_grid(p, T):
    prob = builtin_problem("zero-rhs")
    prob = dataclasses.replace(prob, p=p, T=T)
    rep = check_conditions(prob)
    t = np.linspace(0.0, T, 20001)
    assert np.max(np.abs(t - T * (t / T) ** p)) <= rep.R[0] * (1 + 1e-12)


def test_dbeta_fails_on_narrow_domain():
    cfg = (
        STIFF_K.replace("K = 50.0", "K = 0.5")
        .replace("hi = 2.0", "hi = 1.2")
        .replace("alpha2 = 2.0", "alpha2 = 1.1")
    )
    rep = check_conditions(problem_from_config(cfg))
    assert rep.spectral_radius < 1.0
    assert rep.dbeta_ok is False
    assert rep.ok is False


def test_report_requires_resolved_bounds():
    raw = builtin_problem("acc-gyre", resolve=False)
    assert raw.M is None
    with pytest.raises(ValueError, match="no M/K bounds"):
        check_conditions(raw)


def test_report_to_dict_is_json_ready():
    d = REPORT.to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["ok"] is True
    assert back["dbeta_basis"] == "normalized"
    assert back["Q"] == [[REPORT.Q[0, 0]]]
    assert len(back["apriori_bounds"]) == len(REPORT.apriori_bounds)


# --- divergent contraction ----------------------------------------------


def test_stiff_lipschitz_fails_radius_gate():
    rep = check_conditions(problem_from_config(STIFF_K))
    assert rep.spectral_radius == pytest.approx(50.0 * rep.kernel_const, rel=1e-10)
    assert rep.spectral_radius == pytest.approx(9.403159725795937, rel=1e-10)
    assert rep.ok is False
    assert rep.apriori_bounds == []


def test_bounds_undefined_when_radius_exceeds_one():
    rep = check_conditions(problem_from_config(STIFF_K))
    with pytest.raises(BoundUndefinedError, match=">= 1"):
        apriori_error(rep, rep.M, 2)
    with pytest.raises(BoundUndefinedError):
        delta_gap_bound(rep, rep.M, 1)
    with pytest.raises(BoundUndefinedError):
        combined_error_bound(rep, rep.M, 1, 0.1)


# --- a-priori and gap bounds --------------------------------------------


def test_bounds_reject_a_negative_depth():
    # Q^(-1) would give a tube of 9913.2 on the gyre, ten times the m = 0 one
    for bound in (delta_gap_bound, apriori_error):
        with pytest.raises(ValueError, match="m must be >= 0"):
            bound(REPORT, REPORT.M, -1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        combined_error_bound(REPORT, REPORT.M, -1, 0.1)


def test_apriori_error_pin():
    got = apriori_error(REPORT, 1.0, 2)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(0.0018354323598354437, rel=1e-12)


def test_apriori_error_scalar_closed_form():
    q = REPORT.Q[0, 0]
    kc = REPORT.kernel_const
    for m in range(5):
        want = kc * q**m / (1.0 - q) * 844.11
        assert apriori_error(REPORT, 844.11, m)[0] == pytest.approx(want, rel=1e-12)


def test_apriori_list_matches_function_and_truncates():
    assert 1 <= len(REPORT.apriori_bounds) <= 25
    for m, entry in enumerate(REPORT.apriori_bounds):
        assert entry[0] == pytest.approx(apriori_error(REPORT, REPORT.M, m)[0], rel=1e-12)
    cap = 1e-12 * max(1.0, float(REPORT.M[0]))
    assert REPORT.apriori_bounds[-1][0] < cap or len(REPORT.apriori_bounds) == 25
    ratios = [
        REPORT.apriori_bounds[m + 1][0] / REPORT.apriori_bounds[m][0]
        for m in range(len(REPORT.apriori_bounds) - 1)
    ]
    assert np.allclose(ratios, REPORT.Q[0, 0], rtol=1e-9)


def test_apriori_bounds_are_computed_once_and_only_when_read(monkeypatch):
    from fracbvp import conditions

    calls = []
    error = conditions.apriori_error

    def counted(report, M, m):
        calls.append(m)
        return error(report, M, m)

    monkeypatch.setattr(conditions, "apriori_error", counted)
    rep = check_conditions(GYRE)
    assert calls == []  # the gate and the exclusion tube never read the list
    bounds = rep.apriori_bounds
    assert calls == list(range(len(bounds))) and rep.apriori_bounds is bounds
    assert [b.tobytes() for b in bounds] == [b.tobytes() for b in REPORT.apriori_bounds]
    # the list ends at the first bound below 1e-12 M, well before 25 entries
    cap = 1e-12 * float(GYRE.M[0])
    assert len(bounds) < 25 and bounds[-1][0] < cap <= min(b[0] for b in bounds[:-1])


def test_delta_gap_pin():
    got = delta_gap_bound(REPORT, 844.11, 1)
    assert got[0] == pytest.approx(87.61123602234086, rel=1e-12)


def test_delta_gap_scalar_closed_form():
    q = REPORT.Q[0, 0]
    for m in range(4):
        want = q**m * 844.11 / (1.0 - q)
        assert delta_gap_bound(REPORT, 844.11, m)[0] == pytest.approx(want, rel=1e-12)


@given(st.integers(0, 10**6))
def test_bounds_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng)
    rep = check_conditions(prob)
    assert rep.spectral_radius < 0.5
    assert rep.beta[0] == pytest.approx(rep.M[0] * rep.kernel_const, rel=1e-14)
    q, M = rep.Q[0, 0], rep.M[0]
    assert delta_gap_bound(rep, M, 2)[0] == pytest.approx(q**2 * M / (1 - q), rel=1e-10)
    assert apriori_error(rep, M, 3)[0] <= apriori_error(rep, M, 2)[0] + 1e-15


# --- combined depth + parameter-mismatch bound --------------------------


def test_combined_bound_pins():
    bound = combined_error_bound(REPORT, 844.11, 2, 0.24)
    assert bound(0.5)[0] == pytest.approx(1.594365142170954, rel=1e-12)
    assert bound(0.0)[0] == pytest.approx(0.03767762, rel=1e-6)
    assert bound(GYRE.T)[0] == pytest.approx(bound(0.0)[0], rel=1e-14)


def test_combined_bound_endpoint_closed_form():
    gap = 0.24
    q = REPORT.Q[0, 0]
    want = REPORT.R[0] * gap + q**2 * gap
    assert combined_error_bound(REPORT, 844.11, 2, gap)(0.0)[0] == pytest.approx(
        want, rel=1e-13
    )


def test_combined_bound_is_affine_in_alpha1():
    bound = combined_error_bound(REPORT, 844.11, 2, 0.24)
    ts = np.linspace(0.05, 0.95, 7)
    base = bound(0.0)[0]
    slopes = [(bound(t)[0] - base) / alpha1(t, 0.0, GYRE.T, GYRE.p) for t in ts]
    assert np.allclose(slopes, slopes[0], rtol=1e-12)


def test_combined_bound_vectorized_shape():
    bound = combined_error_bound(REPORT, 844.11, 2, 0.24)
    t = np.linspace(0.0, 1.0, 11)
    out = bound(t)
    assert out.shape == (1, 11)
    assert out[0, 0] == pytest.approx(bound(0.0)[0], rel=1e-14)
    assert out[0, 5] == pytest.approx(bound(0.5)[0], rel=1e-14)


def test_combined_bound_zero_gap_reduces_to_apriori_shape():
    bound = combined_error_bound(REPORT, 844.11, 3, 0.0)
    tube = delta_gap_bound(REPORT, 844.11, 3)[0]
    t = 0.37
    assert bound(t)[0] == pytest.approx(alpha1(t, 0.0, 1.0, 1.5) * tube, rel=1e-13)
    assert bound(0.0)[0] == 0.0
