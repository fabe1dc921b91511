"""Determining function: probes, root search, exclusion, existence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import coupled_problem, escape_rows, random_scalar_problem, zero_rhs_problem
from fracbvp.conditions import check_conditions, delta_gap_bound
from fracbvp import determine
from fracbvp.determine import (
    _BATCH_VALUES,
    _brent,
    NoRootBracketError,
    NonConvergenceError,
    SolverConfig,
    delta_at,
    delta_m,
    exclusion_sweep,
    existence_check_scalar,
    solve_depths,
    solve_determining,
)
from fracbvp.fracops import ProductTrapezoid
from fracbvp.iterate import DomainEscapeError, run_iteration
from fracbvp.problem import Box, Problem, builtin_problem
from fracbvp import exprlang

GAMMA_2P5 = math.gamma(2.5)


def _two_component(omega_lo=(-1.0, -1.0), omega_hi=(3.0, 3.0)):
    return Problem(
        p=1.5,
        T=1.0,
        alpha1=np.array([0.0, 0.0]),
        alpha2=np.array([1.0, 2.0]),
        domain=Box(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
        f=exprlang.parse("0; 0", 2, {}),
        f_source="0; 0",
        constants={},
        omega=Box(np.array(omega_lo), np.array(omega_hi)),
        M=np.array([0.0, 0.0]),
        K=np.zeros((2, 2)),
        N=51,
    )


# --- probing Delta_m ------------------------------------------------------


def test_delta_zero_rhs_closed_form(zero_rhs):
    # f = 0 collapses Delta_m to Gamma(p+1)/T^p (alpha2 - alpha1 - chi T)
    for m in (0, 1, 3):
        for chi in (-1.0, 0.0, 0.5, 1.0, 2.0):
            want = GAMMA_2P5 * (1.0 - chi)
            assert delta_at(zero_rhs, chi, m)[0] == pytest.approx(want, abs=1e-13)


def test_delta_sign_convention(zero_rhs):
    # steeper-than-root slopes overshoot alpha2, so Delta goes negative
    assert delta_at(zero_rhs, 1.5, 0)[0] < 0.0 < delta_at(zero_rhs, 0.5, 0)[0]


def test_delta_depth_zero_pins(gyre):
    assert delta_at(gyre, -333.0, 0)[0] == pytest.approx(15.752975882428643, rel=1e-12)
    assert delta_at(gyre, -320.0, 0)[0] == pytest.approx(-0.878739880153546, rel=1e-12)


def test_delta_depth_zero_against_adaptive_quadrature(gyre):
    # independent oracle: adaptive quadrature of the weak singularity
    # (substituted away via w = T - s) along the closed-form u0
    p, T, om = 1.5, 1.0, gyre.constants["omega"]

    def f(t, u):
        et = np.exp(t)
        return -2 * et / (1 + et) ** 2 * u - 2 * om * et / (1 + et) ** 3 * (1 - et)

    for chi in (-333.0, -320.0):
        u0 = lambda t: 1.0 + chi * t + (1.0 - chi) * t**p
        integral, err = quad(lambda w: w ** (p - 1) * f(T - w, u0(T - w)), 0.0, T, limit=200)
        assert err < 1e-6
        want = GAMMA_2P5 * (1.0 - chi) - p * integral
        assert delta_at(gyre, chi, 0)[0] == pytest.approx(want, abs=1e-3)


def test_delta_depth_two_pins(gyre):
    assert delta_at(gyre, -333.0, 2)[0] == pytest.approx(0.8930596668404291, rel=1e-12)
    assert delta_at(gyre, -320.0, 2)[0] == pytest.approx(-15.7349224231873, rel=1e-12)


def test_delta_m_matches_delta_at(gyre):
    approx = run_iteration(gyre, -325.0, m_max=2, tol=0.0)
    via_solution = delta_m(gyre, approx)
    direct = delta_at(gyre, -325.0, 2)
    assert via_solution[0] == direct[0]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_delta_at_runs_one_convolution_per_step(gyre, monkeypatch, m):
    # the endpoint integral is a dot product, not another convolution
    calls = []
    running = ProductTrapezoid.running

    def counted(self, values):
        calls.append(len(values))
        return running(self, values)

    monkeypatch.setattr(ProductTrapezoid, "running", counted)
    delta_at(gyre, -325.0, m)
    assert len(calls) == m
    # a stack of B probes convolves ceil(B / rows) chunks per step, each
    # of at most rows * n rows (163 probes at N = 401)
    rows = _BATCH_VALUES // (gyre.n * gyre.N)
    calls.clear()
    delta_at(gyre, np.linspace(-334.0, -318.0, 2 * rows + 1)[:, np.newaxis], m)
    assert len(calls) == 3 * m
    assert all(size <= rows * gyre.n for size in calls)


def test_delta_at_collects_the_probe_escapes(gyre):
    escapes = []
    value = delta_at(gyre, -325.0, 2, escapes)
    approx = run_iteration(gyre, -325.0, m_max=2, tol=0.0)
    assert len(escapes) == 1  # one record for the one batch
    assert escape_rows(escapes) == escape_rows([approx.escapes]) and len(approx.escapes) == 3
    assert value[0] == delta_at(gyre, -325.0, 2)[0]


def test_delta_at_checks_the_probed_iterate_under_strict_policy(gyre):
    # at m = 0 the probe evaluates f along u_0 alone, which leaves D
    strict = dataclasses.replace(gyre, domain_policy="strict")
    with pytest.raises(DomainEscapeError, match="leaves D"):
        delta_at(strict, -325.0, 0)


def test_strict_policy_stack_raises(gyre):
    strict = dataclasses.replace(gyre, domain_policy="strict")
    with pytest.raises(DomainEscapeError, match="leaves D"):
        delta_at(strict, np.array([[-330.0], [-325.0], [-320.0]]), 2)


def test_delta_at_rejects_a_chi1_of_the_wrong_shape(gyre):
    # a flat list of slopes for n = 1 is not a stack; (B, 1) is
    with pytest.raises(ValueError, match="chi1 must have shape"):
        delta_at(gyre, [-330.0, -325.0], 2)
    with pytest.raises(ValueError, match="chi1 must have shape"):
        delta_at(gyre, np.zeros((2, 1, 1)), 2)


def test_delta_at_of_an_empty_stack_is_empty(gyre):
    escapes = []
    out = delta_at(gyre, np.empty((0, 1)), 2, escapes)
    assert out.shape == (0, 1) and out.dtype == float and escapes == []
    assert delta_at(coupled_problem(), np.empty((0, 2)), 1).shape == (0, 2)


def _stack_case(name, gyre):
    """A problem and rows + 1 probe points, one per row of a (B, n) stack."""
    if name == "scalar-direct":
        prob = random_scalar_problem(np.random.default_rng(3))
    elif name == "coupled":
        prob = coupled_problem()
    else:  # the gyre at N = 401 (163-row chunks on the ramp) or on the FFT path
        prob = dataclasses.replace(gyre, N=int(name.split("-")[1]))
    rows = max(1, _BATCH_VALUES // (prob.n * prob.N))
    rng = np.random.default_rng(5)
    return prob, rows, rng.uniform(prob.omega.lo, prob.omega.hi, size=(rows + 1, prob.n))


@pytest.mark.parametrize("name", ["scalar-direct", "gyre-401", "gyre-1024", "gyre-6401", "coupled"])
def test_stacked_probes_are_bit_identical_to_one_row_probes(gyre, name):
    prob, rows, points = _stack_case(name, gyre)
    single = []
    for b, chi in enumerate(points):
        escapes = []
        value = delta_at(prob, chi, 2, escapes)
        assert value.shape == (prob.n,)
        found = escape_rows(escapes)
        assert all(probe == 0 for probe, *_ in found)
        single.append((value, [(b, *rest) for _, *rest in found]))
    for B in sorted({1, 2, rows - 1, rows, rows + 1}):
        escapes = []
        stacked = delta_at(prob, points[:B], 2, escapes)
        assert stacked.shape == (B, prob.n)
        found = escape_rows(escapes)
        for b in range(B):
            assert np.array_equal(stacked[b], single[b][0])
            assert [e for e in found if e[0] == b] == single[b][1]
        assert len(found) == sum(len(s[1]) for s in single[:B])
    escaped = sum(bool(s[1]) for s in single)
    if name == "coupled":
        assert 0 < escaped < rows + 1
    elif name != "scalar-direct":
        assert escaped == rows + 1


@pytest.mark.parametrize("name", ["scalar-direct", "gyre-1024", "gyre-6401", "coupled", "zero-rhs"])
def test_every_depth_rows_are_the_probes_of_each_depth(gyre, zero_rhs, name):
    # rows + 1 points cross a batch boundary; zero-rhs stops early at a fixed point
    if name == "zero-rhs":
        prob, points = zero_rhs, np.linspace(0.0, 2.0, 7)[:, np.newaxis]
    else:
        prob, _, points = _stack_case(name, gyre)
    m = 3
    every = delta_at(prob, points, m, every_depth=True)
    one = delta_at(prob, points[0], m, every_depth=True)
    assert every.shape == (m + 1, len(points), prob.n) and one.shape == (m + 1, prob.n)
    for k in range(m + 1):
        assert every[k].tobytes() == delta_at(prob, points, k).tobytes()
        assert one[k].tobytes() == delta_at(prob, points[0], k).tobytes()


# --- scalar root search -----------------------------------------------------


@pytest.mark.parametrize(
    "m, root",
    [
        (0, -320.68685748392215),
        (1, -332.0604225604555),
        (2, -332.30179286902836),
    ],
)
def test_root_trace_pins(gyre, m, root):
    res = solve_determining(gyre, m)
    assert res.chi1_star[0] == pytest.approx(root, rel=1e-12)
    assert res.residual[0] <= 1e-8
    assert res.iterations_used == m
    # 16 scan probes plus Brent's, one trace entry of shape (1,) each
    assert len(res.solver_trace) == 20
    assert all(chi.shape == val.shape == (1,) for chi, val in res.solver_trace)


def test_zero_rhs_root_is_exact(zero_rhs):
    res = solve_determining(zero_rhs, 1)
    assert res.chi1_star[0] == pytest.approx(1.0, abs=1e-10)
    assert res.residual[0] <= 1e-10


def test_solver_trace_records_probes(gyre):
    res = solve_determining(gyre, 0)
    for chi, val in res.solver_trace:
        assert chi.shape == (1,)
        assert val.shape == (1,)
    # the scan probes come first, at the box edges inclusive
    assert res.solver_trace[0][0][0] == gyre.omega.lo[0]


def test_negative_depth_rejected(gyre):
    with pytest.raises(ValueError, match="m must be >= 0"):
        solve_determining(gyre, -1)


def test_no_bracket_error(zero_rhs):
    # Omega entirely right of the root chi* = 1: Delta keeps one sign
    prob = dataclasses.replace(
        zero_rhs, omega=Box(np.array([5.0]), np.array([6.0])), domain=Box(np.array([-50.0]), np.array([50.0]))
    )
    with pytest.raises(NoRootBracketError, match="no sign change"):
        solve_determining(prob, 1)


def test_scan_density_configurable(zero_rhs):
    res = solve_determining(zero_rhs, 0, SolverConfig(scan_points=5))
    assert res.chi1_star[0] == pytest.approx(1.0, abs=1e-10)


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_zero_rhs_family_roots(seed):
    rng = np.random.default_rng(seed)
    prob, chi_star = zero_rhs_problem(rng)
    res = solve_determining(prob, 1)
    assert res.chi1_star[0] == pytest.approx(chi_star, rel=1e-9, abs=1e-9)


# --- Brent port against scipy.optimize.brentq --------------------------------


def _recorded(fn, points):
    def f(x):
        points.append(x)
        return fn(x)

    return f


def _test_function(kind, r, a, b, c):
    """A function with a simple root at r and no other in the bracket used below."""
    if kind == "poly":
        return lambda x: a * (x - r) * ((x - b) ** 2 + c + (x - r) ** 2)
    if kind == "sin":
        return lambda x: math.sin(a * (x - r))
    if kind == "exp":
        return lambda x: math.exp(a * (x - r)) - 1.0
    return lambda x: math.atan(a * 10.0 ** (4.0 * c) * (x - r))  # steep atan


@given(
    kind=st.sampled_from(["poly", "sin", "exp", "atan"]),
    r=st.floats(-3.0, 3.0),
    left=st.floats(1e-3, 3.0),
    right=st.floats(1e-3, 3.0),
    a=st.floats(0.1, 1.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(0.05, 1.5),
    flip=st.booleans(),
    swap=st.booleans(),
    xtol=st.sampled_from([1e-12, 1e-14, 1e-6]),
)
@settings(max_examples=300)
def test_brent_is_scipy_brentq_step_for_step(kind, r, left, right, a, b, c, flip, swap, xtol):
    # |a (x - r)| <= 1.5 keeps sin to its one root inside the bracket
    a = (-1.0 if flip else 1.0) * 1.5 * a / max(left, right)
    fn = _test_function(kind, r, a, b, c)
    xa, xb = r - left, r + right
    if swap:
        xa, xb = xb, xa
    assert fn(xa) * fn(xb) < 0.0
    want_points, got_points = [], []
    want = brentq(_recorded(fn, want_points), xa, xb, xtol=xtol)
    got = _brent(_recorded(fn, got_points), xa, xb, xtol)
    assert got == want
    assert got_points == want_points


@pytest.mark.parametrize("fn, root", [(lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)])
def test_brent_returns_an_endpoint_where_f_is_zero(fn, root):
    want_points, got_points = [], []
    assert brentq(_recorded(fn, want_points), 0.0, 1.0) == root
    assert _brent(_recorded(fn, got_points), 0.0, 1.0, 2e-12) == root
    assert got_points == want_points == [0.0, 1.0]


def test_brent_raises_at_the_iteration_cap():
    # a jump at 1e-300 with the smallest xtol needs ~1000 bisections
    def step(x):
        return -1.0 if x < 1e-300 else 1.0

    want_points, got_points = [], []
    _, info = brentq(
        _recorded(step, want_points), -1.0, 2.0, xtol=5e-324, full_output=True, disp=False
    )
    assert not info.converged and info.iterations == 100
    with pytest.raises(NonConvergenceError, match="100 iterations"):
        _brent(_recorded(step, got_points), -1.0, 2.0, 5e-324)
    assert got_points == want_points
    assert len(got_points) == 102


def test_brent_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="xtol"):
        _brent(lambda x: x, -1.0, 1.0, 0.0)


def test_gyre_root_is_scipy_brentq_bit_for_bit(gyre):
    res = solve_determining(gyre, 2)
    scan = res.solver_trace[:16]
    i = next(k for k in range(15) if scan[k][1][0] * scan[k + 1][1][0] < 0.0)
    points = []
    root = brentq(
        _recorded(lambda x: delta_at(gyre, [x], 2)[0], points),
        scan[i][0][0],
        scan[i + 1][0][0],
        xtol=SolverConfig().xtol,
    )
    assert res.chi1_star[0] == root
    assert [chi[0] for chi, _ in res.solver_trace[16:]] == points


def test_brent_nonconvergence_carries_the_solver_trace(gyre, monkeypatch):
    monkeypatch.setattr(determine, "_BRENT_MAXITER", 1)
    with pytest.raises(NonConvergenceError, match="Brent") as exc_info:
        solve_determining(gyre, 0)
    # 16 scan probes, both bracket ends again, one Brent step
    assert len(exc_info.value.trace) == 19


def test_brent_given_the_end_values_skips_their_evaluation():
    for fn, xa, xb in [(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0), (math.sin, 3.5, 2.0)]:
        want_points, got_points = [], []
        want = brentq(_recorded(fn, want_points), xa, xb, xtol=1e-12)
        got = _brent(_recorded(fn, got_points), xa, xb, 1e-12, fn(xa), fn(xb))
        assert got == want
        assert want_points[:2] == [xa, xb] and got_points == want_points[2:]


def test_the_root_search_probes_each_value_once(gyre, monkeypatch):
    rows = []

    def counted(prob, chi, m, *args, **kwargs):
        rows.append(len(np.atleast_2d(chi)))
        return delta_at(prob, chi, m, *args, **kwargs)

    monkeypatch.setattr(determine, "delta_at", counted)
    res = solve_determining(gyre, 2)
    # the 16-point scan, then Brent's two new points: the bracket ends and
    # the residual at the root are values the solver already has
    assert rows == [16, 1, 1]
    assert len(res.solver_trace) == 20
    assert res.residual.tobytes() == np.abs(delta_at(gyre, res.chi1_star, 2)).tobytes()
    rows.clear()
    # every depth: one scan of 16 rows in all, two Brent points per depth
    assert len(list(solve_depths(gyre, 2))) == 3
    assert rows == [16] + [1] * 6


def _depth_case(name, gyre, zero_rhs):
    if name == "gyre-401":
        return gyre, 3
    if name == "gyre-1024":
        return dataclasses.replace(gyre, N=1024), 3
    if name == "zero-rhs":
        return zero_rhs, 3
    return _two_component(), 2


@pytest.mark.parametrize("name", ["gyre-401", "gyre-1024", "zero-rhs", "two-component"])
def test_solve_depths_equal_the_standalone_solves(gyre, zero_rhs, name):
    prob, m = _depth_case(name, gyre, zero_rhs)
    shared = list(solve_depths(prob, m))
    assert len(shared) == m + 1
    for k, res in enumerate(shared):
        alone = solve_determining(prob, k)
        assert res.iterations_used == alone.iterations_used == k
        assert res.chi1_star.tobytes() == alone.chi1_star.tobytes()
        assert res.residual.tobytes() == alone.residual.tobytes()
        assert res.residual.tobytes() == np.abs(delta_at(prob, res.chi1_star, k)).tobytes()
        assert len(res.solver_trace) == len(alone.solver_trace)
        for (chi, val), (chi_alone, val_alone) in zip(res.solver_trace, alone.solver_trace):
            assert chi.tobytes() == chi_alone.tobytes() and val.tobytes() == val_alone.tobytes()


def test_solve_depths_stops_at_the_first_failing_depth(zero_rhs):
    # Omega entirely right of the root chi* = 1, at every depth
    prob = dataclasses.replace(zero_rhs, omega=Box(np.array([2.0]), np.array([3.0])))
    depths = solve_depths(prob, 2)
    with pytest.raises(NoRootBracketError):
        next(depths)
    assert list(depths) == []


# --- Newton path (n = 2) -----------------------------------------------------


def test_newton_two_component_root():
    prob = _two_component()
    res = solve_determining(prob, 1)
    assert res.chi1_star == pytest.approx([1.0, 2.0], abs=1e-9)
    assert np.max(res.residual) <= 1e-9


def test_newton_stall_raises_with_trace():
    # Omega excludes the root (1, 2); clipping pins Newton at the corner
    prob = _two_component(omega_lo=(3.0, 3.0), omega_hi=(5.0, 5.0))
    with pytest.raises(NonConvergenceError, match="Newton stalled") as exc_info:
        solve_determining(prob, 1)
    assert len(exc_info.value.trace) >= 2


# --- exclusion sweep ---------------------------------------------------------


def test_exclusion_coefficient_and_tail_pins(gyre):
    res = exclusion_sweep(gyre, 2, 1)
    assert res.coefficient[0, 0] == pytest.approx(1.4187909444340647, rel=1e-12)
    assert res.tail[0] == pytest.approx(8.242068542826146, rel=1e-12)
    # closed forms: R (K + Q/(1-Q)) + Gamma(p+1)/T^(p-1), Q^m M/(1-Q)
    rep = check_conditions(gyre)
    q, R = rep.Q[0, 0], rep.R[0]
    assert res.coefficient[0, 0] == pytest.approx(
        R * (0.5 + q / (1 - q)) + GAMMA_2P5, rel=1e-13
    )
    assert res.tail[0] == pytest.approx(q**2 * rep.M[0] / (1 - q), rel=1e-13)


def test_exclusion_gyre_thirteen_boxes(gyre):
    res = exclusion_sweep(gyre, 2, 13)
    assert res.subsets.shape == (13, 2, 1)
    assert res.delta.shape == res.rhs.shape == (13, 1)
    assert res.keep.shape == (13,) and res.keep.dtype == bool
    assert res.survivors.shape == (8, 2, 1)
    keeps = res.keep.tolist()
    assert keeps == [True] * 8 + [False] * 5
    assert len(res.survivors) == 8
    # every probe's iterates leave D, so the verdicts are conditional
    assert res.escaped_probes == 13
    assert res.worst_excess == pytest.approx(99.44538549274552, rel=1e-12)
    # the deep root -332.30... sits in the leftmost surviving box
    lo, hi = res.survivors[0]
    assert np.all(lo <= -332.30179286902836) and np.all(-332.30179286902836 <= hi)
    # verdicts carry the actual filter inputs: Delta_2 at each box center
    for keep, delta, rhs in zip(res.keep, res.delta, res.rhs):
        assert bool(keep) == bool(np.abs(delta[0]) <= rhs[0])
    centers = 0.5 * (res.subsets[:, 0] + res.subsets[:, 1])
    assert np.array_equal(res.delta, delta_at(gyre, centers, 2))


def test_exclusion_at_depth_zero_counts_the_escaped_probes(gyre):
    # Delta_0 evaluates f along u_0, which leaves D at every box center
    res = exclusion_sweep(gyre, 0, 13)
    assert res.escaped_probes == 13
    assert res.worst_excess == pytest.approx(48.964197622890524, rel=1e-12)


def test_exclusion_sweep_over_many_chunks(gyre):
    # 2000 centers at N = 401 are probed in 13 chunks of at most 163 rows
    res = exclusion_sweep(gyre, 2, 2000)
    assert res.escaped_probes == 2000
    assert res.worst_excess == pytest.approx(99.51802128253081, rel=1e-12)
    assert len(res.survivors) == 1099


def test_sweep_rows_on_the_chunk_edges_are_one_row_probes(gyre):
    # 163-row chunks convolve as a ramp of dots, the 44-row tail (rows
    # 1956-1999) and a one-row probe by np.convolve
    res = exclusion_sweep(gyre, 2, 2000)
    centers = 0.5 * (res.subsets[:, 0] + res.subsets[:, 1])
    for b in (0, 162, 163, 1955, 1956, 1999):
        assert res.delta[b].tobytes() == delta_at(gyre, centers[b], 2).tobytes()


def test_sweep_convolves_only_its_tail_row_by_row(gyre, monkeypatch):
    calls = []
    convolve = np.convolve

    def counted(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(np, "convolve", counted)
    exclusion_sweep(gyre, 2, 2000)
    # two steps of the 44-row tail; one call per row and step made 4000
    assert len(calls) == 2 * 44


def test_exclusion_single_box_keeps_everything(gyre):
    res = exclusion_sweep(gyre, 2, 1)
    assert res.n_subdiv == 1
    assert len(res.subsets) == 1
    assert bool(res.keep[0]) is True
    assert res.survivors[0, 0, 0] == gyre.omega.lo[0]
    assert res.survivors[0, 1, 0] == gyre.omega.hi[0]


def test_exclusion_rejects_bad_subdivision(gyre):
    with pytest.raises(ValueError, match="n_subdiv"):
        exclusion_sweep(gyre, 2, 0)


def test_exclusion_zero_rhs_is_exact(zero_rhs):
    # M = 0 kills the tube and K = 0 reduces the coefficient to
    # Gamma(p+1)/T^(p-1), so keep <=> |1 - center| <= halfwidth
    # <=> the box contains the root chi* = 1 (boundary inclusive).
    for n_subdiv in range(1, 10):
        res = exclusion_sweep(zero_rhs, 2, n_subdiv)
        assert res.tail[0] == 0.0
        assert (res.escaped_probes, res.worst_excess) == (0, 0.0)
        for (lo, hi), keep in zip(res.subsets[:, :, 0], res.keep):
            halfwidth = 0.5 * (hi - lo)
            dist = abs(0.5 * (lo + hi) - 1.0)
            if abs(dist - halfwidth) > 1e-9:  # root not exactly on an edge
                assert bool(keep) == bool(dist < halfwidth)
        assert 1 <= len(res.survivors) <= 2


def test_sweep_and_existence_check_the_depth_first(gyre):
    # the depth is checked before the subdivision and before the n = 1 rule
    with pytest.raises(ValueError, match="m must be >= 0"):
        exclusion_sweep(gyre, -1, 0)
    with pytest.raises(ValueError, match="m must be >= 0"):
        existence_check_scalar(_two_component(), -1)


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_exclusion_never_discards_the_root_box(seed):
    rng = np.random.default_rng(seed)
    prob, chi_star = zero_rhs_problem(rng)
    res = exclusion_sweep(prob, 1, 7)
    for (lo, hi), keep in zip(res.subsets[:, :, 0], res.keep):
        if lo <= chi_star <= hi:
            assert bool(keep) is True


# --- existence certification -------------------------------------------------


def test_existence_gyre_inconclusive(gyre):
    verdict = existence_check_scalar(gyre, 2)
    assert verdict.certified is False
    assert bool(verdict) is False
    assert verdict.sign_change is True
    assert verdict.cleared == (False, True)   # |0.893| < tube at the left end
    assert verdict.tube == pytest.approx(8.242068542826146, rel=1e-12)
    assert verdict.endpoint_deltas[0] == pytest.approx(0.8930596668404291, rel=1e-12)
    assert verdict.endpoint_deltas[1] == pytest.approx(-15.7349224231873, rel=1e-12)
    assert verdict.escaped_probes == 2
    assert verdict.worst_excess == pytest.approx(99.51849650410465, rel=1e-12)


def test_existence_is_not_certified_on_escaped_probes(gyre):
    # at m = 3 both endpoint values clear the tube with a sign change,
    # but the iterates behind them leave D
    verdict = existence_check_scalar(gyre, 3)
    assert verdict.cleared == (True, True)
    assert verdict.sign_change is True
    assert verdict.escaped_probes == 2
    assert verdict.certified is False
    assert bool(verdict) is False


def test_existence_certified_on_zero_rhs(zero_rhs):
    # tube = 0 and the endpoint values straddle zero: degree +-1
    verdict = existence_check_scalar(zero_rhs, 1)
    assert verdict.certified is True
    assert bool(verdict) is True
    assert verdict.tube == 0.0
    assert verdict.cleared == (True, True)
    assert verdict.endpoint_deltas[0] == pytest.approx(GAMMA_2P5, rel=1e-13)
    assert verdict.endpoint_deltas[1] == pytest.approx(-GAMMA_2P5, rel=1e-13)
    assert (verdict.escaped_probes, verdict.worst_excess) == (0, 0.0)


def test_existence_scalar_only():
    with pytest.raises(NotImplementedError, match="scalar"):
        existence_check_scalar(_two_component(), 1)


# --- bound calibrations ------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_depth_gap_bound_holds(seed):
    # |Delta(chi) - Delta_m(chi)| <= Q^m M (I-Q)^(-1), with the exact
    # Delta stood in for by a depth-14 probe (its own gap is ~Q^14)
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng, N=81)
    rep = check_conditions(prob)
    chi = float(rng.uniform(-2, 2))
    ref = delta_at(prob, chi, 14)[0]
    for m in (0, 1, 2):
        tube = delta_gap_bound(rep, prob.M, m)[0]
        assert abs(delta_at(prob, chi, m)[0] - ref) <= tube + 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_parameter_sensitivity_bound_holds(seed):
    # |Delta_m(a) - Delta_m(b)| <= (Gamma(p+1)/T^(p-1) + K R
    #   + Q R (1-Q)^(-1) + K Q^m R) |a - b|  for scalar problems
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng, N=81)
    rep = check_conditions(prob)
    q, K, R = rep.Q[0, 0], rep.K[0, 0], rep.R[0]
    m = 3
    coeff = (
        math.gamma(prob.p + 1) / prob.T ** (prob.p - 1)
        + K * R
        + q * R / (1 - q)
        + K * q**m * R
    )
    a, b = sorted(rng.uniform(-2, 2, size=2))
    da = delta_at(prob, a, m)[0]
    db = delta_at(prob, b, m)[0]
    assert abs(da - db) <= coeff * (b - a) + 1e-12
