"""Determining function: probes, root search, exclusion, existence."""

import dataclasses
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import const_refs, coupled_problem, escape_rows, random_scalar_problem, zero_rhs_problem
from fracbvp.conditions import check_conditions, delta_gap_bound
from fracbvp import determine
from fracbvp.determine import (
    _BATCH_VALUES,
    _brent,
    NoRootBracketError,
    NonConvergenceError,
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
    p, T, om = 1.5, 1.0, const_refs(gyre.f)["omega"]

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
    # the scan's probes, the two bracket ends again and Brent's two new points,
    # one trace entry of shape (1,) each: depth 0 brackets between scan points
    # 14 and 15, so its scan reads all 16 points; depths 1 and 2 bracket within
    # the first batch (points 0-3 and the hi end)
    assert len(res.solver_trace) == (16 if m == 0 else 5) + 4
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


def _brent_of(f, xa, xb, xtol):
    """``_brent`` given f at the bracket ends, evaluated first as brentq does."""
    return _brent(f, xa, xb, xtol, f(xa), f(xb))


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
    got = _brent_of(_recorded(fn, got_points), xa, xb, xtol)
    assert got == want
    assert got_points == want_points


@pytest.mark.parametrize("fn, root", [(lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)])
def test_brent_returns_an_endpoint_where_f_is_zero(fn, root):
    want_points, got_points = [], []
    assert brentq(_recorded(fn, want_points), 0.0, 1.0) == root
    assert _brent_of(_recorded(fn, got_points), 0.0, 1.0, 2e-12) == root
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
        _brent_of(_recorded(step, got_points), -1.0, 2.0, 5e-324)
    assert got_points == want_points
    assert len(got_points) == 102


def test_brent_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _brent_of(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="xtol"):
        _brent_of(lambda x: x, -1.0, 1.0, 0.0)


def test_gyre_root_is_scipy_brentq_bit_for_bit(gyre):
    res = solve_determining(gyre, 2)
    # the scan's first batch: points 0-3, then the hi end; the bracket lies in 0-3
    scan = res.solver_trace[:5]
    assert scan[4][0][0] == gyre.omega.hi[0]
    i = next(k for k in range(3) if scan[k][1][0] * scan[k + 1][1][0] < 0.0)
    points = []
    root = brentq(
        _recorded(lambda x: delta_at(gyre, [x], 2)[0], points),
        scan[i][0][0],
        scan[i + 1][0][0],
        xtol=determine._XTOL,
    )
    assert res.chi1_star[0] == root
    assert [chi[0] for chi, _ in res.solver_trace[5:]] == points


def test_brent_nonconvergence_carries_the_solver_trace(gyre, monkeypatch):
    monkeypatch.setattr(determine, "_BRENT_MAXITER", 1)
    with pytest.raises(NonConvergenceError, match="Brent") as exc_info:
        solve_determining(gyre, 0)
    # 16 scan probes (depth 0 brackets between points 14 and 15, so its lazy
    # scan reads every point), both bracket ends again, one Brent step
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
    # the scan's first batch (points 0-3 and the hi end) holds the bracket,
    # then Brent's two new points: the bracket ends and the residual at the
    # root are values the solver already has
    assert rows == [5, 1, 1]
    assert len(res.solver_trace) == 9
    assert res.residual.tobytes() == np.abs(delta_at(gyre, res.chi1_star, 2)).tobytes()
    rows.clear()
    # every depth: the first batch at depth 2 brackets depths 2 and 1; depth 0
    # probes the three further blocks at depth 0; two Brent points per depth
    assert len(list(solve_depths(gyre, 2))) == 3
    assert rows == [5, 4, 4, 3] + [1] * 6


def _roots_move_right():
    """f = -3 u1: the depth-0 root 2.18 lies between scan points 2 and 3 of
    Omega = [1.9, 3.4], the roots of depths 1-3 (2.50-2.55) between points 6
    and 7, so the deeper depths read a block that depth 0 does not."""
    return Problem(
        p=1.5,
        T=1.0,
        alpha1=np.array([0.0]),
        alpha2=np.array([1.0]),
        domain=Box(np.array([-50.0]), np.array([50.0])),
        f=exprlang.parse("-3*u1", 1, {}),
        omega=Box(np.array([1.9]), np.array([3.4])),
        M=np.array([1.0]),
        K=np.array([[3.0]]),
        N=101,
    )


def _depth_case(name, gyre, zero_rhs):
    if name == "gyre-401":
        return gyre, 3
    if name == "roots-move-right":
        return _roots_move_right(), 3
    if name == "gyre-1024":
        return dataclasses.replace(gyre, N=1024), 3
    if name == "zero-rhs":
        return zero_rhs, 3
    return _two_component(), 2


@pytest.mark.parametrize("name", ["gyre-401", "gyre-1024", "roots-move-right", "zero-rhs", "two-component"])
def test_solve_depths_equal_the_standalone_solves(gyre, zero_rhs, name):
    prob, m = _depth_case(name, gyre, zero_rhs)
    shared = list(solve_depths(prob, m))
    assert len(shared) == m + 1
    if name == "roots-move-right":
        # depth 3 probed points 4-7 at depth 3, which gave depth 0 those values
        # too; depth 0's trace still holds only the first batch it reads, then
        # its bracket's ends (points 2 and 3), the other depths' points 6 and 7
        xs = np.linspace(1.9, 3.4, 16)
        for res, read, left in zip(shared, (4, 8, 8, 8), (2, 6, 6, 6)):
            chis = [chi[0] for chi, _ in res.solver_trace]
            assert chis[: read + 3] == [*xs[:read], xs[-1], xs[left], xs[left + 1]]
    for k, res in enumerate(shared):
        alone = solve_determining(prob, k)
        assert res.chi1_star.tobytes() == alone.chi1_star.tobytes()
        assert res.residual.tobytes() == alone.residual.tobytes()
        assert res.residual.tobytes() == np.abs(delta_at(prob, res.chi1_star, k)).tobytes()
        assert len(res.solver_trace) == len(alone.solver_trace)
        for (chi, val), (chi_alone, val_alone) in zip(res.solver_trace, alone.solver_trace):
            assert chi.tobytes() == chi_alone.tobytes() and val.tobytes() == val_alone.tobytes()


@pytest.mark.parametrize("name", ["gyre-401", "gyre-1024", "gyre-6401", "gyre-25601", "zero-rhs", "two-component"])
def test_solve_depths_gives_the_probes_of_omegas_ends(gyre, zero_rhs, name):
    # the sweep's stack ends in Omega's lo and hi rows: at N = 401 its 2002
    # rows run in 13 ramp chunks of 154, the ends in the last; at N = 1024
    # (FFT) its 15 rows in one chunk, at N = 6401 in chunks of 8 and 7, and
    # at N = 25601 in chunks of 2 and one of 1, so lo and hi come from two records
    if name in ("gyre-6401", "gyre-25601"):
        prob, m = dataclasses.replace(gyre, N=int(name.split("-")[1])), 2
    else:
        prob, m = _depth_case(name, gyre, zero_rhs)
    res = exclusion_sweep(prob, m, 2000 if name == "gyre-401" else 13)
    if prob.n != 1:
        assert res.ends is None  # no existence test, no end rows
        return
    # the batch's lo and hi rows, bit for bit those of a 2-row probe of the ends
    delta, escapes = res.ends
    alone: list = []
    assert delta.tobytes() == delta_at(prob, np.stack([prob.omega.lo, prob.omega.hi]), m, alone).tobytes()
    assert escapes.count.tolist() == alone[0].count.tolist()
    assert escapes.excess.tobytes() == alone[0].excess.tobytes()
    assert existence_check_scalar(prob, m, ends=res.ends) == existence_check_scalar(prob, m)
    # and those of the depth-m root search's scan, which opens at lo and reads hi
    *_, deepest = solve_depths(prob, m)
    scan = {chi[0]: val for chi, val in deepest.solver_trace}
    assert np.concatenate([scan[prob.omega.lo[0]], scan[prob.omega.hi[0]]]).tobytes() == delta[:, 0].tobytes()


def test_solve_depths_stops_at_the_first_failing_depth(zero_rhs):
    # Omega entirely right of the root chi* = 1, at every depth
    prob = dataclasses.replace(zero_rhs, omega=Box(np.array([2.0]), np.array([3.0])))
    depths = solve_depths(prob, 2)
    with pytest.raises(NoRootBracketError):
        next(depths)
    assert list(depths) == []


def _eager_root(prob, m):
    """The root search on an eager scan: all 16 scan points in one ``delta_at``
    call, the leftmost exact zero or sign change, then ``_brent``.  Gives
    (chi1*, residual), or the endpoint values of the no-bracket message."""
    xs = np.linspace(prob.omega.lo[0], prob.omega.hi[0], 16)
    vals = delta_at(prob, xs[:, np.newaxis], m)[:, 0]
    for i in range(16):
        if vals[i] == 0.0:
            return np.array([xs[i]]), np.abs(vals[i : i + 1])
        if i < 15 and vals[i] * vals[i + 1] < 0.0:
            root = _brent(lambda x: delta_at(prob, [x], m)[0], xs[i], xs[i + 1], determine._XTOL,
                          vals[i], vals[i + 1])
            return np.array([root]), np.abs(delta_at(prob, [root], m))
    return f"endpoint values {vals[0]:.6g} and {vals[-1]:.6g}"


def _zero_rhs_over(zero_rhs, lo, hi):
    """zero-rhs (root chi* = 1) with Omega = [lo, hi] and room in D for every probe."""
    wide = Box(np.array([-50.0]), np.array([50.0]))
    return dataclasses.replace(zero_rhs, omega=Box(np.array([lo]), np.array([hi])), domain=wide)


@pytest.mark.parametrize(
    "name", ["gyre-401", "gyre-1024", "gyre-m0", "roots-move-right", "zero-rhs", "no-sign-change",
             "last-block", "hi-end-bracket", "interior-zero"],
)
def test_the_lazy_scan_finds_the_root_of_the_eager_scan(gyre, zero_rhs, name, monkeypatch):
    omegas = {
        "no-sign-change": (5.0, 6.0),  # Delta keeps one sign: every point is probed
        "last-block": (-2.0, 1.6),  # chi* = 1 between scan points 12 and 13
        "hi-end-bracket": (-2.0, 1.1),  # between point 14 and the hi end
        "interior-zero": (0.0, 1.5),  # scan point 10 is 1.0 exactly, Delta_m there 0.0
    }
    if name in omegas:
        prob, m = _zero_rhs_over(zero_rhs, *omegas[name]), 2
    elif name == "zero-rhs":
        prob, m = zero_rhs, 3
    elif name == "gyre-m0":
        prob, m = gyre, 0
    elif name == "roots-move-right":
        prob, m = _roots_move_right(), 3
    else:
        prob, m = dataclasses.replace(gyre, N=int(name.split("-")[1])), 3
    want = [_eager_root(prob, k) for k in range(m + 1)]
    rows = []

    def counted(prob, chi, m, *args, **kwargs):
        rows.append(len(np.atleast_2d(chi)))
        return delta_at(prob, chi, m, *args, **kwargs)

    monkeypatch.setattr(determine, "delta_at", counted)
    if name == "no-sign-change":
        for k in range(m + 1):
            rows.clear()
            with pytest.raises(NoRootBracketError, match=re.escape(want[k])):
                solve_determining(prob, k)
            assert rows == [5, 4, 4, 3]  # every point once, the hi end in the first batch
        with pytest.raises(NoRootBracketError, match=re.escape(want[0])):
            next(solve_depths(prob, m))
        return
    if name == "interior-zero":
        assert want[m][0][0] == 1.0 and want[m][1][0] == 0.0
    for k, res in enumerate(solve_depths(prob, m)):
        for got in (res, solve_determining(prob, k)):
            assert got.chi1_star.tobytes() == want[k][0].tobytes()
            assert got.residual.tobytes() == want[k][1].tobytes()


def test_a_zero_at_omegas_hi_end_does_not_beat_an_earlier_sign_change(zero_rhs, monkeypatch):
    # Delta = (chi - r)(chi - x_15): a sign change between scan points 1 and 2
    # and an exact zero at point 15, Omega's hi end; the leftmost one is the root
    xs = np.linspace(zero_rhs.omega.lo[0], zero_rhs.omega.hi[0], 16)
    r = 0.5 * (xs[1] + xs[2])

    def fake(prob, chi, m, escapes=None, every_depth=False):
        chi = np.asarray(chi, dtype=float)
        val = (chi - r) * (chi - xs[-1])
        return np.stack([val] * (m + 1)) if every_depth else val

    assert fake(zero_rhs, xs[-1:], 1)[0] == 0.0 and fake(zero_rhs, xs[1:2], 1)[0] > 0.0 > fake(zero_rhs, xs[2:3], 1)[0]
    monkeypatch.setattr(determine, "delta_at", fake)
    res = solve_determining(zero_rhs, 1)
    assert res.chi1_star[0] == pytest.approx(r, abs=1e-12)
    assert xs[1] < res.chi1_star[0] < xs[2]


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
    # 13 chunks of 154 rows (rows 0-153 first, 1848-2001 last, its last two
    # Omega's ends) convolve as a ramp of dots, a one-row probe by np.convolve
    res = exclusion_sweep(gyre, 2, 2000)
    centers = 0.5 * (res.subsets[:, 0] + res.subsets[:, 1])
    for b in (0, 153, 154, 1693, 1694, 1847, 1848, 1999):
        assert res.delta[b].tobytes() == delta_at(gyre, centers[b], 2).tobytes()
    for row, end in zip(res.ends[0], (gyre.omega.lo, gyre.omega.hi)):
        assert row.tobytes() == delta_at(gyre, end, 2).tobytes()


def test_every_chunk_of_the_sweep_takes_the_ramp(gyre, monkeypatch):
    from fracbvp import fracops

    calls, rows = [], []
    convolve, running = np.convolve, fracops.ProductTrapezoid.running

    def counted_convolve(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    def counted_running(self, values):
        rows.append(len(values))
        return running(self, values)

    monkeypatch.setattr(np, "convolve", counted_convolve)
    monkeypatch.setattr(fracops.ProductTrapezoid, "running", counted_running)
    # one process, which counts every chunk's calls
    monkeypatch.setattr(determine, "_usable_cpus", lambda: 1)
    res = exclusion_sweep(gyre, 2, 2000)
    # the 2000 centres and Omega's two ends: ceil(2002 / 163) = 13 chunks of
    # 154 rows, two steps each; 12 full chunks and a 46-row tail would convolve
    # the tail row by row, 92 calls
    assert rows == [154] * 26
    assert min(rows) >= fracops._RAMP_MIN_ROWS and max(rows) <= _BATCH_VALUES // 401
    assert calls == []
    # the bits of chunks of 163 rows and a tail, each probed alone
    centers = 0.5 * (res.subsets[:, 0] + res.subsets[:, 1])
    monkeypatch.undo()
    old = np.concatenate([delta_at(gyre, centers[i : i + 163], 2) for i in range(0, 2000, 163)])
    assert res.delta.tobytes() == old.tobytes()
    # and those of the sweep split across processes
    _assert_same_sweep(_forked(monkeypatch, exclusion_sweep, gyre, 2, 2000), res)


# --- the probe stack split across processes ---------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")


def _forked(monkeypatch, fn, *args):
    """``fn(*args)`` with two usable CPUs, asserting that it forked."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr(determine, "_usable_cpus", lambda: 2)
        patch.setattr(os, "fork", counted_fork)
        out = fn(*args)
    assert forks == [1]
    _assert_no_child()
    return out


def _serial(monkeypatch, fn, *args):
    """``fn(*args)`` with one usable CPU, so in this process alone."""
    with monkeypatch.context() as patch:
        patch.setattr(determine, "_usable_cpus", lambda: 1)
        return fn(*args)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_sweep(a, b):
    for name in ("subsets", "delta", "rhs", "keep", "coefficient", "tail"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.escaped_probes, a.worst_excess) == (b.escaped_probes, b.worst_excess)
    assert (a.ends is None) == (b.ends is None)
    if a.ends is not None:
        assert a.ends[0].tobytes() == b.ends[0].tobytes()
        assert escape_rows([a.ends[1]]) == escape_rows([b.ends[1]])


def _probes(prob, chi, m, every_depth=False):
    """delta_at's result and its escape records, as bytes and rows."""
    escapes = []
    out = delta_at(prob, chi, m, escapes, every_depth)
    return out.tobytes(), len(escapes), [len(r.count) for r in escapes], escape_rows(escapes)


@needs_fork
def test_the_split_sweep_keeps_every_byte(gyre, monkeypatch):
    # quiet under warnings as errors, also where Python >= 3.12 warns that a
    # process with other OS threads (OpenBLAS's idle workers) forks
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                      "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    serial = _serial(monkeypatch, exclusion_sweep, gyre, 2, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = _forked(monkeypatch, exclusion_sweep, gyre, 2, 2000)
        monkeypatch.setattr(os, "fork", warning_fork)
        warned = _forked(monkeypatch, exclusion_sweep, gyre, 2, 2000)
    _assert_same_sweep(split, serial)
    _assert_same_sweep(warned, serial)


@needs_fork
def test_the_split_keeps_every_depth_and_every_escape_record(gyre, monkeypatch):
    # 700 rows are 5 chunks of 140: two for this process, three for the child
    chi = np.linspace(-345.0, -310.0, 700)[:, np.newaxis]
    serial = _serial(monkeypatch, _probes, gyre, chi, 3, True)
    assert serial[1:3] == (5, [140] * 5) and len(serial[3]) == 700
    assert _forked(monkeypatch, _probes, gyre, chi, 3, True) == serial


@needs_fork
def test_the_split_keeps_an_n2_sweep(monkeypatch):
    prob = coupled_problem()
    # 23^2 = 529 boxes are 4 chunks of at most 163 rows at n = 2, N = 201
    serial = _serial(monkeypatch, exclusion_sweep, prob, 2, 23)
    _assert_same_sweep(_forked(monkeypatch, exclusion_sweep, prob, 2, 23), serial)


def _strict_error(monkeypatch, split, prob, chi):
    with pytest.raises(DomainEscapeError) as err:
        (_forked if split else _serial)(monkeypatch, delta_at, prob, chi, 2)
    _assert_no_child()
    return str(err.value)


@needs_fork
def test_a_strict_escape_in_the_split_raises_the_serial_error(zero_rhs, monkeypatch):
    # f = 0 keeps u_0 in D = [-2, 2] at chi1 = 1 and leaves it further the
    # steeper the slope; 652 rows are 4 chunks of 163, rows 0-325 this
    # process's, rows 326-651 the child's
    assert zero_rhs.domain_policy == "strict"
    chi = np.ones((652, 1))
    chi[500] = 20.0
    child_only = _strict_error(monkeypatch, True, zero_rhs, chi)
    assert child_only == _strict_error(monkeypatch, False, zero_rhs, chi)
    # the error of the child's rows, which this process probed again
    assert child_only == _strict_error(monkeypatch, False, zero_rhs, chi[326:])
    chi[100] = 30.0
    both = _strict_error(monkeypatch, True, zero_rhs, chi)
    assert both == _strict_error(monkeypatch, False, zero_rhs, chi)
    assert both == _strict_error(monkeypatch, False, zero_rhs, chi[:326]) != child_only


@needs_fork
def test_a_failed_child_is_probed_again_in_process(gyre, monkeypatch):
    def fail(*args):
        raise RuntimeError("child failed")

    chi = np.linspace(-345.0, -310.0, 700)[:, np.newaxis]
    serial = _serial(monkeypatch, _probes, gyre, chi, 2)
    monkeypatch.setattr(determine, "_child", fail)
    assert _forked(monkeypatch, _probes, gyre, chi, 2) == serial


@needs_fork
def test_a_failed_fork_is_probed_in_process(gyre, monkeypatch):
    def fail():
        raise BlockingIOError("Resource temporarily unavailable")

    chi = np.linspace(-345.0, -310.0, 700)[:, np.newaxis]
    serial = _serial(monkeypatch, _probes, gyre, chi, 2)
    monkeypatch.setattr(determine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fail)
    assert _probes(gyre, chi, 2) == serial
    _assert_no_child()


@pytest.mark.parametrize("case", ["one-cpu", "no-affinity", "thread", "small"])
def test_nothing_forks_without_two_cpus_one_thread_and_enough_chunks(gyre, monkeypatch, case):
    def fail():
        raise AssertionError("forked")

    # a stack of four chunks forks on two CPUs; one chunk less is too few
    chunks = 2 * determine._FORK_MIN_CHUNKS - (case == "small")
    chi = np.linspace(-345.0, -310.0, chunks * 163)[:, np.newaxis]
    serial = _serial(monkeypatch, _probes, gyre, chi, 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    if case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif case == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(determine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fail)
    if case == "thread":
        thread.start()
    try:
        assert _probes(gyre, chi, 2) == serial
    finally:
        done.set()
        if case == "thread":
            thread.join(timeout=60)
            assert not thread.is_alive()


def test_exclusion_single_box_keeps_everything(gyre):
    res = exclusion_sweep(gyre, 2, 1)
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


def test_existence_certified_on_zero_rhs(zero_rhs):
    # tube = 0 and the endpoint values straddle zero: degree +-1
    verdict = existence_check_scalar(zero_rhs, 1)
    assert verdict.certified is True
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
