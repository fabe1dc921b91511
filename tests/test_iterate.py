"""Successive approximations: closed forms, pins, domain policy, logging."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import coupled_problem, escape_rows, random_scalar_problem, zero_rhs_problem
from fracbvp import exprlang, fracops, iterate
from fracbvp.determine import delta_m, exclusion_sweep
from fracbvp.fracops import GridFunction, ProductTrapezoid, operator
from fracbvp.iterate import (
    DomainEscape,
    DomainEscapeError,
    _check_domain,
    _escape_stats,
    _rhs,
    iterate_step,
    run_iteration,
    u0,
)
from fracbvp.problem import Box, Problem, builtin_problem

# Two roots for the steep-forcing builtin: the depth-2 root that
# solve_determining picks with the default scan, and the shallowest
# root, which the depth-0 probe finds first.
CHI_THIRD = -332.30179286902836
CHI_FIRST = -320.68685748392215


# --- zeroth approximation ----------------------------------------------


def test_u0_closed_form(gyre):
    chi = -320.0
    f = u0(gyre, chi)
    t = f.grid.nodes
    want = 1.0 + chi * t + (2.0 - 1.0 - chi) * t**1.5
    assert np.allclose(f.values[0, 1:-1], want[1:-1], rtol=1e-14)


def test_u0_endpoints_exact(gyre):
    f = u0(gyre, -321.7)
    assert f.values[0, 0] == gyre.alpha1[0]
    assert f.values[0, -1] == gyre.alpha2[0]


def test_u0_zero_rhs_root_is_straight_line(zero_rhs):
    # chi* = (alpha2 - alpha1)/T = 1 makes the t^p correction coefficient
    # vanish, so u0 is the interpolating line.
    f = u0(zero_rhs, 1.0)
    assert np.allclose(f.values[0], f.grid.nodes, rtol=0, atol=1e-15)


@given(st.integers(0, 10**6))
def test_u0_pins_boundaries_for_any_parameter(seed):
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng)
    chi = float(rng.uniform(-2, 2))
    f = u0(prob, chi)
    assert f.values[0, 0] == prob.alpha1[0]
    assert f.values[0, -1] == prob.alpha2[0]


# --- single step ----------------------------------------------------------


def test_iterate_step_zero_rhs_is_fixed_point(zero_rhs):
    prev = u0(zero_rhs, 1.0)
    nxt = iterate_step(zero_rhs, prev, 1.0)
    assert np.array_equal(nxt.values, prev.values)


def test_iterate_step_midpoint_pin(gyre):
    prev = u0(gyre, CHI_FIRST)
    assert prev(0.5)[0] == pytest.approx(-45.60994956922515, rel=1e-13)
    nxt = iterate_step(gyre, prev, CHI_FIRST)
    assert nxt(0.5)[0] == pytest.approx(-95.5556327872806, rel=1e-12)


def test_iterate_step_keeps_boundary_values(gyre):
    nxt = iterate_step(gyre, u0(gyre, CHI_THIRD), CHI_THIRD)
    assert nxt.values[0, 0] == gyre.alpha1[0]
    assert nxt.values[0, -1] == gyre.alpha2[0]


# --- the cached operator ----------------------------------------------------


def test_operator_is_built_once_per_problem(gyre):
    op = operator(gyre.grid, gyre.p)
    assert isinstance(op, ProductTrapezoid)
    assert (op.p, op.grid) == (gyre.p, gyre.grid)
    assert operator(gyre.grid, gyre.p) is op
    assert gyre.operator is op
    assert u0(gyre, CHI_FIRST).grid is op.grid
    other = dataclasses.replace(gyre, N=201)
    assert operator(other.grid, other.p) is not op
    assert operator(other.grid, other.p).nodes.shape == (201,)


def test_operator_arrays_are_read_only(gyre):
    op = operator(gyre.grid, gyre.p)
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7  # nodes, ratio, c1, c2, w, corr, wrev (no spectrum below 1024 nodes)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[1] = 0.5


def test_f_is_bound_once_per_grid_next_to_the_operator(gyre):
    op = operator(gyre.grid, gyre.p)
    f = gyre.f_on_grid
    assert gyre.f_on_grid is f
    bound = [node.value for node in (f[0].left.left, f[0].right)]
    assert all(isinstance(v, np.ndarray) and not v.flags.writeable for v in bound)
    # f along one iterate and along a stack: the bits of the unbound f
    stack = np.stack([u0(gyre, chi).values for chi in (-330.0, -325.0, -320.0)])
    for values in (stack[0], stack):
        want = np.moveaxis(gyre.rhs(op.nodes, np.moveaxis(values, -2, 0)), 0, -2)
        got = _rhs(gyre, values)
        assert got.shape == values.shape and got.tobytes() == want.tobytes()
    # a copy binds f afresh, on its own grid
    coarse = dataclasses.replace(gyre, N=201)
    assert coarse.f_on_grid is not f and coarse.f_on_grid[0].right.value.shape == (201,)


def test_problems_on_one_grid_share_one_operator(gyre, operator_builds):
    twin = dataclasses.replace(gyre, name="twin")
    for prob in (gyre, twin):
        run_iteration(prob, CHI_FIRST, m_max=2, tol=0.0)
    assert operator_builds == [(401, 1.0, 1.5)]
    assert operator(twin.grid, twin.p) is operator(gyre.grid, gyre.p)
    other = dataclasses.replace(gyre, N=51)
    run_iteration(other, CHI_FIRST, m_max=2, tol=0.0)
    assert operator_builds == [(401, 1.0, 1.5), (51, 1.0, 1.5)]
    assert operator(other.grid, other.p) is not operator(gyre.grid, gyre.p)


def test_operator_cache_is_bounded():
    fracops.operator.cache_clear()
    for N in range(5, 5 + 2 * fracops._OPERATOR_CACHE):
        operator(fracops.Grid(N, 1.0), 1.5)
    info = fracops.operator.cache_info()
    assert info.currsize == info.maxsize == fracops._OPERATOR_CACHE


def test_values_off_the_problem_grid_are_rejected(gyre):
    coarse = dataclasses.replace(gyre, N=201)
    prev = u0(coarse, CHI_FIRST)
    with pytest.raises(ValueError, match="401 nodes"):
        _rhs(gyre, prev.values)
    with pytest.raises(ValueError, match=r"not on the problem's Grid\(N=401"):
        iterate_step(gyre, prev, CHI_FIRST)
    with pytest.raises(ValueError, match="401 nodes"):
        delta_m(gyre, run_iteration(coarse, CHI_FIRST, m_max=1))


# --- domain policy --------------------------------------------------------


def test_strict_policy_raises_with_location(zero_rhs):
    # chi = 20 drives u0 past hi(D) = 2 on the strict builtin
    prev = u0(zero_rhs, 20.0)
    assert float(np.max(prev.values)) > zero_rhs.domain.hi[0]
    with pytest.raises(DomainEscapeError, match=r"leaves D by .* \(component 1\)"):
        iterate_step(zero_rhs, prev, 20.0)


def test_warn_policy_records_escapes(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=4, tol=0.0)
    assert len(sol.escapes) == 5  # every iterate dips below lo(D) = 1
    rows = escape_rows([sol.escapes])
    worst = max(excess for *_, excess in rows)
    assert worst == pytest.approx(99.41640324513766, rel=1e-10)
    for probe, t, component, value, excess in rows:
        assert (probe, component) == (0, 1)
        assert 0.0 < t < gyre.T
        assert value < gyre.domain.lo[0]
        assert excess == pytest.approx(gyre.domain.lo[0] - value, rel=1e-12)


def test_run_iteration_returns_escapes_without_warning(gyre, caplog):
    with caplog.at_level(logging.WARNING, logger="fracbvp.iterate"):
        sol = run_iteration(gyre, CHI_THIRD, m_max=3, tol=0.0)
    assert not any(r.levelno >= logging.WARNING for r in caplog.records)
    assert len(sol.escapes) == 4  # u_0 .. u_3, the final iterate included
    assert sol.escapes.probe.tolist() == [0] * 4


def test_collected_runs_log_nothing_even_at_debug(gyre, caplog):
    with caplog.at_level(logging.DEBUG, logger="fracbvp.iterate"):
        sol = run_iteration(gyre, [[CHI_THIRD], [CHI_FIRST]], m_max=2, tol=0.0)
    assert caplog.records == []
    assert len(sol.escapes) == 6
    assert sol.escapes.probe.tolist() == [0, 1] * 3  # both rows at each of 3 checks


def _record(*rows):
    """A DomainEscape of (probe, t, component, value, excess) rows."""
    columns = zip(*rows) if rows else [()] * 5
    return DomainEscape(*(np.array(c, dtype) for c, dtype in zip(columns, (int, float, int, float, float))))


def test_escape_stats_count_probes_and_take_the_worst_excess():
    assert _escape_stats([]) == (0, 0.0)
    assert _escape_stats([_record()]) == (0, 0.0)
    records = [_record((0, 0.5, 1, 3.0, 1.0), (0, 0.2, 1, 4.5, 2.5)), _record(),
               _record((4, 0.7, 2, -3.0, 1.5))]
    assert _escape_stats(records) == (2, 2.5)


def test_standalone_step_warns_per_call(gyre, caplog):
    prev = u0(gyre, CHI_THIRD)
    with caplog.at_level(logging.WARNING, logger="fracbvp.iterate"):
        iterate_step(gyre, prev, CHI_THIRD)
        iterate_step(gyre, prev, CHI_THIRD)
    assert sum(r.levelno == logging.WARNING for r in caplog.records) == 2


def test_stacked_domain_check_records_each_row_at_its_worst_node():
    lo, hi = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    prob = Problem(
        p=1.5, T=1.0, alpha1=np.zeros(2), alpha2=np.zeros(2), domain=Box(lo, hi),
        f=exprlang.parse("0; 0", 2, {}), f_source="0; 0", constants={},
        omega=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        M=np.zeros(2), K=np.zeros((2, 2)), N=21, domain_policy="warn",
    )
    N, nodes = prob.N, prob.grid.nodes
    values = np.random.default_rng(8).uniform(-2.5, 2.5, (9, 2, N))
    values[[0, 4]] = 0.0  # rows inside D
    values[5, 1, 3] = values[5, 1, 7] = 9.0  # a tie in component 2: the first node wins
    want = []  # the worst node of each row on its own: (probe, t, component, value, excess)
    for b, row in enumerate(values.reshape(9, -1)):
        excess = np.maximum(np.repeat(lo, N) - row, row - np.repeat(hi, N))
        k = int(np.argmax(excess))
        if excess[k] > 1e-9:
            want.append((b, float(nodes[k % N]), k // N + 1, float(row[k]), float(excess[k])))
    records = []
    _check_domain(prob, GridFunction(prob.grid, values), nodes, records)
    got = escape_rows(records)
    assert len(records) == 1 and got == want and len(got) == 7
    probe, t, component, _, excess = got[3]
    assert (probe, component, t, excess) == (5, 2, nodes[3], 7.0)
    _, t, component, _, excess = want[0]
    strict = dataclasses.replace(prob, domain_policy="strict")
    with pytest.raises(DomainEscapeError, match=f"leaves D by {excess:.6g} at t={t:.6g} "
                       f"\\(component {component}\\)"):
        _check_domain(strict, GridFunction(prob.grid, values), nodes, None)


def test_escapes_are_true_exactly_when_a_row_left_d(gyre, zero_rhs):
    assert bool(run_iteration(zero_rhs, 1.0, m_max=2, tol=0.0).escapes) is False
    assert bool(run_iteration(gyre, CHI_THIRD, m_max=2, tol=0.0).escapes) is True


def test_sweep_builds_one_escape_record_per_check_and_chunk(gyre, monkeypatch):
    records, checks = [], []
    init, check = DomainEscape.__init__, iterate._check_domain

    def counted_init(self, *args, **kwargs):
        records.append(1)
        init(self, *args, **kwargs)

    def counted_check(*args, **kwargs):
        checks.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(DomainEscape, "__init__", counted_init)
    monkeypatch.setattr(iterate, "_check_domain", counted_check)
    res = exclusion_sweep(gyre, 2, 2000)
    chunks = -(-2000 // 163)
    assert res.escaped_probes == 2000
    assert len(checks) == 3 * chunks  # u_0, u_1 and u_2 of each chunk's run
    # one record per check, one per run; one per probe row and check made 12,000
    assert len(records) <= len(checks) + chunks == 52


# --- full runs -------------------------------------------------------------


def test_run_iteration_sup_diff_pins(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=4, tol=0.0)
    assert sol.m == 4
    assert sol.converged is False
    want = [
        51.10412965896728,
        1.1760812183081555,
        0.02076866210157391,
        0.0010932230339477655,
    ]
    got = [float(d[0]) for d in sol.sup_diffs]
    assert got == pytest.approx(want, rel=1e-11)


def _chain_case(name, gyre):
    """A problem and its chi1: the gyre as gyre-<N>-<rows>, or the coupled n = 2 stack."""
    if name == "coupled":
        return coupled_problem(), np.array([[-3.0, 2.0], [0.5, -0.5], [6.0, 1.0]])
    N, B = map(int, name.split("-")[1:])
    chi = CHI_THIRD if B == 1 else np.linspace(-334.0, -318.0, B)[:, np.newaxis]
    return dataclasses.replace(gyre, N=N), chi


@pytest.mark.parametrize("name", ["gyre-401-1", "gyre-401-163", "gyre-1024-1", "coupled"])
def test_run_iteration_is_u0_and_a_chain_of_steps(gyre, name):
    # the run builds u_0 once for every step, a standalone step rebuilds it;
    # 163 rows at N = 401 convolve as a ramp of dots, N = 1024 through the FFT
    prob, chi = _chain_case(name, gyre)
    sol = run_iteration(prob, chi, m_max=3, tol=0.0)
    chain = [u0(prob, chi)]
    for _ in range(3):
        chain.append(iterate_step(prob, chain[-1], chi, escapes=[]))
    assert sol.m == 3
    assert [u.values.shape for u in sol.iterates] == [u.values.shape for u in chain]
    assert [u.values.tobytes() for u in sol.iterates] == [u.values.tobytes() for u in chain]


def test_run_iteration_bound_trace_pins(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=3, tol=0.0)
    want = [158.82009645226074, 14.934107346069244, 1.4042779673727155]
    got = [float(b[0]) for b in sol.bounds_used]
    assert got == pytest.approx(want, rel=1e-12)
    # and the trace is exactly the geometric sequence Q^{k-1} beta
    q = gyre.K[0, 0] * 0.18806319451591874
    beta = gyre.M[0] * 0.18806319451591874
    assert got == pytest.approx([beta * q**k for k in range(3)], rel=1e-10)


def test_sup_diffs_stay_below_displacement_bounds(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=4, tol=0.0)
    for diff, bound in zip(sol.sup_diffs, sol.bounds_used):
        assert diff[0] <= bound[0]


def test_default_tolerance_converges(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=12)
    assert sol.converged is True
    assert sol.m == 8
    # default tol = 1e-8 * (1 + |alpha2 - alpha1|) = 2e-8
    assert float(sol.sup_diffs[-1][0]) <= 2e-8
    assert float(sol.sup_diffs[-2][0]) > 2e-8


def test_zero_tolerance_runs_to_m_max_unless_fixed_point(gyre, zero_rhs):
    sol = run_iteration(gyre, CHI_THIRD, m_max=2, tol=0.0)
    assert (sol.m, sol.converged) == (2, False)
    # a bitwise fixed point still counts as converged even at tol = 0
    line = run_iteration(zero_rhs, 1.0, m_max=5, tol=0.0)
    assert (line.m, line.converged) == (1, True)
    assert float(line.sup_diffs[0][0]) == 0.0


def test_vector_tolerance_accepted(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=10, tol=np.array([0.05]))
    assert sol.converged is True
    assert float(sol.sup_diffs[-1][0]) <= 0.05


def test_zero_steps_returns_initial_approximation(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=0)
    assert sol.m == 0
    assert len(sol.iterates) == 1
    assert sol.sup_diffs == []
    assert sol.converged is False
    assert sol.final is sol.iterates[0]


def test_negative_steps_rejected(gyre):
    with pytest.raises(ValueError, match="m_max"):
        run_iteration(gyre, CHI_THIRD, m_max=-1)


def test_parameter_point_flags_omega_membership(gyre):
    inside = run_iteration(gyre, CHI_THIRD, m_max=1, tol=0.0)
    outside = run_iteration(gyre, -500.0, m_max=1, tol=0.0)
    assert inside.chi1.in_omega is True
    assert outside.chi1.in_omega is False


def test_all_iterates_pin_boundaries(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=3, tol=0.0)
    for it in sol.iterates:
        assert it.values[0, 0] == gyre.alpha1[0]
        assert it.values[0, -1] == gyre.alpha2[0]


@given(st.integers(0, 10**6))
def test_displacement_bounds_hold_on_random_problems(seed):
    # sup|u_k - u_{k-1}| <= Q^{k-1} beta, the workhorse convergence bound
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng)
    chi = float(rng.uniform(-2, 2))
    sol = run_iteration(prob, chi, m_max=3, tol=0.0)
    assert len(sol.sup_diffs) == 3
    for diff, bound in zip(sol.sup_diffs, sol.bounds_used):
        assert diff[0] <= bound[0] * (1 + 1e-12)


@given(st.integers(0, 10**6))
def test_zero_rhs_family_converges_to_line(seed):
    rng = np.random.default_rng(seed)
    prob, chi_star = zero_rhs_problem(rng)
    sol = run_iteration(prob, chi_star, m_max=3)
    assert sol.converged is True
    t = sol.final.grid.nodes
    line = prob.alpha1[0] + chi_star * t
    assert np.allclose(sol.final.values[0], line, rtol=0, atol=1e-12)
