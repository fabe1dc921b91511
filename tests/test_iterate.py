"""Successive approximations: closed forms, pins, domain policy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    coupled_problem,
    displacement_bounds,
    escape_rows,
    random_scalar_problem,
    zero_rhs_problem,
)
from fracbvp import determine, exprlang, fracops, iterate
from fracbvp.determine import delta_m, exclusion_sweep
from fracbvp.fracops import ProductTrapezoid, operator
from fracbvp.iterate import (
    _DOMAIN_SLACK,
    DomainEscape,
    DomainEscapeError,
    _check_domain,
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
    t = gyre.grid.nodes
    want = 1.0 + chi * t + (2.0 - 1.0 - chi) * t**1.5
    assert np.allclose(f[0, 1:-1], want[1:-1], rtol=1e-14)


def test_u0_endpoints_exact(gyre):
    f = u0(gyre, -321.7)
    assert f[0, 0] == gyre.alpha1[0]
    assert f[0, -1] == gyre.alpha2[0]


def test_u0_zero_rhs_root_is_straight_line(zero_rhs):
    # chi* = (alpha2 - alpha1)/T = 1 makes the t^p correction coefficient
    # vanish, so u0 is the interpolating line.
    f = u0(zero_rhs, 1.0)
    assert np.allclose(f[0], zero_rhs.grid.nodes, rtol=0, atol=1e-15)


@given(st.integers(0, 10**6))
def test_u0_pins_boundaries_for_any_parameter(seed):
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng)
    chi = float(rng.uniform(-2, 2))
    f = u0(prob, chi)
    assert f[0, 0] == prob.alpha1[0]
    assert f[0, -1] == prob.alpha2[0]


# --- single step ----------------------------------------------------------


def test_iterate_step_zero_rhs_is_fixed_point(zero_rhs):
    prev = u0(zero_rhs, 1.0)
    nxt = iterate_step(zero_rhs, prev, 1.0, prev)
    assert np.array_equal(nxt, prev)


def test_iterate_step_midpoint_pin(gyre):
    prev = u0(gyre, CHI_FIRST)
    t = gyre.grid.nodes
    assert np.interp(0.5, t, prev[0]) == pytest.approx(-45.60994956922515, rel=1e-13)
    nxt = iterate_step(gyre, prev, CHI_FIRST, prev)
    assert np.interp(0.5, t, nxt[0]) == pytest.approx(-95.5556327872806, rel=1e-12)


def test_iterate_step_keeps_boundary_values(gyre):
    start = u0(gyre, CHI_THIRD)
    nxt = iterate_step(gyre, start, CHI_THIRD, start)
    assert nxt[0, 0] == gyre.alpha1[0]
    assert nxt[0, -1] == gyre.alpha2[0]


# --- the cached operator ----------------------------------------------------


def test_operator_is_built_once_per_problem(gyre):
    op = operator(gyre.grid, gyre.p)
    assert isinstance(op, ProductTrapezoid)
    assert (op.p, op.grid) == (gyre.p, gyre.grid)
    assert operator(gyre.grid, gyre.p) is op
    assert gyre.operator is op
    assert u0(gyre, CHI_FIRST).shape == (gyre.n, op.grid.N)
    other = dataclasses.replace(gyre, N=201)
    assert operator(other.grid, other.p) is not op
    assert operator(other.grid, other.p).nodes.shape == (201,)


def test_operator_arrays_are_read_only(gyre):
    op = operator(gyre.grid, gyre.p)
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 5  # nodes, ratio, w, corr, wrev (no spectrum below 1024 nodes)
    assert sum(arr.nbytes for arr in arrays) == 5 * 8 * gyre.N
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
    stack = np.stack([u0(gyre, chi) for chi in (-330.0, -325.0, -320.0)])
    for values in (stack[0], stack):
        want = np.moveaxis(exprlang.evaluate(gyre.f, op.nodes, np.moveaxis(values, -2, 0)), 0, -2)
        got = _rhs(gyre, values)
        assert got.shape == values.shape and got.tobytes() == want.tobytes()
    # a copy binds f afresh, on its own grid
    coarse = dataclasses.replace(gyre, N=201)
    assert coarse.f_on_grid is not f and coarse.f_on_grid[0].right.value.shape == (201,)


def test_problems_on_one_grid_share_one_operator(gyre, operator_builds):
    twin = dataclasses.replace(gyre)
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
        _rhs(gyre, prev)
    with pytest.raises(ValueError, match="401 nodes"):
        iterate_step(gyre, prev, CHI_FIRST, u0(gyre, CHI_FIRST))
    with pytest.raises(ValueError, match="401 nodes"):
        delta_m(gyre, run_iteration(coarse, CHI_FIRST, m_max=1, tol=0.0))


# --- domain policy --------------------------------------------------------


def test_strict_policy_raises_with_location(zero_rhs):
    # chi = 20 drives u0 past hi(D) = 2 on the strict builtin
    prev = u0(zero_rhs, 20.0)
    assert float(np.max(prev)) > zero_rhs.domain.hi[0]
    with pytest.raises(DomainEscapeError, match=r"leaves D by .* \(component 1\)"):
        run_iteration(zero_rhs, 20.0, m_max=1, tol=0.0)


def test_strict_run_raises_at_u0_whatever_its_depth(zero_rhs):
    # u_0 is checked before any step, so a deeper run stops with the same message
    messages = []
    for m_max in (0, 3):
        with pytest.raises(DomainEscapeError) as err:
            run_iteration(zero_rhs, 20.0, m_max=m_max, tol=0.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    excess = float(np.max(u0(zero_rhs, 20.0))) - zero_rhs.domain.hi[0]
    assert messages[0].startswith(f"iterate leaves D by {excess:.6g} at t=")


def test_warn_policy_records_escapes(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=4, tol=0.0)
    assert len(sol.escapes) == 5  # every iterate dips below lo(D) = 1
    [(row, count, worst)] = escape_rows([sol.escapes])
    assert worst == pytest.approx(99.41640324513766, rel=1e-10)
    # the one row left D at all 5 checks; its excess is that of its lowest iterate
    assert (row, count) == (0, 5)
    assert worst == max(gyre.domain.lo[0] - np.min(it) for it in sol.iterates)


def test_run_iteration_returns_escapes_without_warning(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=3, tol=0.0)
    assert len(sol.escapes) == 4  # u_0 .. u_3, the final iterate included
    assert sol.escapes.count.tolist() == [4]


def test_collected_runs_log_nothing_even_at_debug(gyre):
    sol = run_iteration(gyre, [[CHI_THIRD], [CHI_FIRST]], m_max=2, tol=0.0)
    assert len(sol.escapes) == 6
    assert sol.escapes.count.tolist() == [3, 3]  # both rows at each of 3 checks


def _domain_problem(lo, hi, N=21, policy="warn"):
    """A problem with f = 0 on D = [lo, hi], one component per entry."""
    n = len(lo)
    source = "; ".join(["0"] * n)
    return Problem(
        p=1.5, T=1.0, alpha1=np.zeros(n), alpha2=np.zeros(n), domain=Box(np.array(lo), np.array(hi)),
        f=exprlang.parse(source, n, {}),
        omega=Box(-np.ones(n), np.ones(n)), M=np.zeros(n), K=np.zeros((n, n)), N=N,
        domain_policy=policy,
    )


def _fresh(rows):
    """An escape record for a stack of ``rows`` rows that no check has seen."""
    return DomainEscape(np.zeros(rows, dtype=int), np.zeros(rows))


def _checked(prob, values):
    """The record of one check of ``values`` against D."""
    record = _fresh(len(values.reshape(-1, prob.n, prob.N)))
    _check_domain(prob, values, record)
    return record


def _reference_check(prob, values):
    """The domain check as one full (B, n*N) excess array: the escaped rows, their
    excess and the strict message of the first, at its first worst node."""
    N = prob.N
    v = values.reshape(-1, prob.n * N)
    excess = np.maximum(np.repeat(prob.domain.lo, N) - v, v - np.repeat(prob.domain.hi, N))
    cols = np.argmax(excess, axis=1)
    worst = excess[np.arange(len(v)), cols]
    rows = np.flatnonzero(worst > _DOMAIN_SLACK)
    message = None
    if len(rows):
        col = cols[rows[0]]
        message = (f"iterate leaves D by {worst[rows[0]]:.6g} at t={prob.grid.nodes[col % N]:.6g} "
                   f"(component {col // N + 1}); the convergence theory assumes iterates stay in D")
    return rows, worst[rows], message


def test_stacked_domain_check_records_each_row_at_its_worst_node():
    lo, hi = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    prob = _domain_problem(lo, hi)
    N, nodes = prob.N, prob.grid.nodes
    values = np.random.default_rng(8).uniform(-2.5, 2.5, (9, 2, N))
    values[[0, 4]] = 0.0  # rows inside D
    values[5, 1, 3] = values[5, 1, 7] = 9.0  # a tie in component 2: the first node wins
    want = []  # the worst node of each row on its own: (probe, t, component, excess)
    for b, row in enumerate(values.reshape(9, -1)):
        excess = np.maximum(np.repeat(lo, N) - row, row - np.repeat(hi, N))
        k = int(np.argmax(excess))
        if excess[k] > 1e-9:
            want.append((b, float(nodes[k % N]), k // N + 1, float(excess[k])))
    got = escape_rows([_checked(prob, values)])
    assert got == [(b, 1, excess) for b, _, _, excess in want] and len(got) == 7
    # the first row that leaves D is row 1, at its first node, in component 1
    assert want[0][:3] == (1, 0.0, 1)
    _, t, component, excess = want[0]
    strict = dataclasses.replace(prob, domain_policy="strict")
    with pytest.raises(DomainEscapeError, match=f"leaves D by {excess:.6g} at t={t:.6g} "
                       f"\\(component {component}\\)"):
        _checked(strict, values)
    # from row 2 on, row 2 is the first: at the last node, in component 1
    assert want[1][:3] == (2, 1.0, 1)
    with pytest.raises(DomainEscapeError, match=f"leaves D by {want[1][3]:.6g} at t=1 \\(component 1\\)"):
        _checked(strict, values[2:])
    # row 5 alone: its tie is located at the first of the two nodes
    with pytest.raises(DomainEscapeError, match=f"leaves D by 7 at t={nodes[3]:.6g} \\(component 2\\)"):
        _checked(strict, values[5:6])


_SLACK_EDGES = [0.0, _DOMAIN_SLACK, -_DOMAIN_SLACK, np.nextafter(_DOMAIN_SLACK, 1.0),
                np.nextafter(-_DOMAIN_SLACK, -1.0), np.nextafter(_DOMAIN_SLACK, 0.0), 1.0, -1.0, 2.0,
                -2.0, 1.0 + _DOMAIN_SLACK, -1.0 - _DOMAIN_SLACK, np.nan]


@given(
    n=st.sampled_from([1, 2]),
    rows=st.integers(1, 6),
    bounds=st.lists(st.sampled_from([(-1.0, 0.0), (0.0, 1.0), (-2.0, 2.0), (-1.0, 1.0)]), min_size=2,
                    max_size=2),
    cells=st.lists(st.sampled_from(_SLACK_EDGES) | st.floats(-3.0, 3.0), min_size=1, max_size=24),
    strict=st.booleans(),
)
# a NaN in one component hides an escape in the other, as in the full array
@example(n=2, rows=1, bounds=[(-1.0, 1.0)] * 2, cells=[np.nan] + [0.0] * 5 + [5.0] + [0.0] * 5, strict=False)
def test_domain_check_by_row_reductions_matches_the_full_excess_array(n, rows, bounds, cells, strict):
    # per-component D with bounds at 0, so an excess can equal the slack exactly;
    # few distinct values, so rows and nodes tie
    lo, hi = zip(*bounds[:n])
    prob = _domain_problem(lo, hi, N=6, policy="strict" if strict else "warn")
    values = np.resize(np.array(cells), rows * n * prob.N).reshape(rows, n, prob.N)
    want_rows, want_excess, message = _reference_check(prob, values)
    if strict and message is not None:
        with pytest.raises(DomainEscapeError) as err:
            _checked(prob, values)
        assert str(err.value) == message
        return
    got = _checked(prob, values)
    assert np.flatnonzero(got.count).tolist() == want_rows.tolist()
    assert got.excess[want_rows].tobytes() == want_excess.tobytes()


@given(
    n=st.sampled_from([1, 2]),
    rows=st.integers(1, 5),
    checks=st.integers(1, 4),
    bounds=st.lists(st.sampled_from([(-1.0, 0.0), (0.0, 1.0), (-2.0, 2.0), (-1.0, 1.0)]), min_size=2,
                    max_size=2),
    cells=st.lists(st.sampled_from(_SLACK_EDGES) | st.floats(-3.0, 3.0), min_size=1, max_size=24),
    strict=st.booleans(),
)
# row 0 leaves D by the same excess at both checks, row 1 by the slack exactly
@example(n=1, rows=2, checks=2, bounds=[(0.0, 1.0)] * 2,
         cells=[2.0] + [0.0] * 5 + [-_DOMAIN_SLACK] + [0.0] * 5, strict=False)
# a NaN row stays out of the record at every check
@example(n=2, rows=2, checks=3, bounds=[(-1.0, 1.0)] * 2,
         cells=[np.nan] + [5.0] * 11 + [3.0] + [0.0] * 11, strict=False)
def test_one_record_per_run_matches_the_per_check_records(n, rows, checks, bounds, cells, strict):
    # the per-check reference: each check's (row, excess) entries, from the full
    # excess array; a run's record holds, per row, their count and their maximum
    lo, hi = zip(*bounds[:n])
    prob = _domain_problem(lo, hi, N=6, policy="strict" if strict else "warn")
    size = rows * n * prob.N
    # each check reads the cells from its own offset: the checks differ but share values
    stack = [np.resize(np.roll(np.array(cells), c), size).reshape(rows, n, prob.N) for c in range(checks)]
    per_check = [_reference_check(prob, values) for values in stack]
    got = _fresh(rows)
    for values, (_, _, message) in zip(stack, per_check):
        if strict and message is not None:
            with pytest.raises(DomainEscapeError) as err:
                _check_domain(prob, values, got)
            assert str(err.value) == message
            return
        _check_domain(prob, values, got)
    entries = [(int(b), float(e)) for want_rows, want_excess, _ in per_check
               for b, e in zip(want_rows, want_excess)]
    count, excess = np.zeros(rows, dtype=int), np.zeros(rows)
    for b, e in entries:
        count[b] += 1
        excess[b] = max(excess[b], e)
    assert got.count.tolist() == count.tolist()
    assert got.excess.tobytes() == excess.tobytes()
    assert len(got) == len(entries) and bool(got) is bool(entries)
    assert np.count_nonzero(got.count) == len({b for b, _ in entries})
    assert got.excess.max(initial=0.0) == max((e for _, e in entries), default=0.0)


def test_escapes_are_true_exactly_when_a_row_left_d(gyre, zero_rhs):
    assert bool(run_iteration(zero_rhs, 1.0, m_max=2, tol=0.0).escapes) is False
    assert bool(run_iteration(gyre, CHI_THIRD, m_max=2, tol=0.0).escapes) is True


def test_sweep_builds_one_escape_record_per_run(gyre, monkeypatch):
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
    # one process, which counts every chunk's records and checks
    monkeypatch.setattr(determine, "_usable_cpus", lambda: 1)
    res = exclusion_sweep(gyre, 2, 2000)
    chunks = -(-(2000 + 2) // 163)  # the centres and Omega's two ends
    assert res.escaped_probes == 2000
    assert len(checks) == 3 * chunks  # u_0, u_1 and u_2 of each chunk's run
    # one record per run, which each check updates in place, and one of Omega's
    # two ends' rows; a record per check and run made 52, one per probe row and
    # check 12,000
    assert len(records) == chunks + 1 == 14
    # the sweep split across two processes finds the same escapes and values
    monkeypatch.undo()
    monkeypatch.setattr(determine, "_usable_cpus", lambda: 2)
    split = exclusion_sweep(gyre, 2, 2000)
    assert split.delta.tobytes() == res.delta.tobytes()
    assert (split.escaped_probes, split.worst_excess) == (res.escaped_probes, res.worst_excess)
    assert escape_rows([split.ends[1]]) == escape_rows([res.ends[1]])


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
    # the run builds u_0 once for every step, the chain one for each step;
    # 163 rows at N = 401 convolve as a ramp of dots, N = 1024 through the FFT
    prob, chi = _chain_case(name, gyre)
    sol = run_iteration(prob, chi, m_max=3, tol=0.0)
    chain = [u0(prob, chi)]
    for _ in range(3):
        chain.append(iterate_step(prob, chain[-1], chi, u0(prob, chi)))
    assert sol.m == 3
    assert [u.shape for u in sol.iterates] == [u.shape for u in chain]
    assert [u.tobytes() for u in sol.iterates] == [u.tobytes() for u in chain]


def test_run_iteration_bound_trace_pins(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=3, tol=0.0)
    want = [158.82009645226074, 14.934107346069244, 1.4042779673727155]
    got = [float(b[0]) for b in displacement_bounds(gyre, len(sol.sup_diffs))]
    assert got == pytest.approx(want, rel=1e-12)
    # and the trace is exactly the geometric sequence Q^{k-1} beta
    q = gyre.K[0, 0] * 0.18806319451591874
    beta = gyre.M[0] * 0.18806319451591874
    assert got == pytest.approx([beta * q**k for k in range(3)], rel=1e-10)


def test_sup_diffs_stay_below_displacement_bounds(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=4, tol=0.0)
    assert len(sol.sup_diffs) == 4
    for diff, bound in zip(sol.sup_diffs, displacement_bounds(gyre, 4)):
        assert diff[0] <= bound[0]


def test_tolerance_stops_at_the_first_step_below_it(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=12, tol=2e-8)
    assert sol.converged is True
    assert sol.m == 8
    # 2e-8 = 1e-8 * (1 + |alpha2 - alpha1|)
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
    sol = run_iteration(gyre, CHI_THIRD, m_max=0, tol=0.0)
    assert sol.m == 0
    assert len(sol.iterates) == 1
    assert sol.sup_diffs == []
    assert sol.converged is False
    assert sol.final is sol.iterates[0]


def test_negative_steps_rejected(gyre):
    with pytest.raises(ValueError, match="m_max"):
        run_iteration(gyre, CHI_THIRD, m_max=-1, tol=0.0)


def test_run_keeps_its_slopes_as_an_array(gyre):
    # one slope, also outside Omega, is an (n,) array; a stack keeps its (B, n)
    for chi in (CHI_THIRD, -500.0):
        sol = run_iteration(gyre, chi, m_max=1, tol=0.0)
        assert sol.chi1.shape == (1,) and sol.chi1[0] == chi
    stack = np.array([[CHI_THIRD], [-500.0]])
    assert run_iteration(gyre, stack, m_max=1, tol=0.0).chi1.tobytes() == stack.tobytes()


def test_all_iterates_pin_boundaries(gyre):
    sol = run_iteration(gyre, CHI_THIRD, m_max=3, tol=0.0)
    for it in sol.iterates:
        assert it[0, 0] == gyre.alpha1[0]
        assert it[0, -1] == gyre.alpha2[0]


@given(st.integers(0, 10**6))
def test_displacement_bounds_hold_on_random_problems(seed):
    # sup|u_k - u_{k-1}| <= Q^{k-1} beta, the workhorse convergence bound
    rng = np.random.default_rng(seed)
    prob = random_scalar_problem(rng)
    chi = float(rng.uniform(-2, 2))
    sol = run_iteration(prob, chi, m_max=3, tol=0.0)
    assert len(sol.sup_diffs) == 3
    for diff, bound in zip(sol.sup_diffs, displacement_bounds(prob, 3)):
        assert diff[0] <= bound[0] * (1 + 1e-12)


@given(st.integers(0, 10**6))
def test_zero_rhs_family_converges_to_line(seed):
    rng = np.random.default_rng(seed)
    prob, chi_star = zero_rhs_problem(rng)
    sol = run_iteration(prob, chi_star, m_max=3, tol=0.0)
    assert sol.converged is True
    t = prob.grid.nodes
    line = prob.alpha1[0] + chi_star * t
    assert np.allclose(sol.final[0], line, rtol=0, atol=1e-12)
