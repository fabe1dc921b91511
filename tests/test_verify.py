"""A-posteriori residuals and figure-data export."""

import dataclasses
import textwrap

import numpy as np
import pytest

from fracbvp.determine import delta_m
from fracbvp.iterate import run_iteration
from fracbvp.problem import Box, Problem, builtin_problem, problem_from_config
from fracbvp.verify import emit_figure_data, residuals
from fracbvp import exprlang

CHI_ROOT = -332.30179286902836

# cD^p u = g0 + c3 t^(3-p) with g0 = Gamma(p+1) and c3 = 6/Gamma(4-p)
# manufactures the exact solution u = t^p + t^3 (chi* = 0) for p = 1.5,
# so the residual of u_1 is pure discretization error.
CUBIC_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1.0
    alpha1 = 0.0
    alpha2 = 2.0
    N = {N}

    [domain]
    lo = -5.0
    hi = 5.0

    [rhs]
    expr = g0 + c3 * t^1.5
    g0 = 1.329340388179137
    c3 = 4.513516668382049

    [omega_box]
    lo = -2.0
    hi = 2.0

    [bounds]
    M = 5.842857056561186
    K = 0.0
    """
)


def _gyre_run(gyre, m, chi=CHI_ROOT):
    return run_iteration(gyre, chi, m_max=m, tol=0.0)


# --- residual report --------------------------------------------------------


def test_residual_pins_at_root(gyre):
    r0 = residuals(gyre, _gyre_run(gyre, 0))
    r2 = residuals(gyre, _gyre_run(gyre, 2))
    assert r0.sup_residual[0] == pytest.approx(422.1280846656383, rel=1e-11)
    assert r2.sup_residual[0] == pytest.approx(0.5444536694928432, rel=1e-11)
    # two iterations buy three orders of magnitude on this problem
    assert r2.sup_residual[0] <= 0.5 * r0.sup_residual[0]


def test_residual_delta_vanishes_at_root(gyre):
    rep = residuals(gyre, _gyre_run(gyre, 2))
    assert abs(rep.delta[0]) <= 1e-9
    assert rep.includes_delta_offset is True


@pytest.mark.parametrize("m, chi", [(0, -325.0), (2, CHI_ROOT)])
def test_residual_delta_and_f_are_the_bits_of_delta_m_and_the_unbound_f(gyre, m, chi):
    # one evaluation of f along u_m gives both the f column and Delta_m
    sol = _gyre_run(gyre, m, chi)
    rep = residuals(gyre, sol)
    assert rep.delta.tobytes() == delta_m(gyre, sol).tobytes()
    assert rep.rhs.tobytes() == gyre.rhs(sol.final.grid.nodes, sol.final.values).tobytes()


def test_boundary_residuals_are_exact(gyre):
    rep = residuals(gyre, _gyre_run(gyre, 2))
    assert rep.boundary_residuals[0][0] == 0.0
    assert rep.boundary_residuals[1][0] == 0.0


def test_residual_interior_sup_excludes_end_panels(gyre):
    rep = residuals(gyre, _gyre_run(gyre, 2))
    vals = rep.residual_grid.values
    N = rep.residual_grid.grid.N
    assert rep.sup_residual[0] == np.max(vals[0, 2 : N - 2])
    # the one-sided stencil panels are present in the grid data
    assert vals.shape == (1, N)


def test_delta_offset_toggle(gyre):
    # far from a root the no-offset residual is dominated by |Delta_m|
    sol = _gyre_run(gyre, 2, chi=-320.0)
    with_offset = residuals(gyre, sol, include_delta=True)
    without = residuals(gyre, sol, include_delta=False)
    delta = abs(with_offset.delta[0])
    assert delta == pytest.approx(15.7349224231873, rel=1e-11)
    assert without.sup_residual[0] == pytest.approx(delta, rel=0.05)
    assert with_offset.sup_residual[0] < 0.1 * without.sup_residual[0]
    assert without.includes_delta_offset is False


def test_residuals_reject_empty_and_tiny_grids(zero_rhs):
    sol = run_iteration(zero_rhs, 1.0, m_max=1, tol=0.0)
    broken = dataclasses.replace(sol, iterates=[])
    with pytest.raises(ValueError, match="no iterates"):
        residuals(zero_rhs, broken)


def test_zero_rhs_line_residual_is_roundoff(zero_rhs):
    sol = run_iteration(zero_rhs, 1.0, m_max=1, tol=0.0)
    rep = residuals(zero_rhs, sol)
    assert rep.sup_residual[0] <= 1e-6
    assert abs(rep.delta[0]) <= 1e-12


def test_manufactured_power_solution_is_exact():
    # f = Gamma(p+1): exact solution u = t^p with chi* = 0; the split
    # Caputo stencil and the quadrature are both exact on t^p, so the
    # residual collapses to roundoff at any N.
    cfg = CUBIC_CFG.format(N=101).replace("expr = g0 + c3 * t^1.5", "expr = g0")
    cfg = cfg.replace("alpha2 = 2.0", "alpha2 = 1.0")
    prob = problem_from_config(cfg)
    sol = run_iteration(prob, 0.0, m_max=1, tol=0.0)
    rep = residuals(prob, sol)
    assert rep.sup_residual[0] <= 1e-10
    assert abs(rep.delta[0]) <= 1e-12


def test_manufactured_cubic_residual_pins_and_refinement():
    sups = {}
    for N in (201, 401, 801):
        prob = problem_from_config(CUBIC_CFG.format(N=N))
        sol = run_iteration(prob, 0.0, m_max=1, tol=0.0)
        sups[N] = float(residuals(prob, sol).sup_residual[0])
    assert sups[201] == pytest.approx(1.1300066991177804e-3, rel=1e-9)
    assert sups[401] == pytest.approx(3.9951769986590335e-4, rel=1e-9)
    assert sups[801] == pytest.approx(1.4125083738814048e-4, rel=1e-9)
    # halving h shrinks the residual by ~2^p = 2.83; demand at least 1.8
    assert sups[201] / sups[401] >= 1.8
    assert sups[401] / sups[801] >= 1.8


def test_iterate_stable_under_grid_refinement():
    # the same probe on a 10x finer grid moves u_1(1/2) by < 1e-3
    vals = {}
    for N in (401, 4001):
        g = dataclasses.replace(builtin_problem("acc-gyre"), N=N)
        sol = run_iteration(g, -320.68, m_max=1, tol=0.0)
        vals[N] = float(sol.final(0.5)[0])
    assert vals[401] == pytest.approx(-95.55462309604106, rel=1e-12)
    assert vals[4001] == pytest.approx(-95.55464448874446, rel=1e-12)
    assert abs(vals[401] - vals[4001]) <= 1e-3


def test_report_to_dict_keys(gyre):
    d = residuals(gyre, _gyre_run(gyre, 2)).to_dict()
    assert set(d) == {
        "sup_residual",
        "boundary_residual_left",
        "boundary_residual_right",
        "includes_delta_offset",
        "delta",
    }


# --- figure data -------------------------------------------------------------


def test_figure_header_scalar_exact(gyre):
    hdr, rows = emit_figure_data(gyre, _gyre_run(gyre, 2))
    assert hdr == "t,u_0,u_1,u_2,f,caputo"
    assert rows.shape == (401, 6)


def test_figure_columns_match_iterates(gyre):
    sol = _gyre_run(gyre, 2)
    hdr, rows = emit_figure_data(gyre, sol)
    assert np.array_equal(rows[:, 0], sol.final.grid.nodes)
    for k in range(3):
        assert np.array_equal(rows[:, 1 + k], sol.iterates[k].values[0])
    fcol = gyre.rhs(sol.final.grid.nodes, sol.final.values)[0]
    assert np.array_equal(rows[:, 4], fcol)


@pytest.mark.parametrize("include_delta", [True, False])
def test_figure_from_the_residual_report_is_the_same_table(gyre, include_delta):
    sol = _gyre_run(gyre, 2)
    report = residuals(gyre, sol, include_delta=include_delta)
    hdr, rows = emit_figure_data(gyre, sol)
    hdr_shared, rows_shared = emit_figure_data(gyre, sol, report)
    assert hdr_shared == hdr
    assert rows_shared.shape == rows.shape
    assert np.array_equal(rows_shared, rows)


def test_figure_iterate_gap_pin(gyre):
    sol = _gyre_run(gyre, 2)
    _, rows = emit_figure_data(gyre, sol)
    gap = np.max(np.abs(rows[:, 3] - rows[:, 2]))
    assert gap == pytest.approx(1.1760812183081555, rel=1e-11)


def test_figure_header_two_component_suffixes():
    prob = Problem(
        p=1.5,
        T=1.0,
        alpha1=np.array([0.0, 0.0]),
        alpha2=np.array([1.0, 2.0]),
        domain=Box(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
        f=exprlang.parse("0; 0", 2, {}),
        f_source="0; 0",
        constants={},
        omega=Box(np.array([-1.0, -1.0]), np.array([3.0, 3.0])),
        M=np.array([0.0, 0.0]),
        K=np.zeros((2, 2)),
        N=21,
    )
    sol = run_iteration(prob, np.array([1.0, 2.0]), m_max=1, tol=0.0)
    hdr, rows = emit_figure_data(prob, sol)
    assert hdr == "t,u_0_c1,u_0_c2,u_1_c1,u_1_c2,f_c1,f_c2,caputo_c1,caputo_c2"
    assert rows.shape == (21, 9)


def test_figure_caputo_column_near_zero_for_line(zero_rhs):
    # u = line: the split stencil annihilates affine functions
    sol = run_iteration(zero_rhs, 1.0, m_max=1, tol=0.0)
    hdr, rows = emit_figure_data(zero_rhs, sol)
    cap = rows[:, hdr.split(",").index("caputo")]
    assert np.max(np.abs(cap[2:-2])) <= 1e-8


def test_batched_runs_have_no_single_residual_table():
    gyre = builtin_problem("acc-gyre")
    approx = run_iteration(gyre, [[-330.0], [-325.0]], m_max=1, tol=0.0)
    assert approx.final.values.shape == (2, 1, gyre.N)
    with pytest.raises(ValueError, match=r"residuals: need the run at one chi1"):
        residuals(gyre, approx)
    one = run_iteration(gyre, -330.0, m_max=1, tol=0.0)
    with pytest.raises(ValueError, match=r"emit_figure_data: need the run at one chi1"):
        emit_figure_data(gyre, approx, residuals(gyre, one))
