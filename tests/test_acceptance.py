"""Acceptance suite: the headline claims, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion is independent; tolerances are stated inline next to the
assertions they guard.
"""

import math
import time

import numpy as np

from conftest import displacement_bounds, random_scalar_problem, zero_rhs_problem
from fracbvp.conditions import check_conditions
from fracbvp.determine import exclusion_sweep, solve_determining
from fracbvp.fracops import (
    Grid,
    GridFunction,
    ProductTrapezoid,
    alpha1,
    caputo_derivative,
    frac_integral,
    gamma,
    kernel_constant,
)
from fracbvp.iterate import run_iteration
from fracbvp.problem import builtin_problem
from fracbvp.verify import residuals


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_steep_forcing_constants():
    t0 = time.perf_counter()
    prob = builtin_problem("acc-gyre")
    report = check_conditions(prob)
    elapsed = time.perf_counter() - t0
    q_ref = 1.0 / (6.0 * math.sqrt(math.pi))
    ok = (
        prob.K[0, 0] == 0.5
        and abs(prob.M[0] - 844.11) <= 0.01 * 844.11
        and abs(report.Q[0, 0] - q_ref) <= 1e-6
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"K = {prob.K[0, 0]} (exact 0.5), M = {prob.M[0]:.4f} "
        f"(within 1% of 844.11), Q = {report.Q[0, 0]:.9f} "
        f"(1/(6*sqrt(pi)) +- 1e-6), {elapsed:.2f}s < 5s",
    )


def test_criterion_02_parameter_trace():
    t0 = time.perf_counter()
    prob = builtin_problem("acc-gyre")
    roots = [float(solve_determining(prob, m).chi1_star[0]) for m in (0, 1, 2)]
    elapsed = time.perf_counter() - t0
    targets = [(-320.68, 0.05), (-332.06, 0.15), (-332.30, 0.15)]
    ok = all(abs(r - c) <= tol for r, (c, tol) in zip(roots, targets)) and elapsed < 60.0
    _report(
        2,
        ok,
        "chi1 trace [" + ", ".join(f"{r:.5f}" for r in roots) + "] within "
        f"[-320.68+-0.05, -332.06+-0.15, -332.30+-0.15], {elapsed:.1f}s < 60s",
    )


def test_criterion_03_dirichlet_exactness():
    worst = 0.0
    for name, chi in (("acc-gyre", -332.30179286902836), ("zero-rhs", 1.0)):
        prob = builtin_problem(name)
        sol = run_iteration(prob, chi, m_max=3, tol=0.0)
        for it in sol.iterates:
            worst = max(
                worst,
                float(np.max(np.abs(it.values[:, 0] - prob.alpha1))),
                float(np.max(np.abs(it.values[:, -1] - prob.alpha2))),
            )
    ok = worst <= 1e-12
    _report(3, ok, f"every iterate meets both boundary values, worst dev {worst:.3g} <= 1e-12")


def test_criterion_04_displacement_bound_suite():
    rng = np.random.default_rng(97531)
    worst_ratio = 0.0
    for _ in range(20):
        prob = random_scalar_problem(rng)
        rep = check_conditions(prob)
        assert rep.spectral_radius < 0.5
        chi = float(rng.uniform(-2, 2))
        sol = run_iteration(prob, chi, m_max=5, tol=0.0)
        for diff, bound in zip(sol.sup_diffs, displacement_bounds(prob, len(sol.sup_diffs))):
            if bound[0] > 0:
                worst_ratio = max(worst_ratio, float(diff[0] / bound[0]))
    ok = worst_ratio <= 1.05
    _report(
        4,
        ok,
        "sup|u_m - u_(m-1)| <= 1.05 * Q^(m-1) M max(alpha1) on 20 random "
        f"problems, m = 1..5 (worst ratio {worst_ratio:.3f})",
    )


def test_criterion_05_kernel_estimate_suite():
    # The literal all-nodes pointwise inequality is analytically false in
    # an O(1-t/T) layer at the right end (see the pinned counterexample in
    # tests/test_fracops.py), so the suite checks the single-kernel forms
    # on random polynomials: pointwise on the left half, and the sup form
    # with kc, the paper's constant behind beta and Q.
    rng = np.random.default_rng(1234)
    ok = True
    for p in (1.1, 1.5, 2.0):
        grid = Grid(201, 1.0)
        quad = ProductTrapezoid(grid, p)
        env = alpha1(grid.nodes, 0.0, grid.T, p)
        kc = kernel_constant(grid.T, p)
        left = (grid.nodes > 0) & (grid.nodes <= 0.5 * grid.T)
        for _ in range(100):
            coef = rng.normal(size=rng.integers(1, 8))
            g = np.polyval(coef, grid.nodes)
            ip = quad.running(g) / gamma(p)
            lhs = np.abs(ip - (grid.nodes / grid.T) ** p * ip[-1])
            bound = env * np.max(np.abs(g))
            ok &= bool(np.all(lhs[left] <= bound[left] * (1 + 1e-9)))
            ok &= bool(np.max(lhs) <= kc * np.max(np.abs(g)) * (1 + 1e-9))
    _report(
        5,
        ok,
        "single-kernel estimate pointwise on (0, T/2] + sup form with kc, "
        "100 random polynomials x p in {1.1, 1.5, 2.0} (all-nodes literal "
        "form is analytically false near t=T; counterexample pinned in "
        "tests/test_fracops.py)",
    )


def test_criterion_06_zero_rhs_oracle():
    prob = builtin_problem("zero-rhs")
    res = solve_determining(prob, 1)
    chi = float(res.chi1_star[0])
    sol = run_iteration(prob, res.chi1_star, m_max=2)
    t = sol.final.grid.nodes
    line = prob.alpha1[0] + (prob.alpha2[0] - prob.alpha1[0]) * t / prob.T
    sup_err = float(np.max(np.abs(sol.final.values[0] - line)))
    ok = abs(chi - 1.0) <= 1e-10 and sup_err <= 1e-10
    _report(
        6,
        ok,
        f"zero-rhs returns the boundary line: chi1 = 1 + {chi - 1.0:.2e}, "
        f"sup error {sup_err:.2e} <= 1e-10",
    )


def test_criterion_07_fractional_identities():
    p = 1.5
    # I^p of the constant 1
    grid = Grid(201, 1.0)
    ones = GridFunction(grid, np.ones((1, grid.N)))
    ip = frac_integral(ones, p)
    err_int = float(np.max(np.abs(ip[0] - grid.nodes**p / gamma(p + 1.0))))
    # cD^p t^p: the split stencil is exact at every tested N, which
    # supersedes any finite convergence order ...
    errs_tp = []
    for N in (101, 201, 401, 801):
        g = Grid(N, 1.0)
        cap = caputo_derivative(GridFunction(g, (g.nodes**p)[None, :]), p)
        errs_tp.append(float(np.max(np.abs(cap.values[0, 2:-2] - gamma(p + 1.0)))))
    # ... so the refinement order is measured on t^(p+1), where the
    # error is nonzero: cD^p t^(p+1) = Gamma(p+2) t
    errs_smooth = []
    for N in (101, 201, 401, 801):
        g = Grid(N, 1.0)
        cap = caputo_derivative(GridFunction(g, (g.nodes ** (p + 1))[None, :]), p)
        exact = gamma(p + 2.0) * g.nodes
        errs_smooth.append(float(np.max(np.abs(cap.values[0, 2:-2] - exact[2:-2]))))
    orders = [math.log2(errs_smooth[i] / errs_smooth[i + 1]) for i in range(3)]
    ok = err_int <= 1e-10 and max(errs_tp) <= 1e-10 and min(orders) >= 1.0
    _report(
        7,
        ok,
        f"I^p[1] error {err_int:.2e} <= 1e-10; cD^p t^p exact at every N "
        f"(worst {max(errs_tp):.2e}, supersedes order); order on t^(p+1) "
        f"= {min(orders):.2f} >= 1 over N in {{101, 201, 401, 801}}",
    )


def test_criterion_08_exclusion_soundness():
    rng = np.random.default_rng(2468)
    root_box_exclusions = 0
    teeth_expected = 0
    teeth_seen = 0
    for _ in range(50):
        prob, chi_star = zero_rhs_problem(rng, N=41)
        n_subdiv = int(rng.integers(2, 33))
        res = exclusion_sweep(prob, 1, n_subdiv)
        for (lo, hi), keep in zip(res.subsets[:, :, 0], res.keep):
            if lo <= chi_star <= hi and not keep:
                root_box_exclusions += 1
        width = float(res.subsets[0, 1, 0] - res.subsets[0, 0, 0])
        max_delta = max(abs(float(d)) for d in res.delta[:, 0])
        if width < max_delta / float(res.coefficient[0, 0]):
            teeth_expected += 1
            if len(res.survivors) < len(res.subsets):
                teeth_seen += 1
    ok = root_box_exclusions == 0 and teeth_seen == teeth_expected and teeth_expected > 0
    _report(
        8,
        ok,
        f"50 randomized zero-rhs sweeps (up to 32 boxes): root box excluded "
        f"{root_box_exclusions}/50 times (must be 0); exclusion fired in "
        f"{teeth_seen}/{teeth_expected} diameter-qualified sweeps",
    )


def test_criterion_09_residual_improvement():
    prob = builtin_problem("acc-gyre")
    chi = -332.30179286902836
    sups = {}
    for m in (0, 2):
        sol = run_iteration(prob, chi, m_max=m, tol=0.0)
        sups[m] = float(residuals(prob, sol).sup_residual[0])
    ok = sups[2] <= 0.5 * sups[0]
    _report(
        9,
        ok,
        f"sup interior residual {sups[0]:.4g} (m=0) -> {sups[2]:.4g} (m=2), "
        f"ratio {sups[2] / sups[0]:.2g} <= 0.5",
    )


def test_criterion_10_displacement_normalization_displayed():
    report = check_conditions(builtin_problem("acc-gyre"))
    d = report.to_dict()
    target = 1.0 / (3.0 * math.sqrt(math.pi))
    ok = (
        abs(d["beta_over_m"] - target) <= 1e-6
        and d["beta"][0] > 100.0  # the raw bound is displayed, not hidden
        and d["dbeta_basis"] == "normalized"
        and d["dbeta_centered_ok"] is False
    )
    _report(
        10,
        ok,
        f"report shows raw beta = {d['beta'][0]:.2f} and beta/M = "
        f"{d['beta_over_m']:.9f} = 1/(3*sqrt(pi)) +- 1e-6, with the "
        f"domain verdict flagged as basis '{d['dbeta_basis']}'",
    )
