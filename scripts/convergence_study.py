#!/usr/bin/env python3
"""Grid-refinement study for the quadrature, the Caputo stencil, and the
end-to-end residual on a manufactured solution.

Three tables:

1. cD^p applied to t^p (the stencil's exactness case) and to t^(p+1)
   (generic smooth-plus-singular mix) over a doubling sequence of N.
2. I^p applied to the constant 1 against t^p/Gamma(p+1).
3. Interior residual of u_1 on the manufactured problem
   cD^1.5 u = Gamma(2.5) + (6/Gamma(2.5)) t^1.5, u(0)=0, u(1)=2,
   whose exact solution is u = t^1.5 + t^3 with slope parameter 0.

Orders are log2 ratios of successive errors; the residual order should
approach p itself (here 1.5).
"""

import argparse
import math
import sys
import textwrap

import numpy as np

from fracbvp.fracops import Grid, caputo_derivative, frac_integral, gamma
from fracbvp.iterate import run_iteration
from fracbvp.problem import problem_from_config
from fracbvp.verify import residuals

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


def _order_column(errs):
    orders = ["    -"]
    for a, b in zip(errs, errs[1:]):
        orders.append(f"{math.log2(a / b):5.2f}" if b > 0 else "  inf")
    return orders


def caputo_table(p: float, grids) -> None:
    print(f"\ncD^{p} stencil errors (sup over interior nodes)")
    print(f"{'N':>6}  {'err on t^p':>12}  {'err on t^(p+1)':>14}  order")
    exact_errs, smooth_errs = [], []
    for N in grids:
        g = Grid(N, 1.0)
        cap = caputo_derivative(g.nodes**p, g, p)
        exact_errs.append(float(np.max(np.abs(cap[0, 2:-2] - gamma(p + 1)))))
        cap = caputo_derivative(g.nodes ** (p + 1), g, p)
        want = gamma(p + 2) * g.nodes
        smooth_errs.append(float(np.max(np.abs(cap[0, 2:-2] - want[2:-2]))))
    for N, e1, e2, o in zip(grids, exact_errs, smooth_errs, _order_column(smooth_errs)):
        print(f"{N:>6}  {e1:12.3e}  {e2:14.3e}  {o}")


def integral_table(p: float, grids) -> None:
    print(f"\nI^{p}[1] errors against t^p/Gamma(p+1)")
    for N in grids:
        g = Grid(N, 1.0)
        ip = frac_integral(np.ones(N), g, p)
        err = float(np.max(np.abs(ip[0] - g.nodes**p / gamma(p + 1))))
        print(f"{N:>6}  {err:12.3e}")


def residual_table(grids) -> None:
    print("\nmanufactured u = t^1.5 + t^3: interior residual of u_1 at chi1 = 0")
    errs = []
    for N in grids:
        prob = problem_from_config(CUBIC_CFG.format(N=N))
        sol = run_iteration(prob, 0.0, m_max=1, tol=0.0)
        errs.append(float(residuals(prob, sol).sup_residual[0]))
    for N, e, o in zip(grids, errs, _order_column(errs)):
        print(f"{N:>6}  {e:12.3e}  {o}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=1.5, help="fractional order (1, 2]")
    ap.add_argument(
        "--grids",
        type=int,
        nargs="+",
        default=[101, 201, 401, 801],
        help="node counts for the refinement sequence",
    )
    args = ap.parse_args()
    caputo_table(args.p, args.grids)
    integral_table(args.p, args.grids)
    residual_table(args.grids)
    return 0


if __name__ == "__main__":
    sys.exit(main())
