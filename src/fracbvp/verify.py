"""A-posteriori residual checks and figure-ready data export.

The iteration never differentiates anything, so an independent check is
to push the final iterate through the numerical Caputo operator and
compare against the right-hand side: theory says the m-th iterate
solves the modified equation

    cD^p u_m = f(t, u_m) + Delta_m(chi1)

exactly, so with the offset included the residual measures pure
discretization error, and without it the residual measures how far the
probed chi1 still is from a root.  Sup norms are reported over interior
nodes, excluding the two panels at each end where the Caputo stencil is
one-sided and would dominate misleadingly; the full grid is still
present in the exported table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determine import _delta
from .fracops import caputo_derivative
from .iterate import ApproxSolution, _require_finite, _rhs
from .problem import Problem

__all__ = ["ResidualReport", "emit_figure_data", "residuals"]


@dataclass
class ResidualReport:
    residual_grid: np.ndarray  # |cD^p u_m - f - Delta_m| at every node, (n, N)
    sup_residual: np.ndarray
    boundary_residuals: tuple[np.ndarray, np.ndarray]
    includes_delta_offset: bool
    delta: np.ndarray
    caputo: np.ndarray  # cD^p of the final iterate, (n, N)
    rhs: np.ndarray  # f(t, u_m) of the final iterate, (n, N)

    def to_dict(self) -> dict:
        return {
            "sup_residual": self.sup_residual.tolist(),
            "boundary_residual_left": self.boundary_residuals[0].tolist(),
            "boundary_residual_right": self.boundary_residuals[1].tolist(),
            "includes_delta_offset": self.includes_delta_offset,
            "delta": self.delta.tolist(),
        }


def _final(approx: ApproxSolution, caller: str) -> np.ndarray:
    """The final iterate of a run at one chi1; a batched run has no single table."""
    if not approx.iterates:
        raise ValueError(f"{caller}: approximation holds no iterates")
    if approx.final.ndim != 2:
        raise ValueError(f"{caller}: need the run at one chi1, got a batch {approx.final.shape}")
    return approx.final


def residuals(prob: Problem, approx: ApproxSolution, include_delta: bool = True) -> ResidualReport:
    """Residual |cD^p u_m - f(., u_m) - Delta_m| of the final iterate; one that is
    not finite (say, h^2 underflows in cD^p) raises DomainEscapeError."""
    u = _final(approx, "residuals")
    cap = caputo_derivative(u, prob.grid, prob.p)
    fvals = _rhs(prob, u)
    # Delta_m from the same f values, as delta_m(prob, approx) would evaluate them
    delta = _delta(prob, approx.chi1, fvals)
    offset = delta[:, np.newaxis] if include_delta else 0.0
    res = np.abs(cap - fvals - offset)
    _require_finite(prob, res, "Caputo residual")  # also where cD^p is not finite
    sup_interior = np.max(res[:, 2 : prob.N - 2], axis=1)
    return ResidualReport(
        residual_grid=res,
        sup_residual=sup_interior,
        boundary_residuals=(
            np.abs(u[:, 0] - prob.alpha1),
            np.abs(u[:, -1] - prob.alpha2),
        ),
        includes_delta_offset=include_delta,
        delta=delta,
        caputo=cap,
        rhs=fvals,
    )


def emit_figure_data(
    prob: Problem, approx: ApproxSolution, report: ResidualReport
) -> tuple[str, np.ndarray]:
    """Table behind the standard four plots: iterates, rhs, derivative.

    Returns (header, rows).  For scalar problems the header is exactly
    ``t,u_0,...,u_m,f,caputo``; for systems each u/f/caputo column gains
    a ``_cJ`` component suffix.  ``f`` and ``caputo`` refer to the final
    iterate, as held by ``report``, the ``residuals`` of the same ``approx``.
    """
    _final(approx, "emit_figure_data")
    cols = [prob.operator.nodes]
    names = ["t"]
    for k, it in enumerate(approx.iterates):
        for j in range(prob.n):
            cols.append(it[j])
            names.append(f"u_{k}" if prob.n == 1 else f"u_{k}_c{j + 1}")
    for j in range(prob.n):
        cols.append(report.rhs[j])
        names.append("f" if prob.n == 1 else f"f_c{j + 1}")
    for j in range(prob.n):
        cols.append(report.caputo[j])
        names.append("caputo" if prob.n == 1 else f"caputo_c{j + 1}")
    return ",".join(names), np.column_stack(cols)
