"""Successive approximations u_0, u_1, ... for a fixed initial slope.

For a candidate slope chi1 the sequence starts from the boundary-data
interpolant

    u_0(t) = alpha1 + chi1 t + (alpha2 - alpha1 - chi1 T) (t/T)^p

and each step adds the boundary-corrected fractional integral of the
right-hand side along the previous iterate:

    u_m(t) = u_0(t) + I^p[f(., u_{m-1})](t) - (t/T)^p I^p[f(., u_{m-1})](T).

Both endpoint values are pinned to alpha1/alpha2 exactly, so every
iterate satisfies the Dirichlet data to roundoff by construction.  The
sup-differences between consecutive iterates contract at the rate of
the condition matrix Q, which run_iteration records next to the
corresponding a-priori bounds.  A (B, n) stack of slopes runs B
sequences at once, values (B, n, N), each row bit-identical to its own run.
A run builds u_0 once and checks every iterate against D; its domain
escapes are one ``DomainEscape`` record of arrays, filled without a
Python object per escaped row.  Every iterate lies on ``prob.grid``: each
step takes the problem's shared operator, ``prob.operator``, and f bound
on its nodes, ``prob.f_on_grid``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from . import exprlang
from .fracops import GridFunction, ProductTrapezoid, kernel_constant
from .problem import ParameterPoint, Problem

__all__ = [
    "ApproxSolution",
    "DomainEscape",
    "DomainEscapeError",
    "iterate_step",
    "run_iteration",
    "u0",
]

_log = logging.getLogger(__name__)

_DOMAIN_SLACK = 1e-9


class DomainEscapeError(RuntimeError):
    """An iterate left the domain box D beyond the numerical slack."""


@dataclass(frozen=True, eq=False)
class DomainEscape:
    """Domain excursions under the 'warn' policy: one array entry per check and
    row that left D, at its worst node, in check order; ``len()`` counts them."""

    probe: np.ndarray  # row of the chi1 stack that left D (0 for one chi1)
    t: np.ndarray
    component: np.ndarray  # 1-based, matching u1..un naming
    value: np.ndarray
    excess: np.ndarray

    def __len__(self) -> int:
        return len(self.probe)


def _concat_escapes(records: list[DomainEscape]) -> DomainEscape:
    """One record of the entries of ``records``, in order."""
    return DomainEscape(*(np.concatenate([getattr(r, f.name) for r in records])
                          for f in fields(DomainEscape)))


def _escape_stats(records: list[DomainEscape]) -> tuple[int, float]:
    """(number of distinct probes that left D, worst excess) of escape records."""
    if not any(records):
        return 0, 0.0
    probes = np.concatenate([r.probe for r in records])
    return np.unique(probes).size, float(max(r.excess.max(initial=0.0) for r in records))


def _check_domain(
    prob: Problem, u: GridFunction, nodes: np.ndarray, escapes: list[DomainEscape] | None
) -> None:
    """Records each batch row whose iterate leaves D, at its worst node, as
    one record appended to ``escapes``; the 'strict' policy raises at the first."""
    N = u.grid.N
    v = u.values.reshape(-1, u.n_components * N)
    excess = np.maximum(np.repeat(prob.domain.lo, N) - v, v - np.repeat(prob.domain.hi, N))
    cols = np.argmax(excess, axis=1)
    worst = excess[np.arange(len(v)), cols]
    rows = np.flatnonzero(worst > _DOMAIN_SLACK)
    cols = cols[rows]
    found = DomainEscape(rows, nodes[cols % N], cols // N + 1, v[rows, cols], worst[rows])
    if prob.domain_policy == "strict" and len(found):
        raise DomainEscapeError(
            f"iterate leaves D by {found.excess[0]:.6g} at t={found.t[0]:.6g} "
            f"(component {found.component[0]}); the convergence theory assumes iterates stay in D"
        )
    # collected runs return their escapes as data, standalone calls warn
    if escapes is not None:
        escapes.append(found)
        return
    for excess_b, t, component in zip(found.excess.tolist(), found.t.tolist(),
                                      found.component.tolist()):
        _log.warning("iterate leaves D by %.3g at t=%.6g (component %d); continuing "
                     "(domain_policy=warn)", excess_b, t, component)


def _interpolant(prob: Problem, op: ProductTrapezoid, chi: np.ndarray) -> np.ndarray:
    """Values of u_0 at chi on the operator's grid."""
    coeff = prob.alpha2 - prob.alpha1 - chi * prob.T
    vals = chi[..., np.newaxis] * op.nodes
    vals += prob.alpha1[:, np.newaxis]
    vals += coeff[..., np.newaxis] * op.ratio
    vals[..., 0] = prob.alpha1
    vals[..., -1] = prob.alpha2
    return vals


def _rhs(prob: Problem, values: np.ndarray) -> np.ndarray:
    """f along (n, N) or (B, n, N) values on ``prob.grid``, the bits of
    ``prob.rhs``; exprlang wants components first."""
    if np.shape(values)[-1] != prob.N:
        raise ValueError(f"values must lie on the problem's grid of {prob.N} nodes, got {np.shape(values)}")
    f = exprlang.evaluate(prob.f_on_grid, prob.operator.nodes, np.moveaxis(values, -2, 0))
    return np.moveaxis(f, 0, -2)


def u0(prob: Problem, chi1) -> GridFunction:
    """Zeroth approximation: the (t/T)^p-corrected boundary interpolant."""
    op = prob.operator
    return GridFunction(op.grid, _interpolant(prob, op, np.atleast_1d(np.asarray(chi1, dtype=float))))


def iterate_step(
    prob: Problem,
    prev: GridFunction,
    chi1,
    escapes: list[DomainEscape] | None = None,
    *,
    u0_values: np.ndarray | None = None,
) -> GridFunction:
    """One application of the integral operator to the previous iterate.

    Checks that ``prev`` stays inside D first (hard error beyond 1e-9
    under the 'strict' policy; logged, or appended to ``escapes`` when
    given, under 'warn'), then evaluates f along prev and adds the
    corrected integral term to u_0.  ``prev`` must lie on ``prob.grid``
    (ValueError otherwise).  ``u0_values``, when given, are the values of
    ``u0(prob, chi1)``, which are then not rebuilt.
    """
    op = prob.operator
    if prev.grid != op.grid:
        raise ValueError(f"prev lies on {prev.grid}, not on the problem's {op.grid}")
    _check_domain(prob, prev, op.nodes, escapes)
    if u0_values is None:
        u0_values = _interpolant(prob, op, np.atleast_1d(np.asarray(chi1, dtype=float)))
    fvals = _rhs(prob, prev.values)
    ip = op.running(fvals.reshape(-1, op.grid.N)).reshape(fvals.shape)
    ip /= op.gamma_p
    vals = u0_values + ip
    vals -= ip[..., -1:] * op.ratio
    vals[..., 0] = prob.alpha1
    vals[..., -1] = prob.alpha2
    return GridFunction(op.grid, vals)


@dataclass
class ApproxSolution:
    """The iterate trace at one parameter value (or a stack), with diagnostics."""

    chi1: ParameterPoint
    iterates: list[GridFunction]
    sup_diffs: list[np.ndarray]
    bounds_used: list[np.ndarray]
    converged: bool
    m: int
    escapes: DomainEscape

    @property
    def final(self) -> GridFunction:
        return self.iterates[-1]


def run_iteration(
    prob: Problem,
    chi1,
    m_max: int = 10,
    tol: float | np.ndarray | None = None,
) -> ApproxSolution:
    """Iterate up to m_max steps or until sup|u_m - u_{m-1}| <= tol.

    ``tol`` defaults to 1e-8 * (1 + |alpha2 - alpha1|); pass 0.0 to run
    exactly m_max steps (useful when a specific iteration depth m is
    wanted, e.g. for determining-function probes — the loop still stops
    early on a bitwise fixed point, which changes nothing downstream).
    Non-convergence at m_max is reported via ``converged=False``, not an
    exception.  Every iterate, u_m included, is checked against D;
    excursions under the 'warn' policy are returned in ``escapes``, one
    ``DomainEscape`` record for the whole run.  u_0 is built once and every
    step adds its integral term to the same values.  A
    (B, n) stack of slopes stops early only when every row meets ``tol``.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    chi = np.atleast_1d(np.asarray(chi1, dtype=float))
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.max(np.abs(prob.alpha2 - prob.alpha1))))
    tol_vec = np.broadcast_to(np.asarray(tol, dtype=float), (prob.n,))

    kc = kernel_constant(prob.T, prob.p)
    have_bounds = prob.M is not None and prob.K is not None
    if have_bounds:
        Q = np.atleast_2d(prob.K) * kc
        beta = prob.M * kc

    checks: list[DomainEscape] = []
    current = u0(prob, chi)
    iterates = [current]
    sup_diffs: list[np.ndarray] = []
    bounds_used: list[np.ndarray] = []
    converged = False
    for k in range(1, m_max + 1):
        nxt = iterate_step(prob, current, chi, escapes=checks, u0_values=iterates[0].values)
        diff = np.max(np.abs(nxt.values - current.values), axis=-1)
        sup_diffs.append(diff)
        if have_bounds:
            bounds_used.append(np.linalg.matrix_power(Q, k - 1) @ beta)
        iterates.append(nxt)
        current = nxt
        if np.all(diff <= tol_vec):
            converged = True
            break
    _check_domain(prob, current, prob.operator.nodes, checks)
    point = ParameterPoint(chi, prob.omega.contains(chi))
    return ApproxSolution(
        chi1=point,
        iterates=iterates,
        sup_diffs=sup_diffs,
        bounds_used=bounds_used,
        converged=converged,
        m=len(iterates) - 1,
        escapes=_concat_escapes(checks),
    )
