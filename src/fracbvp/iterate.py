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
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .fracops import Grid, GridFunction, ProductTrapezoid, kernel_constant
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


# Problem -> {Grid: (ProductTrapezoid, f bound on the grid's nodes)}.  The
# keys are weak, so an operator lives exactly as long as the problem that
# built it.
_OPERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cached(prob: Problem, grid: Grid) -> tuple[ProductTrapezoid, tuple]:
    """The integral operator of ``prob`` on ``grid`` and f with its t-only
    subtrees evaluated on the nodes (``exprlang.bind``), built on first use.

    Every iterate and every Delta_m probe of the problem shares them.
    """
    ops = _OPERATORS.setdefault(prob, {})
    entry = ops.get(grid)
    if entry is None:
        op = ProductTrapezoid(grid, prob.p)
        entry = ops[grid] = (op, exprlang.bind(prob.f, op.nodes))
    return entry


def _operator(prob: Problem, grid: Grid) -> ProductTrapezoid:
    """The cached integral operator of ``prob`` on ``grid``."""
    return _cached(prob, grid)[0]


class DomainEscapeError(RuntimeError):
    """An iterate left the domain box D beyond the numerical slack."""


@dataclass(frozen=True)
class DomainEscape:
    """Record of a domain excursion under the 'warn' policy."""

    t: float
    component: int  # 1-based, matching u1..un naming
    value: float
    excess: float
    probe: int = 0  # row of the chi1 stack that left D (0 for one chi1)


def _escape_stats(escapes: list[DomainEscape]) -> tuple[int, float]:
    """(number of distinct probes that left D, worst excess) of escape records."""
    return len({e.probe for e in escapes}), max((e.excess for e in escapes), default=0.0)


def _check_domain(
    prob: Problem, u: GridFunction, nodes: np.ndarray, escapes: list[DomainEscape] | None
) -> None:
    """Records each batch row whose iterate leaves D, at its worst node."""
    N = u.grid.N
    v = u.values.reshape(-1, u.n_components * N)
    excess = np.maximum(np.repeat(prob.domain.lo, N) - v, v - np.repeat(prob.domain.hi, N))
    cols = np.argmax(excess, axis=1)
    worst = excess[np.arange(len(v)), cols]
    rows = np.flatnonzero(worst > _DOMAIN_SLACK)
    cols = cols[rows]
    found = zip(rows.tolist(), cols.tolist(), nodes[cols % N].tolist(), v[rows, cols].tolist(),
                worst[rows].tolist())
    for b, k, t, value, worst_b in found:
        record = DomainEscape(t, k // N + 1, value, worst_b, b)
        if prob.domain_policy == "strict":
            raise DomainEscapeError(
                f"iterate leaves D by {record.excess:.6g} at t={record.t:.6g} "
                f"(component {record.component}); the convergence theory assumes iterates stay in D"
            )
        # collected runs return their escapes as data, standalone calls warn
        if escapes is not None:
            escapes.append(record)
        else:
            _log.warning("iterate leaves D by %.3g at t=%.6g (component %d); continuing "
                         "(domain_policy=warn)", record.excess, record.t, record.component)


def _interpolant(prob: Problem, op: ProductTrapezoid, chi: np.ndarray, ip=None) -> GridFunction:
    """u_0 at chi, plus the corrected integral term ip - (t/T)^p ip(T) when given."""
    coeff = prob.alpha2 - prob.alpha1 - chi * prob.T
    vals = chi[..., np.newaxis] * op.nodes
    vals += prob.alpha1[:, np.newaxis]
    vals += coeff[..., np.newaxis] * op.ratio
    if ip is not None:
        vals += ip
        vals -= ip[..., -1:] * op.ratio
    vals[..., 0] = prob.alpha1
    vals[..., -1] = prob.alpha2
    return GridFunction(op.grid, vals)


def _rhs(prob: Problem, op: ProductTrapezoid, values: np.ndarray) -> np.ndarray:
    """f along (n, N) or (B, n, N) values on the operator's grid, the bits of
    ``prob.rhs``; exprlang wants components first."""
    f = exprlang.evaluate(_cached(prob, op.grid)[1], op.nodes, np.moveaxis(values, -2, 0))
    return np.moveaxis(f, 0, -2)


def u0(prob: Problem, chi1) -> GridFunction:
    """Zeroth approximation: the (t/T)^p-corrected boundary interpolant."""
    chi = np.atleast_1d(np.asarray(chi1, dtype=float))
    return _interpolant(prob, _operator(prob, prob.grid), chi)


def iterate_step(
    prob: Problem,
    prev: GridFunction,
    chi1,
    escapes: list[DomainEscape] | None = None,
) -> GridFunction:
    """One application of the integral operator to the previous iterate.

    Checks that ``prev`` stays inside D first (hard error beyond 1e-9
    under the 'strict' policy; logged and recorded under 'warn'), then
    evaluates f along prev and assembles the corrected integral term.
    """
    op = _operator(prob, prev.grid)
    _check_domain(prob, prev, op.nodes, escapes)
    chi = np.atleast_1d(np.asarray(chi1, dtype=float))
    fvals = _rhs(prob, op, prev.values)
    ip = op.running(fvals.reshape(-1, op.grid.N)).reshape(fvals.shape) / op.gamma_p
    return _interpolant(prob, op, chi, ip)


@dataclass
class ApproxSolution:
    """The iterate trace at one parameter value (or a stack), with diagnostics."""

    chi1: ParameterPoint
    iterates: list[GridFunction]
    sup_diffs: list[np.ndarray]
    bounds_used: list[np.ndarray]
    converged: bool
    m: int
    escapes: list[DomainEscape] = field(default_factory=list)

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
    excursions under the 'warn' policy are returned in ``escapes``.  A
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

    escapes: list[DomainEscape] = []
    current = u0(prob, chi)
    iterates = [current]
    sup_diffs: list[np.ndarray] = []
    bounds_used: list[np.ndarray] = []
    converged = False
    for k in range(1, m_max + 1):
        nxt = iterate_step(prob, current, chi, escapes=escapes)
        diff = np.max(np.abs(nxt.values - current.values), axis=-1)
        sup_diffs.append(diff)
        if have_bounds:
            bounds_used.append(np.linalg.matrix_power(Q, k - 1) @ beta)
        iterates.append(nxt)
        current = nxt
        if np.all(diff <= tol_vec):
            converged = True
            break
    _check_domain(prob, current, _operator(prob, current.grid).nodes, escapes)
    point = ParameterPoint(chi, prob.omega.contains(chi))
    return ApproxSolution(
        chi1=point,
        iterates=iterates,
        sup_diffs=sup_diffs,
        bounds_used=bounds_used,
        converged=converged,
        m=len(iterates) - 1,
        escapes=escapes,
    )
