"""Successive approximations u_0, u_1, ... for a fixed initial slope.

For a candidate slope chi1 the sequence starts from the boundary-data
interpolant

    u_0(t) = alpha1 + chi1 t + (alpha2 - alpha1 - chi1 T) (t/T)^p

and each step adds the boundary-corrected fractional integral of the
right-hand side along the previous iterate:

    u_m(t) = u_0(t) + I^p[f(., u_{m-1})](t) - (t/T)^p I^p[f(., u_{m-1})](T).

Both endpoint values are pinned to alpha1/alpha2 exactly, so every
iterate satisfies the Dirichlet data to roundoff by construction.  The
sup-differences between consecutive iterates, which run_iteration
records, contract at the rate of the condition matrix Q: under the
solvability conditions sup|u_k - u_{k-1}| <= Q^(k-1) beta, with Q and
beta from ``conditions.check_conditions``.  The iteration itself needs
neither M nor K.  A (B, n) stack of slopes runs B
sequences at once, values (B, n, N), each row bit-identical to its own run.
A run builds u_0 once and is the one place that checks iterates against
D: it checks u_0, ..., u_m as it builds them, and its domain escapes are
one ``DomainEscape`` record of arrays, filled without a Python object per
escaped row.  ``iterate_step`` is the bare operator application.  Every
iterate lies on ``prob.grid``: each step takes the problem's shared
operator, ``prob.operator``, and f bound on its nodes, ``prob.f_on_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import exprlang
from .fracops import GridFunction, ProductTrapezoid
from .problem import Problem

__all__ = [
    "ApproxSolution",
    "DomainEscape",
    "DomainEscapeError",
    "iterate_step",
    "run_iteration",
    "u0",
]

_DOMAIN_SLACK = 1e-9


class DomainEscapeError(RuntimeError):
    """An iterate left the domain box D beyond the numerical slack."""


@dataclass(frozen=True, eq=False)
class DomainEscape:
    """Domain excursions under the 'warn' policy: one array entry per check and
    row that left D, at its worst node, in check order; ``len()`` counts them."""

    probe: np.ndarray  # row of the chi1 stack that left D (0 for one chi1)
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


def _check_domain(prob: Problem, values: np.ndarray) -> DomainEscape:
    """The record of the batch rows of ``values`` (on ``prob.grid``) that leave D,
    each at its worst node; the 'strict' policy raises at the first such row,
    located at its worst node (the first one on a tie)."""
    lo, hi = prob.domain.lo, prob.domain.hi
    v = values.reshape(-1, prob.n, prob.N)
    # x - hi and lo - x are monotone in x, so each row's worst excess is that
    # of its extreme values, bit for bit
    worst = np.maximum(v.max(axis=-1) - hi, lo - v.min(axis=-1)).max(axis=-1)
    rows = np.flatnonzero(worst > _DOMAIN_SLACK)
    if prob.domain_policy == "strict" and len(rows):
        row = v[rows[0]]
        j, k = np.unravel_index(np.argmax(np.maximum(lo[:, None] - row, row - hi[:, None])), row.shape)
        raise DomainEscapeError(
            f"iterate leaves D by {worst[rows[0]]:.6g} at t={prob.operator.nodes[k]:.6g} "
            f"(component {j + 1}); the convergence theory assumes iterates stay in D"
        )
    return DomainEscape(rows, worst[rows])


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
    *,
    u0_values: np.ndarray | None = None,
) -> GridFunction:
    """One application of the integral operator to the previous iterate.

    Evaluates f along ``prev`` and adds the corrected integral term to
    u_0; ``prev`` is not checked against D (``run_iteration`` checks every
    iterate it builds).  ``prev`` must lie on ``prob.grid`` (ValueError
    otherwise).  ``u0_values``, when given, are the values of
    ``u0(prob, chi1)``, which are then not rebuilt.
    """
    op = prob.operator
    if prev.grid != op.grid:
        raise ValueError(f"prev lies on {prev.grid}, not on the problem's {op.grid}")
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

    chi1: np.ndarray  # (n,), or (B, n) for a stack
    iterates: list[GridFunction]
    sup_diffs: list[np.ndarray]
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
    exception.  Every iterate u_0, ..., u_m is checked against D as it is
    built: the 'strict' policy raises at the first that leaves it, and
    excursions under 'warn' are returned in ``escapes``, one
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

    current = u0(prob, chi)
    iterates = [current]
    checks = [_check_domain(prob, current.values)]
    sup_diffs: list[np.ndarray] = []
    converged = False
    for _ in range(m_max):
        nxt = iterate_step(prob, current, chi, u0_values=iterates[0].values)
        checks.append(_check_domain(prob, nxt.values))
        diff = np.max(np.abs(nxt.values - current.values), axis=-1)
        sup_diffs.append(diff)
        iterates.append(nxt)
        current = nxt
        if np.all(diff <= tol_vec):
            converged = True
            break
    return ApproxSolution(
        chi1=chi,
        iterates=iterates,
        sup_diffs=sup_diffs,
        converged=converged,
        m=len(iterates) - 1,
        escapes=_concat_escapes(checks),
    )
