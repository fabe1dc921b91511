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
one ``DomainEscape`` record with one entry per row, which every check
updates in place.  ``iterate_step`` is the bare operator application.  Every
iterate is an array on ``prob.grid``: each step takes the problem's shared
operator, ``prob.operator``, and f bound on its nodes, ``prob.f_on_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .fracops import ProductTrapezoid
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
    """An iterate left the domain box D beyond the numerical slack, or an iterate
    or a value computed from one (Delta_m, the Caputo residual) is not finite."""


@dataclass(frozen=True, eq=False)
class DomainEscape:
    """Domain excursions of a run under the 'warn' policy, one entry per row of
    its chi1 stack: ``count`` checks found the row outside D, ``excess`` is its
    worst excess over them (0 where ``count`` is 0); ``len()`` sums ``count``."""

    count: np.ndarray
    excess: np.ndarray

    def __len__(self) -> int:
        return int(self.count.sum())


def _check_domain(prob: Problem, values: np.ndarray, escapes: DomainEscape) -> None:
    """Add the batch rows of ``values`` (on ``prob.grid``) that leave D to
    ``escapes``, each at its worst node; the 'strict' policy raises at the
    first such row, located at its worst node (the first one on a tie)."""
    lo, hi = prob.domain.lo, prob.domain.hi
    v = values.reshape(-1, prob.n, prob.N)
    # x - hi and lo - x are monotone in x, so each row's worst excess is that
    # of its extreme values, bit for bit
    worst = np.maximum(v.max(axis=-1) - hi, lo - v.min(axis=-1)).max(axis=-1)
    left = worst > _DOMAIN_SLACK  # False on a NaN row
    if prob.domain_policy == "strict" and left.any():
        first = np.argmax(left)
        row = v[first]
        j, k = np.unravel_index(np.argmax(np.maximum(lo[:, None] - row, row - hi[:, None])), row.shape)
        raise DomainEscapeError(
            f"iterate leaves D by {worst[first]:.6g} at t={prob.operator.nodes[k]:.6g} "
            f"(component {j + 1}); the convergence theory assumes iterates stay in D"
        )
    escapes.count[left] += 1
    np.maximum(escapes.excess, worst, out=escapes.excess, where=left)


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
    """f along (n, N) or (B, n, N) values on ``prob.grid``; exprlang wants
    components first."""
    if np.shape(values)[-1] != prob.N:
        raise ValueError(f"values must lie on the problem's grid of {prob.N} nodes, got {np.shape(values)}")
    f = exprlang.evaluate(prob.f_on_grid, prob.operator.nodes, np.moveaxis(values, -2, 0))
    return np.moveaxis(f, 0, -2)


def _require_finite(prob: Problem, values: np.ndarray, what: str = "iterate") -> None:
    """DomainEscapeError at the first node where ([B,] n, N) values are not finite."""
    finite = np.isfinite(values).reshape(-1, prob.N).all(axis=0)
    if not finite.all():
        raise DomainEscapeError(f"{what} is not finite at t={prob.operator.nodes[np.argmin(finite)]:.6g}")


def u0(prob: Problem, chi1) -> np.ndarray:
    """Zeroth approximation on ``prob.grid``: the (t/T)^p-corrected boundary
    interpolant, (n, N) at one slope and (B, n, N) at a (B, n) stack."""
    return _interpolant(prob, prob.operator, np.atleast_1d(np.asarray(chi1, dtype=float)))


def iterate_step(prob: Problem, prev: np.ndarray, chi1, u0_values: np.ndarray) -> np.ndarray:
    """One application of the integral operator to the previous iterate.

    Evaluates f along ``prev``, values on ``prob.grid`` (ValueError otherwise),
    and adds the corrected integral term to ``u0_values``, the values of
    ``u0(prob, chi1)``; ``chi1`` itself is not read (the bench tracer counts
    steps by it).  ``prev`` is not checked against D (``run_iteration`` checks
    every iterate it builds).  A step whose values overflow raises
    DomainEscapeError at the first node that is not finite.
    """
    op = prob.operator
    fvals = _rhs(prob, prev)
    ip = op.running(fvals.reshape(-1, prob.N)).reshape(fvals.shape)
    ip /= op.gamma_p
    vals = u0_values + ip
    vals -= ip[..., -1:] * op.ratio
    vals[..., 0] = prob.alpha1
    vals[..., -1] = prob.alpha2
    _require_finite(prob, vals)
    return vals


@dataclass
class ApproxSolution:
    """The iterate trace at one parameter value (or a stack), with diagnostics."""

    chi1: np.ndarray  # (n,), or (B, n) for a stack
    iterates: list[np.ndarray]  # u_0, ..., u_m, each ([B,] n, N) on the problem's grid
    sup_diffs: list[np.ndarray]
    converged: bool
    m: int
    escapes: DomainEscape

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def run_iteration(prob: Problem, chi1, m_max: int, tol: float | np.ndarray) -> ApproxSolution:
    """Iterate up to m_max steps or until sup|u_m - u_{m-1}| <= tol.

    With ``tol`` 0.0 it runs exactly m_max steps (as a determining-function
    probe of depth m does) unless it meets a bitwise fixed point first,
    which changes nothing downstream.  Non-convergence at m_max is reported
    via ``converged=False``, not an exception.  Every iterate u_0, ..., u_m
    is checked against D as it is built: the 'strict' policy raises at the
    first that leaves it, and excursions under 'warn' are counted in
    ``escapes``, one ``DomainEscape`` record for the whole run with one
    entry per row; an iterate that is not finite raises DomainEscapeError.
    u_0 is built once and every step adds its integral term to the same
    values.  A (B, n) stack of slopes stops early only when every row meets ``tol``.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    chi = np.atleast_1d(np.asarray(chi1, dtype=float))
    tol_vec = np.broadcast_to(np.asarray(tol, dtype=float), (prob.n,))

    current = u0(prob, chi)
    _require_finite(prob, current)
    iterates = [current]
    rows = chi.size // prob.n
    escapes = DomainEscape(np.zeros(rows, dtype=int), np.zeros(rows))
    _check_domain(prob, current, escapes)
    sup_diffs: list[np.ndarray] = []
    converged = False
    for _ in range(m_max):
        nxt = iterate_step(prob, current, chi, iterates[0])
        _check_domain(prob, nxt, escapes)
        diff = np.max(np.abs(nxt - current), axis=-1)
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
        escapes=escapes,
    )
