"""Determining equation: evaluation, root search, exclusion, existence.

The parametrized Cauchy solution meets the far boundary value exactly
when the determining function vanishes:

    Delta_m(chi1) = Gamma(p+1)/T^p * (alpha2 - alpha1 - chi1 T)
                    - (p/T^p) * int_0^T (T-s)^(p-1) f(s, u_m(s, chi1)) ds.

Every probe of Delta_m re-runs the iteration from u_0 at the probed
chi1 (no warm starts — probes stay independent) with the problem's
cached integral operator.  For scalar problems the root search is a
bracket scan plus Brent; for systems a damped Newton with
forward-difference Jacobian.  The exclusion sweep applies the
necessary-condition filter: a parameter box can be discarded once
|Delta_m| at its center exceeds what the Lipschitz coefficient over the
box plus the iteration tube can explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .conditions import ConditionsReport, _resolvent, check_conditions, delta_gap_bound
from .fracops import GridFunction, gamma
from .iterate import ApproxSolution, DomainEscape, _operator, run_iteration
from .problem import Box, Problem

__all__ = [
    "BoxVerdict",
    "DeterminingResult",
    "ExclusionResult",
    "ExistenceVerdict",
    "NoRootBracketError",
    "NonConvergenceError",
    "SolverConfig",
    "delta_at",
    "delta_m",
    "exclusion_sweep",
    "existence_check_scalar",
    "solve_determining",
]


class NoRootBracketError(RuntimeError):
    """The scan found no sign change of Delta_m over Omega (n = 1)."""


class NonConvergenceError(RuntimeError):
    """Newton failed to reach the residual tolerance; carries the trace."""

    def __init__(self, message: str, trace: list) -> None:
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    scan_points: int = 16
    xtol: float = 1e-12
    residual_tol: float = 1e-9
    newton_max_iter: int = 50
    newton_fd_step: float = 1e-6
    newton_max_halvings: int = 30


@dataclass
class DeterminingResult:
    chi1_star: np.ndarray
    residual: np.ndarray
    iterations_used: int
    solver_trace: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def _delta_value(prob: Problem, chi1: np.ndarray, u: GridFunction) -> np.ndarray:
    op = _operator(prob, u.grid)
    fvals = prob.rhs(op.nodes, u.values)
    raw_T = op.endpoint(fvals)  # int_0^T (T-s)^(p-1) f ds, no 1/Gamma
    gp1 = gamma(prob.p + 1.0)
    return gp1 / prob.T**prob.p * (prob.alpha2 - prob.alpha1 - chi1 * prob.T) - (
        prob.p / prob.T**prob.p
    ) * raw_T


def delta_m(prob: Problem, approx: ApproxSolution) -> np.ndarray:
    """Determining-function value at the approximation's parameter."""
    return _delta_value(prob, approx.chi1.chi1, approx.final)


def delta_at(
    prob: Problem, chi1, m: int, escapes: list[DomainEscape] | None = None
) -> np.ndarray:
    """Delta_m at an arbitrary chi1: runs the iteration, then evaluates.

    The probe's domain escapes are appended to ``escapes`` when given.
    """
    chi = np.atleast_1d(np.asarray(chi1, dtype=float))
    approx = run_iteration(prob, chi, m_max=m, tol=0.0)
    if escapes is not None:
        escapes.extend(approx.escapes)
    return _delta_value(prob, chi, approx.final)


def _probe_points(prob: Problem, points, m: int) -> tuple[list[np.ndarray], int, float]:
    """Delta_m at each point, one probe after another.

    Also returns how many probes had an iterate leave D and the worst
    excess over D among them (0.0 when none did).
    """
    escapes: list[DomainEscape] = []
    deltas: list[np.ndarray] = []
    escaped = 0
    for chi in points:
        before = len(escapes)
        deltas.append(delta_at(prob, chi, m, escapes))
        escaped += len(escapes) > before
    return deltas, escaped, max((e.excess for e in escapes), default=0.0)


def solve_determining(
    prob: Problem, m: int, config: SolverConfig = SolverConfig()
) -> DeterminingResult:
    """Solve Delta_m(chi1) = 0 over the parameter box Omega.

    n = 1: scan Omega with ``scan_points`` probes, take the leftmost
    sign change and polish with Brent.  n > 1: damped Newton from the
    box center with a forward-difference Jacobian, falling back to a
    coarse-grid restart once before giving up.  Raises
    NoRootBracketError / NonConvergenceError respectively.
    """
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    trace: list[tuple[np.ndarray, np.ndarray]] = []

    def probe(chi: np.ndarray) -> np.ndarray:
        val = delta_at(prob, chi, m)
        trace.append((chi.copy(), val.copy()))
        return val

    if prob.n == 1:
        root = _solve_scalar(prob, probe, config)
    else:
        root = _solve_newton(prob, probe, config, trace)
    # a fresh probe at the root, kept out of the solver trace
    residual = np.abs(delta_at(prob, root, m))
    return DeterminingResult(
        chi1_star=root, residual=residual, iterations_used=m, solver_trace=trace
    )


def _solve_scalar(prob: Problem, probe, config: SolverConfig) -> np.ndarray:
    lo, hi = float(prob.omega.lo[0]), float(prob.omega.hi[0])
    xs = np.linspace(lo, hi, config.scan_points)
    vals = np.array([probe(np.array([x]))[0] for x in xs])
    bracket = None
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            return np.array([xs[i]])
        if vals[i] * vals[i + 1] < 0.0:
            bracket = (xs[i], xs[i + 1])
            break
    if vals[-1] == 0.0:
        return np.array([xs[-1]])
    if bracket is None:
        raise NoRootBracketError(
            f"no sign change of Delta_m over Omega=[{lo}, {hi}]: "
            f"endpoint values {vals[0]:.6g} and {vals[-1]:.6g}"
        )
    root = brentq(
        lambda x: probe(np.array([x]))[0], bracket[0], bracket[1], xtol=config.xtol
    )
    return np.array([root])


def _solve_newton(prob: Problem, probe, config: SolverConfig, trace: list) -> np.ndarray:
    n = prob.n
    starts = [prob.omega.center]
    for attempt, x in enumerate(starts):
        x = x.copy()
        fx = probe(x)
        for _ in range(config.newton_max_iter):
            if np.max(np.abs(fx)) <= config.residual_tol:
                return x
            J = np.empty((n, n))
            for j in range(n):
                step = config.newton_fd_step * max(1.0, abs(x[j]))
                xj = x.copy()
                xj[j] += step
                J[:, j] = (probe(xj) - fx) / step
            try:
                s = np.linalg.solve(J, -fx)
            except np.linalg.LinAlgError:
                s = np.linalg.lstsq(J, -fx, rcond=None)[0]
            lam = 1.0
            improved = False
            for _half in range(config.newton_max_halvings):
                candidate = np.clip(x + lam * s, prob.omega.lo, prob.omega.hi)
                fc = probe(candidate)
                if np.max(np.abs(fc)) < np.max(np.abs(fx)):
                    x, fx = candidate, fc
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        if np.max(np.abs(fx)) <= config.residual_tol:
            return x
        if attempt == 0:
            # one coarse-grid restart: best point of a 5-per-axis lattice
            axes = [np.linspace(prob.omega.lo[j], prob.omega.hi[j], 5) for j in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            points = np.stack([mm.ravel() for mm in mesh], axis=1)
            scores = [np.max(np.abs(probe(pt))) for pt in points]
            starts.append(points[int(np.argmin(scores))])
    raise NonConvergenceError(
        f"Newton stalled at residual {np.max(np.abs(fx)):.6g} "
        f"(tolerance {config.residual_tol:g})",
        trace,
    )


# --- Necessity-based exclusion over a subdivided Omega -----------------

@dataclass(frozen=True, eq=False)
class BoxVerdict:
    box: Box
    center: np.ndarray
    delta: np.ndarray
    rhs: np.ndarray
    keep: bool


@dataclass
class ExclusionResult:
    subsets: list[BoxVerdict]
    survivors: list[Box]
    coefficient: np.ndarray
    tail: np.ndarray
    m: int
    n_subdiv: int
    escaped_probes: int
    worst_excess: float


def _exclusion_coefficient(report: ConditionsReport) -> np.ndarray:
    """Lipschitz coefficient of Delta over parameter space:

    K R + Q R (I-Q)^(-1) + Gamma(p+1)/T^(p-1) I  (n x n, nonnegative).
    """
    n = report.n
    inv = _resolvent(report)
    R = float(report.R[0])
    return R * (report.K + report.Q @ inv) + gamma(report.p + 1.0) / report.T ** (
        report.p - 1.0
    ) * np.eye(n)


def exclusion_sweep(prob: Problem, m: int, n_subdiv: int) -> ExclusionResult:
    """Split Omega into n_subdiv^n equal boxes and filter by necessity.

    A box is kept iff |Delta_m(center)| <= coefficient @ halfwidth
    + Q^m M (I-Q)^(-1) componentwise — the inequality any box containing
    the true root must satisfy, so discarded boxes are certified
    root-free (up to the quality of M and K) — provided the probe
    iterates stayed in D; ``escaped_probes`` counts the ones that did not.
    Boxes are probed one after another, in box order.
    """
    if n_subdiv < 1:
        raise ValueError(f"n_subdiv must be >= 1, got {n_subdiv}")
    report = check_conditions(prob)
    tail = delta_gap_bound(report, prob.M, m)
    coeff = _exclusion_coefficient(report)
    n = prob.n
    edges = [np.linspace(prob.omega.lo[j], prob.omega.hi[j], n_subdiv + 1) for j in range(n)]
    index_grid = np.indices((n_subdiv,) * n).reshape(n, -1).T
    boxes = [
        Box(
            np.array([edges[j][idx[j]] for j in range(n)]),
            np.array([edges[j][idx[j] + 1] for j in range(n)]),
        )
        for idx in index_grid
    ]
    centers = [b.center for b in boxes]
    deltas, escaped, worst = _probe_points(prob, centers, m)
    subsets: list[BoxVerdict] = []
    survivors: list[Box] = []
    for box, center, delta in zip(boxes, centers, deltas):
        rhs = coeff @ (0.5 * box.width) + tail
        keep = bool(np.all(np.abs(delta) <= rhs))
        subsets.append(BoxVerdict(box=box, center=center, delta=delta, rhs=rhs, keep=keep))
        if keep:
            survivors.append(box)
    return ExclusionResult(
        subsets=subsets,
        survivors=survivors,
        coefficient=coeff,
        tail=tail,
        m=m,
        n_subdiv=n_subdiv,
        escaped_probes=escaped,
        worst_excess=worst,
    )


# --- Scalar existence certification ------------------------------------

@dataclass(frozen=True)
class ExistenceVerdict:
    certified: bool
    endpoint_deltas: tuple[float, float]
    tube: float
    cleared: tuple[bool, bool]
    sign_change: bool
    escaped_probes: int
    worst_excess: float

    def __bool__(self) -> bool:
        return self.certified


def existence_check_scalar(prob: Problem, m: int) -> ExistenceVerdict:
    """Endpoint sign test with the iteration tube (scalar problems only).

    Existence of a root of the exact determining function inside Omega
    is certified iff |Delta_m| exceeds the gap tube Q^m M (I-Q)^(-1) at
    both endpoints of Omega AND the endpoint values differ in sign AND
    no iterate of either endpoint probe left D: the one-dimensional
    degree of a map nonvanishing on the boundary is then +-1.  Anything
    else is inconclusive (certified=False) — not a proof of
    nonexistence.  ``escaped_probes`` counts the endpoint probes whose
    iterates left D.
    """
    if prob.n != 1:
        raise NotImplementedError("existence certification is scalar-only (n = 1)")
    report = check_conditions(prob)
    tube = float(delta_gap_bound(report, prob.M, m)[0])
    (d_lo, d_hi), escaped, worst = _probe_points(prob, [prob.omega.lo, prob.omega.hi], m)
    d_lo, d_hi = float(d_lo[0]), float(d_hi[0])
    cleared = (abs(d_lo) > tube, abs(d_hi) > tube)
    sign_change = (d_lo < 0.0 < d_hi) or (d_hi < 0.0 < d_lo)
    certified = cleared[0] and cleared[1] and sign_change and escaped == 0
    return ExistenceVerdict(
        certified=certified,
        endpoint_deltas=(d_lo, d_hi),
        tube=tube,
        cleared=cleared,
        sign_change=sign_change,
        escaped_probes=escaped,
        worst_excess=worst,
    )
