"""Determining equation: evaluation, root search, exclusion, existence.

The parametrized Cauchy solution meets the far boundary value exactly
when the determining function vanishes:

    Delta_m(chi1) = Gamma(p+1)/T^p * (alpha2 - alpha1 - chi1 T)
                    - (p/T^p) * int_0^T (T-s)^(p-1) f(s, u_m(s, chi1)) ds.

Every probe of Delta_m re-runs the iteration from u_0 at the probed
chi1 (no warm starts — probes stay independent) with the problem's
cached integral operator; a stack of chi1 is probed as one batch, and
one depth-m run gives Delta_0..Delta_m from its iterates.  For scalar
problems the root search is a bracket scan plus Brent's method (Brent,
*Algorithms for Minimization without Derivatives*, 1973), which starts
from the scan's values at the bracket ends; ``_brent`` is a
line-for-line port of SciPy's ``brentq`` (same tolerances, same
iterates), so no probe path imports SciPy.  ``solve_depths`` solves
every depth 0..m from one shared scan.  For systems it is a damped
Newton with forward-difference Jacobian.  The
exclusion sweep applies the necessary-condition filter: a parameter box
can be discarded once |Delta_m| at its center exceeds what the
Lipschitz coefficient over the box plus the iteration tube can explain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionsReport, _resolvent, check_conditions, delta_gap_bound
from .fracops import gamma
from .iterate import ApproxSolution, DomainEscape, _escape_stats, _rhs, run_iteration
from .problem import Problem

__all__ = [
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
    "solve_depths",
    "solve_determining",
]


class NoRootBracketError(RuntimeError):
    """The scan found no sign change of Delta_m over Omega (n = 1)."""


class NonConvergenceError(RuntimeError):
    """Newton or Brent failed to reach its tolerance; carries the trace."""

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


# Cap on the u values (rows * n * N) of one batched run.  A run keeps every
# iterate, so one unchunked 2000-row sweep at N = 401 added 34 MB of peak
# RSS; 2**16 values are 163 rows at N = 401 and 10 at N = 6401.  A chunk must
# stay L2-resident for the convolution's ramp of dots: 2000 rows in one ramp
# ran as fast as per-row np.convolve (best 82 vs 96 ms, medians 101 vs 97).
_BATCH_VALUES = 2**16


def _delta(prob: Problem, chi: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """Delta at slope(s) chi from f along the iterate, (..., n, N) -> (..., n)."""
    # int_0^T (T-s)^(p-1) f ds, no 1/Gamma
    raw_T = prob.operator.endpoint(fvals.reshape(-1, prob.N)).reshape(fvals.shape[:-1])
    gp1 = gamma(prob.p + 1.0)
    return gp1 / prob.T**prob.p * (prob.alpha2 - prob.alpha1 - chi * prob.T) - (
        prob.p / prob.T**prob.p
    ) * raw_T


def delta_m(prob: Problem, approx: ApproxSolution, k: int | None = None) -> np.ndarray:
    """Determining-function value at the approximation's parameter(s).

    Taken along the final iterate, or along u_k when ``k`` is given; a run
    that stopped early at a bitwise fixed point stands in with its final
    iterate for every deeper k, as a run of depth k would.
    """
    u = approx.final if k is None else approx.iterates[min(k, approx.m)]
    return _delta(prob, approx.chi1.chi1, _rhs(prob, u.values))


def delta_at(
    prob: Problem,
    chi1,
    m: int,
    escapes: list[DomainEscape] | None = None,
    every_depth: bool = False,
) -> np.ndarray:
    """Delta_m at chi1 (scalar or (n,) -> (n,); a (B, n) stack -> (B, n)).

    Runs the iteration, then evaluates; a stack runs in batches of at most
    ``_BATCH_VALUES`` values, each row bit-identical to a one-row probe.
    With ``every_depth`` the result gains a first axis of length m + 1:
    Delta_k for k = 0..m, each read off the same depth-m run and equal to
    ``delta_at(prob, chi1, k)`` bit for bit.  When ``escapes`` is given,
    each batch appends the ``DomainEscape`` record of its run, with
    ``probe`` the row in the whole stack.
    """
    stack = np.atleast_2d(np.asarray(chi1, dtype=float))
    if stack.ndim != 2 or stack.shape[1] != prob.n:
        raise ValueError(f"chi1 must have shape (n,) or (B, n) with n={prob.n}, got {np.shape(chi1)}")
    depths = range(m + 1) if every_depth else [m]
    rows = max(1, _BATCH_VALUES // (prob.n * prob.N))
    deltas = [np.empty((len(depths), 0, prob.n))]
    for start in range(0, len(stack), rows):
        approx = run_iteration(prob, stack[start : start + rows], m_max=m, tol=0.0)
        if escapes is not None:
            approx.escapes.probe[...] += start
            escapes.append(approx.escapes)
        deltas.append(np.stack([delta_m(prob, approx, k) for k in depths]))
    out = np.concatenate(deltas, axis=1)
    if np.ndim(chi1) != 2:
        out = out[:, 0]
    return out if every_depth else out[0]


def solve_determining(
    prob: Problem, m: int, config: SolverConfig = SolverConfig()
) -> DeterminingResult:
    """Solve Delta_m(chi1) = 0 over the parameter box Omega.

    n = 1: scan Omega with ``scan_points`` probes, take the leftmost
    sign change and polish with Brent.  n > 1: damped Newton from the
    box center with a forward-difference Jacobian, falling back to a
    coarse-grid restart once before giving up.  Raises
    NoRootBracketError / NonConvergenceError respectively.  The
    residual is |Delta_m| as the solver last evaluated it at the root.
    """
    return _solve(prob, m, config)


def solve_depths(prob: Problem, m: int, config: SolverConfig = SolverConfig()):
    """Yield ``solve_determining(prob, k, config)`` for k = 0, 1, ..., m.

    Each result equals the standalone one field for field, but for n = 1
    one batched depth-m scan gives the scan values of every depth.  A
    depth that fails raises as ``solve_determining`` does, and no deeper
    depth is solved.
    """
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    scan = delta_at(prob, _scan_points(prob, config), m, every_depth=True) if prob.n == 1 else None
    for k in range(m + 1):
        yield _solve(prob, k, config, None if scan is None else scan[k])


def _scan_points(prob: Problem, config: SolverConfig) -> np.ndarray:
    return np.linspace(prob.omega.lo[0], prob.omega.hi[0], config.scan_points)[:, np.newaxis]


def _solve(prob: Problem, m: int, config: SolverConfig, scan=None) -> DeterminingResult:
    """The root search at depth m; ``scan`` holds the n = 1 scan's values when known."""
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    trace: list[tuple[np.ndarray, np.ndarray]] = []

    def probe(chi: np.ndarray, val: np.ndarray | None = None) -> np.ndarray:
        """Delta_m at chi, probed unless already known; the trace gets every pair."""
        if val is None:
            val = delta_at(prob, chi, m)
        trace.extend(zip(np.atleast_2d(chi).copy(), np.atleast_2d(val).copy()))
        return val

    if prob.n == 1:
        root = _solve_scalar(prob, probe, config, trace, scan)
    else:
        root = _solve_newton(prob, probe, config, trace)
    # every probe is deterministic, so the trace's value at the root is its residual
    residual = np.abs(next(val for chi, val in reversed(trace) if np.array_equal(chi, root)))
    return DeterminingResult(
        chi1_star=root, residual=residual, iterations_used=m, solver_trace=trace
    )


def _solve_scalar(prob: Problem, probe, config: SolverConfig, trace: list, scan) -> np.ndarray:
    lo, hi = float(prob.omega.lo[0]), float(prob.omega.hi[0])
    scan_xs = _scan_points(prob, config)
    scan = probe(scan_xs, scan)
    xs, vals = scan_xs[:, 0], scan[:, 0]
    bracket = None
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            return np.array([xs[i]])
        if vals[i] * vals[i + 1] < 0.0:
            bracket = i
            break
    if vals[-1] == 0.0:
        return np.array([xs[-1]])
    if bracket is None:
        raise NoRootBracketError(
            f"no sign change of Delta_m over Omega=[{lo}, {hi}]: "
            f"endpoint values {vals[0]:.6g} and {vals[-1]:.6g}"
        )
    # Brent opens with both bracket ends; it consumes the scan's values there
    ends = slice(bracket, bracket + 2)
    probe(scan_xs[ends], scan[ends])
    try:
        root = _brent(lambda x: probe(np.array([x]))[0], *xs[ends], config.xtol, *vals[ends])
    except NonConvergenceError as exc:
        raise NonConvergenceError(str(exc), trace) from None
    return np.array([root])


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brent(f, xa: float, xb: float, xtol: float, fa=None, fb=None) -> float:
    """Root of f in [xa, xb] by Brent's method; SciPy's brentq.c, step for step.

    Same arithmetic, rtol = 4 eps and 100 iterations as SciPy's
    ``optimize.brentq(f, xa, xb, xtol=xtol)``, so it evaluates f at the
    same points and returns the same root.  ``fa`` and ``fb``, when given,
    are f(xa) and f(xb), which are then not evaluated again.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol!r}")
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre) if fa is None else fa)
    fcur = float(f(xcur) if fb is None else fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise NonConvergenceError(
        f"Brent did not converge in {_BRENT_MAXITER} iterations; last point {xcur!r}", []
    )


def _solve_newton(prob: Problem, probe, config: SolverConfig, trace: list) -> np.ndarray:
    n = prob.n
    starts = [prob.omega.center]
    for attempt, x in enumerate(starts):
        x = x.copy()
        fx = probe(x)
        for _ in range(config.newton_max_iter):
            if np.max(np.abs(fx)) <= config.residual_tol:
                return x
            # row j steps x_j; x + diag(steps) would turn -0.0 into +0.0
            steps = config.newton_fd_step * np.maximum(1.0, np.abs(x))
            columns = np.tile(x, (n, 1))
            columns[np.diag_indices(n)] += steps
            J = ((probe(columns) - fx) / steps[:, np.newaxis]).T
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
            scores = np.max(np.abs(probe(points)), axis=1)
            starts.append(points[int(np.argmin(scores))])
    raise NonConvergenceError(
        f"Newton stalled at residual {np.max(np.abs(fx)):.6g} "
        f"(tolerance {config.residual_tol:g})",
        trace,
    )


# --- Necessity-based exclusion over a subdivided Omega -----------------

@dataclass
class ExclusionResult:
    subsets: np.ndarray          # (B, 2, n): [lo, hi] of each box
    delta: np.ndarray            # (B, n): Delta_m at the box centers
    rhs: np.ndarray              # (B, n): coefficient @ halfwidth + tail
    keep: np.ndarray             # (B,) bool: |delta| <= rhs componentwise
    coefficient: np.ndarray
    tail: np.ndarray
    m: int
    n_subdiv: int
    escaped_probes: int
    worst_excess: float

    @property
    def survivors(self) -> np.ndarray:
        return self.subsets[self.keep]


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
    All box centers are probed by one stacked ``delta_at`` call.
    """
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    if n_subdiv < 1:
        raise ValueError(f"n_subdiv must be >= 1, got {n_subdiv}")
    report = check_conditions(prob)
    tail = delta_gap_bound(report, prob.M, m)
    coeff = _exclusion_coefficient(report)
    edges = [np.linspace(a, b, n_subdiv + 1) for a, b in zip(prob.omega.lo, prob.omega.hi)]
    lo = np.stack(np.meshgrid(*[e[:-1] for e in edges], indexing="ij"), -1).reshape(-1, prob.n)
    hi = np.stack(np.meshgrid(*[e[1:] for e in edges], indexing="ij"), -1).reshape(-1, prob.n)
    escapes: list[DomainEscape] = []
    delta = delta_at(prob, 0.5 * (lo + hi), m, escapes)
    # per box coeff @ halfwidth; a stack of (n, 1) products keeps its bits
    rhs = np.matmul(coeff, (0.5 * (hi - lo))[..., np.newaxis])[..., 0] + tail
    escaped, worst = _escape_stats(escapes)
    return ExclusionResult(
        subsets=np.stack([lo, hi], axis=1),
        delta=delta,
        rhs=rhs,
        keep=np.all(np.abs(delta) <= rhs, axis=1),
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
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    if prob.n != 1:
        raise NotImplementedError("existence certification is scalar-only (n = 1)")
    report = check_conditions(prob)
    tube = float(delta_gap_bound(report, prob.M, m)[0])
    escapes: list[DomainEscape] = []
    ends = np.stack([prob.omega.lo, prob.omega.hi])
    d_lo, d_hi = delta_at(prob, ends, m, escapes)[:, 0].tolist()
    escaped, worst = _escape_stats(escapes)
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
