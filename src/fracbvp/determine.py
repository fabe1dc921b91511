"""Determining equation: evaluation, root search, exclusion, existence.

The parametrized Cauchy solution meets the far boundary value exactly
when the determining function vanishes:

    Delta_m(chi1) = Gamma(p+1)/T^p * (alpha2 - alpha1 - chi1 T)
                    - (p/T^p) * int_0^T (T-s)^(p-1) f(s, u_m(s, chi1)) ds.

Every probe of Delta_m re-runs the iteration from u_0 at the probed
chi1 (no warm starts — probes stay independent) with the problem's
cached integral operator; a stack of chi1 is probed in batches, and
one depth-m run gives Delta_0..Delta_m from its iterates.  On Linux the
batches of a large stack are split across forked processes, at most one
per usable CPU with at least ``_FORK_MIN_CHUNKS`` batches each, when no
other Python thread runs; each row is bit-identical to a one-row probe, so
the split changes no bit.  For scalar problems the root search is a
bracket scan plus Brent's method (Brent,
*Algorithms for Minimization without Derivatives*, 1973), which starts
from the scan's values at the bracket ends; ``_brent`` is a
line-for-line port of SciPy's ``brentq`` (same tolerances, same
iterates), so no probe path imports SciPy.  The scan is lazy: it probes
its first block of points and Omega's hi end, then further blocks from
the left only until the leftmost exact zero or sign change shows.
``solve_depths`` solves every depth 0..m from one shared scan, extended
deepest depth first.  For systems it is a damped Newton with
forward-difference Jacobian.  The searches have no options:
their settings (16 scan points in blocks of 4, Brent's xtol 1e-12, Newton
down to |Delta_m| <= 1e-9, ...) are module constants.  The
exclusion sweep applies the necessary-condition filter: a parameter box
can be discarded once |Delta_m| at its center exceeds what the
Lipschitz coefficient over the box plus the iteration tube can explain.
For n = 1 the sweep's one stacked probe also holds Omega's two ends, the
rows that ``existence_check_scalar``'s sign test takes.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .conditions import ConditionsReport, _resolvent, check_conditions, delta_gap_bound
from .fracops import gamma
from .iterate import ApproxSolution, DomainEscape, DomainEscapeError, _rhs, run_iteration
from .problem import Problem

__all__ = [
    "DeterminingResult",
    "ExclusionResult",
    "ExistenceVerdict",
    "NoRootBracketError",
    "NonConvergenceError",
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


@dataclass
class DeterminingResult:
    chi1_star: np.ndarray
    residual: np.ndarray
    solver_trace: list[tuple[np.ndarray, np.ndarray]]


# Cap on the u values (rows * n * N) of one batched run.  A run keeps every
# iterate, so one unchunked 2000-row sweep at N = 401 added 34 MB of peak
# RSS; 2**16 values are 163 rows at N = 401 and 10 at N = 6401.  A chunk must
# stay L2-resident for the convolution's ramp of dots: 2000 rows in one ramp
# ran as fast as per-row np.convolve (best 82 vs 96 ms, medians 101 vs 97).
_BATCH_VALUES = 2**16
# Chunks per process below which a stack is probed in this process alone.  At
# two each, 4 chunks took 0.68x the serial time at N = 401 and 0.78x at 6401.
# At one each, the gyre pipeline at N = 6401 forked its sweep's 2 chunks for
# an `exclude` 1.03x as long and a `verify` 1.15x, slowed by the copy-on-write
# faults that a fork leaves the parent.
_FORK_MIN_CHUNKS = 2


def _delta(prob: Problem, chi: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """Delta at slope(s) chi from f along the iterate, (..., n, N) -> (..., n);
    a Delta that is not finite raises DomainEscapeError at its first slope."""
    # int_0^T (T-s)^(p-1) f ds, no 1/Gamma
    raw_T = prob.operator.endpoint(fvals.reshape(-1, prob.N)).reshape(fvals.shape[:-1])
    gp1 = gamma(prob.p + 1.0)
    delta = gp1 / prob.T**prob.p * (prob.alpha2 - prob.alpha1 - chi * prob.T) - (
        prob.p / prob.T**prob.p
    ) * raw_T
    finite = np.isfinite(delta).reshape(-1, prob.n).all(axis=1)
    if not finite.all():
        bad = np.reshape(chi, (-1, prob.n))[np.argmin(finite)]
        raise DomainEscapeError(f"Delta_m is not finite at chi1={bad.tolist()}")
    return delta


def delta_m(prob: Problem, approx: ApproxSolution, k: int | None = None) -> np.ndarray:
    """Determining-function value at the approximation's parameter(s).

    Taken along the final iterate, or along u_k when ``k`` is given; a run
    that stopped early at a bitwise fixed point stands in with its final
    iterate for every deeper k, as a run of depth k would.
    """
    u = approx.final if k is None else approx.iterates[min(k, approx.m)]
    return _delta(prob, approx.chi1, _rhs(prob, u))


def delta_at(
    prob: Problem,
    chi1,
    m: int,
    escapes: list[DomainEscape] | None = None,
    every_depth: bool = False,
) -> np.ndarray:
    """Delta_m at chi1 (scalar or (n,) -> (n,); a (B, n) stack -> (B, n)).

    Runs the iteration, then evaluates; a stack runs in the fewest batches of
    at most ``_BATCH_VALUES`` values, of equal size to one row, each row
    bit-identical to a one-row probe.
    With ``every_depth`` the result gains a first axis of length m + 1:
    Delta_k for k = 0..m, each read off the same depth-m run and equal to
    ``delta_at(prob, chi1, k)`` bit for bit.  When ``escapes`` is given,
    each batch appends the ``DomainEscape`` record of its run, whose
    entries are its rows in stack order.  A stack of two batches or more per
    usable CPU runs its batches in forked processes (``_probe_split``), with
    the same values, records and errors.
    """
    stack = np.atleast_2d(np.asarray(chi1, dtype=float))
    if stack.ndim != 2 or stack.shape[1] != prob.n:
        raise ValueError(f"chi1 must have shape (n,) or (B, n) with n={prob.n}, got {np.shape(chi1)}")
    depths = range(m + 1) if every_depth else [m]
    # the fewest chunks within the cap, of equal size, the first B % chunks of
    # them one row larger: full chunks and a tail convolved a tail below
    # _RAMP_MIN_ROWS row by row, and interleaved sizes raised peak RSS by 1 MB
    chunks = -(-len(stack) // max(1, _BATCH_VALUES // (prob.n * prob.N)))
    parts = np.array_split(stack, chunks) if chunks else []
    deltas, records = _probe_split(prob, parts, m, depths)
    if escapes is not None:
        escapes.extend(records)
    out = np.concatenate([np.empty((len(depths), 0, prob.n)), *deltas], axis=1)
    if np.ndim(chi1) != 2:
        out = out[:, 0]
    return out if every_depth else out[0]


def _probe(prob: Problem, parts: list, m: int, depths) -> tuple[list, list[DomainEscape]]:
    """Delta at ``depths`` of each chunk's depth-m run, (depths, rows, n) per
    chunk, and each run's ``DomainEscape`` record, chunk after chunk."""
    deltas, records = [], []
    for part in parts:
        approx = run_iteration(prob, part, m_max=m, tol=0.0)
        records.append(approx.escapes)
        deltas.append(np.stack([delta_m(prob, approx, k) for k in depths]))
    return deltas, records


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _probe_split(prob: Problem, parts: list, m: int, depths) -> tuple[list, list[DomainEscape]]:
    """``_probe`` of the chunks, split across forked processes when there are
    at least ``_FORK_MIN_CHUNKS`` per process, two CPUs and no other thread.

    The chunks are dealt into contiguous groups, the first and smallest for
    this process.  Each child probes its group into a shared buffer and
    exits; a group whose child did not exit 0 is probed again here, so an
    error is raised by the serial code, in stack order.  Every row is
    bit-identical to a one-row probe, so the results do not depend on the
    split.  No child outlives the call.
    """
    workers = min(_usable_cpus(), len(parts) // _FORK_MIN_CHUNKS)
    if workers < 2 or threading.active_count() != 1:
        return _probe(prob, parts, m, depths)
    q, r = divmod(len(parts), workers)
    ends = np.cumsum([0] + [q] * (workers - r) + [q + 1] * r)
    groups = [parts[a:b] for a, b in zip(ends[:-1], ends[1:])]
    children = []  # (pid, None where fork failed; buffer; group), not yet reaped
    with contextlib.ExitStack() as buffers:
        try:
            for group in groups[1:]:
                size = 8 * sum(map(len, group)) * (len(depths) * prob.n + 2)
                buf = buffers.enter_context(mmap.mmap(-1, size))
                children.append((_fork(prob, group, m, depths, buf), buf, group))
            deltas, records = _probe(prob, groups[0], m, depths)
            while children:
                pid, buf, group = children[0]
                done = pid is not None and os.waitpid(pid, 0)[1] == 0
                del children[0]
                d, r = _unpack(buf, group, len(depths), prob.n) if done else _probe(prob, group, m, depths)
                deltas += d
                records += r
        finally:
            for pid, _, _ in children:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return deltas, records


def _fork(prob: Problem, group: list, m: int, depths, buf: mmap.mmap) -> int | None:
    """Fork a child that runs ``_child`` and leaves by ``os._exit``, 0 once it
    wrote its block and 1 on any exception; its pid, None when fork fails."""
    pid = None
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns of a fork next to other OS threads, here
            # numpy's idle OpenBLAS workers.  OpenBLAS's atfork handler stops
            # them before the fork, and the child runs only numpy kernels and
            # leaves by os._exit, without flushing or closing what it inherited.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _child(prob, group, m, depths, buf)
            os._exit(0)
    except OSError:
        pass  # no child: the parent probes the group
    finally:
        if pid == 0:
            os._exit(1)
    return pid


def _child(prob: Problem, group: list, m: int, depths, buf: mmap.mmap) -> None:
    """Probe ``group`` into ``buf``; a warning raises, so that the parent probes
    the group again and shows it, as the serial code does."""
    warnings.simplefilter("error")
    deltas, records = _probe(prob, group, m, depths)
    delta, excess, count = _block(buf, len(depths), sum(map(len, group)), prob.n)
    np.concatenate(deltas, axis=1, out=delta)
    np.concatenate([r.excess for r in records], out=excess)
    np.concatenate([r.count for r in records], out=count)


def _block(buf: mmap.mmap, depths: int, rows: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A child's buffer as its Delta block (depths, rows, n), then the escape
    excess and count of each row."""
    size = depths * rows * n
    return (
        np.frombuffer(buf, float, size).reshape(depths, rows, n),
        np.frombuffer(buf, float, rows, 8 * size),
        np.frombuffer(buf, int, rows, 8 * (size + rows)),
    )


def _unpack(buf: mmap.mmap, group: list, depths: int, n: int) -> tuple[list, list[DomainEscape]]:
    """A child's block and one ``DomainEscape`` record per chunk of its group, copied out of ``buf``."""
    delta, excess, count = _block(buf, depths, sum(map(len, group)), n)
    ends = np.cumsum([0, *map(len, group)])
    records = [DomainEscape(count[a:b].copy(), excess[a:b].copy()) for a, b in zip(ends[:-1], ends[1:])]
    return [delta.copy()], records


def solve_determining(prob: Problem, m: int) -> DeterminingResult:
    """Solve Delta_m(chi1) = 0 over the parameter box Omega.

    n = 1: scan ``_SCAN_POINTS`` equally spaced points of Omega lazily
    (``_scan``), take the leftmost exact zero or sign change and polish
    with Brent to ``_XTOL``; ``solver_trace`` opens with the scan pairs
    read, left to right, the hi end last.  n > 1: damped
    Newton from the box center with a forward-difference Jacobian down
    to ``_RESIDUAL_TOL``, falling back to a coarse-grid restart once
    before giving up.  Raises NoRootBracketError / NonConvergenceError
    respectively.  The residual is |Delta_m| as the solver last
    evaluated it at the root.
    """
    return _solve(prob, m)


def solve_depths(prob: Problem, m: int):
    """Yield ``solve_determining(prob, k)`` for k = 0, 1, ..., m.

    Each result equals the standalone one field for field, but for n = 1
    one lazy scan serves every depth, deepest first, and runs before the
    first result.  A depth that fails raises as ``solve_determining`` does,
    and no deeper depth is solved.
    """
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    scans = _scan(prob, m, True) if prob.n == 1 else None
    for k in range(m + 1):
        yield _solve(prob, k, None if scans is None else scans[k])


def _scan(prob: Problem, m: int, every_depth: bool) -> dict:
    """The n = 1 bracket scan of Omega at depth m, and with ``every_depth`` at
    each depth k = m, m - 1, ..., 0, probed lazily.

    The first batch probes the first ``_SCAN_BLOCK`` scan points and Omega's
    hi end at depth m.  Then each depth k, deepest first, reads blocks of
    ``_SCAN_BLOCK`` further points from the left, probed at depth k (a run
    that gives every shallower depth too) unless a deeper run gave them,
    until its leading points hold an exact zero or a sign change or every
    point is known.  Entry k is (points, values), each (L + 1, 1): the
    leading points depth k read, then the hi end, and depth k's values
    there, the blocks a scan of depth k alone probes.
    """
    xs = np.linspace(prob.omega.lo[0], prob.omega.hi[0], _SCAN_POINTS)[:, np.newaxis]

    def run(part: np.ndarray, k: int) -> dict:
        """Delta at part by depth: k, and with every_depth each depth below k."""
        out = delta_at(prob, part, k, every_depth=every_depth)
        return dict(enumerate(out)) if every_depth else {k: out}

    first = run(xs[np.r_[:_SCAN_BLOCK, -1]], m)
    lead = {k: vals[:-1] for k, vals in first.items()}
    scans = {}
    for k in sorted(lead, reverse=True):
        n = _SCAN_BLOCK
        while n < _SCAN_POINTS - 1 and _leftmost(lead[k][:n, 0]) is None:
            n = min(n + _SCAN_BLOCK, _SCAN_POINTS - 1)
            if n > len(lead[k]):
                for j, vals in run(xs[len(lead[k]):n], k).items():
                    lead[j] = np.concatenate([lead[j], vals])
        scans[k] = xs[np.r_[:n, -1]], np.concatenate([lead[k][:n], first[k][-1:]])
    return scans


def _leftmost(vals: np.ndarray) -> int | None:
    """Index of the leftmost exact zero or sign change (its left end) in vals."""
    for i, v in enumerate(vals):
        if v == 0.0 or (i + 1 < len(vals) and v * vals[i + 1] < 0.0):
            return i
    return None


def _solve(prob: Problem, m: int, scan=None) -> DeterminingResult:
    """The root search at depth m; ``scan`` holds the n = 1 scan's entry of ``_scan`` when known."""
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    trace: list[tuple[np.ndarray, np.ndarray]] = []

    def probe(chi: np.ndarray, val: np.ndarray | None = None) -> np.ndarray:
        """Delta_m at chi, probed unless already known; the trace gets every pair."""
        if val is None:
            val = delta_at(prob, chi, m)
        trace.extend(zip(np.atleast_2d(chi).copy(), np.atleast_2d(val).copy()))
        return val

    try:
        if prob.n == 1:
            root = _solve_scalar(prob, probe, _scan(prob, m, False)[m] if scan is None else scan)
        else:
            root = _solve_newton(prob, probe)
    except NonConvergenceError as exc:
        raise NonConvergenceError(str(exc), trace) from None
    # every probe is deterministic, so the trace's value at the root is its residual
    residual = np.abs(next(val for chi, val in reversed(trace) if np.array_equal(chi, root)))
    return DeterminingResult(chi1_star=root, residual=residual, solver_trace=trace)


def _solve_scalar(prob: Problem, probe, scan: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    lo, hi = float(prob.omega.lo[0]), float(prob.omega.hi[0])
    scan_xs, scan_vals = scan
    probe(scan_xs, scan_vals)
    xs, vals = scan_xs[:, 0], scan_vals[:, 0]
    # a scan that stops short of the last block has its zero or sign change
    # among the leading points, before the hi end
    i = _leftmost(vals)
    if i is None:
        raise NoRootBracketError(
            f"no sign change of Delta_m over Omega=[{lo}, {hi}]: "
            f"endpoint values {vals[0]:.6g} and {vals[-1]:.6g}"
        )
    if vals[i] == 0.0:
        return np.array([xs[i]])
    # Brent opens with both bracket ends; it consumes the scan's values there
    ends = slice(i, i + 2)
    probe(scan_xs[ends], scan_vals[ends])
    return np.array([_brent(lambda x: probe(np.array([x]))[0], *xs[ends], _XTOL, *vals[ends])])


# Root-search settings: the n = 1 bracket scan and Brent, the n > 1 Newton.
_SCAN_POINTS = 16  # equally spaced probes of Omega in the bracket scan
_SCAN_BLOCK = 4  # scan points per batch, probed from the left as needed
_XTOL = 1e-12  # Brent's absolute tolerance in chi1
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100
_RESIDUAL_TOL = 1e-9  # Newton stops once max |Delta_m| is this small
_NEWTON_MAX_ITER = 50
_NEWTON_FD_STEP = 1e-6  # Jacobian step, relative to max(1, |chi1_j|)
_NEWTON_MAX_HALVINGS = 30  # line-search halvings before Newton gives up


def _brent(f, xa: float, xb: float, xtol: float, fa: float, fb: float) -> float:
    """Root of f in [xa, xb] by Brent's method; SciPy's brentq.c, step for step.

    Same arithmetic, rtol = 4 eps and 100 iterations as SciPy's
    ``optimize.brentq(f, xa, xb, xtol=xtol)``, so given fa = f(xa) and
    fb = f(xb) it evaluates f at the points SciPy's evaluates after those
    two and returns the same root.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol!r}")
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(fa), float(fb)
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


def _solve_newton(prob: Problem, probe) -> np.ndarray:
    n = prob.n
    starts = [prob.omega.center]
    for attempt, x in enumerate(starts):
        x = x.copy()
        fx = probe(x)
        for _ in range(_NEWTON_MAX_ITER):
            if np.max(np.abs(fx)) <= _RESIDUAL_TOL:
                return x
            # row j steps x_j; x + diag(steps) would turn -0.0 into +0.0
            steps = _NEWTON_FD_STEP * np.maximum(1.0, np.abs(x))
            columns = np.tile(x, (n, 1))
            columns[np.diag_indices(n)] += steps
            J = ((probe(columns) - fx) / steps[:, np.newaxis]).T
            try:
                s = np.linalg.solve(J, -fx)
            except np.linalg.LinAlgError:
                s = np.linalg.lstsq(J, -fx, rcond=None)[0]
            lam = 1.0
            improved = False
            for _half in range(_NEWTON_MAX_HALVINGS):
                candidate = np.clip(x + lam * s, prob.omega.lo, prob.omega.hi)
                fc = probe(candidate)
                if np.max(np.abs(fc)) < np.max(np.abs(fx)):
                    x, fx = candidate, fc
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        if np.max(np.abs(fx)) <= _RESIDUAL_TOL:
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
        f"(tolerance {_RESIDUAL_TOL:g})",
        [],
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
    escaped_probes: int
    worst_excess: float
    ends: tuple[np.ndarray, DomainEscape] | None  # n = 1: Delta_m (2, 1) and record of Omega's ends

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


def exclusion_sweep(prob: Problem, m: int, n_subdiv: int,
                    report: ConditionsReport | None = None) -> ExclusionResult:
    """Split Omega into n_subdiv^n equal boxes and filter by necessity.

    A box is kept iff |Delta_m(center)| <= coefficient @ halfwidth
    + Q^m M (I-Q)^(-1) componentwise — the inequality any box containing
    the true root must satisfy, so discarded boxes are certified
    root-free (up to the quality of M and K) — provided the probe
    iterates stayed in D; ``escaped_probes`` counts the ones that did not.
    All box centers are probed by one stacked ``delta_at`` call; for n = 1
    its last two rows are Omega's ends, whose Delta_m (2, 1) and
    ``DomainEscape`` record are ``ends``, the existence sign test's input.
    ``report`` is ``check_conditions(prob)``, computed here when not given.
    """
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    if n_subdiv < 1:
        raise ValueError(f"n_subdiv must be >= 1, got {n_subdiv}")
    if report is None:
        report = check_conditions(prob)
    tail = delta_gap_bound(report, prob.M, m)
    coeff = _exclusion_coefficient(report)
    edges = [np.linspace(a, b, n_subdiv + 1) for a, b in zip(prob.omega.lo, prob.omega.hi)]
    lo = np.stack(np.meshgrid(*[e[:-1] for e in edges], indexing="ij"), -1).reshape(-1, prob.n)
    hi = np.stack(np.meshgrid(*[e[1:] for e in edges], indexing="ij"), -1).reshape(-1, prob.n)
    ends = np.stack([prob.omega.lo, prob.omega.hi]) if prob.n == 1 else np.empty((0, prob.n))
    escapes: list[DomainEscape] = []
    probes = delta_at(prob, np.concatenate([0.5 * (lo + hi), ends]), m, escapes)
    # one entry per row of the stack, the boxes first
    count = np.concatenate([r.count for r in escapes])
    excess = np.concatenate([r.excess for r in escapes])
    boxes = len(lo)
    delta = probes[:boxes]
    # per box coeff @ halfwidth; a stack of (n, 1) products keeps its bits
    rhs = np.matmul(coeff, (0.5 * (hi - lo))[..., np.newaxis])[..., 0] + tail
    escaped, worst = int(np.count_nonzero(count[:boxes])), float(excess[:boxes].max(initial=0.0))
    return ExclusionResult(
        subsets=np.stack([lo, hi], axis=1),
        delta=delta,
        rhs=rhs,
        keep=np.all(np.abs(delta) <= rhs, axis=1),
        coefficient=coeff,
        tail=tail,
        escaped_probes=escaped,
        worst_excess=worst,
        ends=(probes[boxes:], DomainEscape(count[boxes:], excess[boxes:])) if prob.n == 1 else None,
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


def existence_check_scalar(prob: Problem, m: int, report: ConditionsReport | None = None,
                           ends: tuple[np.ndarray, DomainEscape] | None = None) -> ExistenceVerdict:
    """Endpoint sign test with the iteration tube (scalar problems only).

    Existence of a root of the exact determining function inside Omega
    is certified iff |Delta_m| exceeds the gap tube Q^m M (I-Q)^(-1) at
    both endpoints of Omega AND the endpoint values differ in sign AND
    no iterate of either endpoint probe left D: the one-dimensional
    degree of a map nonvanishing on the boundary is then +-1.  Anything
    else is inconclusive (certified=False) — not a proof of
    nonexistence.  ``escaped_probes`` counts the endpoint probes whose
    iterates left D.  ``report`` is ``check_conditions(prob)``, computed
    here when not given; ``ends`` holds the depth-m probes of Omega's two
    ends (their Delta_m, (2, 1), and ``DomainEscape`` record), as
    ``exclusion_sweep`` gives them, taken from a one-box sweep when not given.
    """
    if m < 0:
        raise ValueError(f"iteration budget m must be >= 0, got {m}")
    if prob.n != 1:
        raise NotImplementedError("existence certification is scalar-only (n = 1)")
    if report is None:
        report = check_conditions(prob)
    tube = float(delta_gap_bound(report, prob.M, m)[0])
    deltas, escapes = exclusion_sweep(prob, m, 1, report).ends if ends is None else ends
    d_lo, d_hi = deltas[:, 0].tolist()
    escaped, worst = int(np.count_nonzero(escapes.count)), float(escapes.excess.max(initial=0.0))
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
