"""Solvability conditions and every error bound the scheme provides.

Given a problem with sup bound M and Lipschitz matrix K, the scheme's
hypotheses reduce to two numbers built from the kernel constant

    kc = T^p / (2^(2p-1) Gamma(p+1)),

namely the displacement bound beta = M*kc and the contraction matrix
Q = K*kc.  Uniform convergence of the successive approximations needs
r(Q) < 1 (spectral radius) plus a domain condition: there must exist
admissible initial values whose beta-neighbourhood stays inside D.

On the domain condition the report is deliberately two-faced: the raw
beta is often enormous for stiff forcings (the gyre problem has
beta ~ 159 on a unit box), which would fail any reasonable domain on
problems the iteration demonstrably handles, while the M-normalized
kernel constant beta/M = kc stays O(T^p) and measures the geometry
alone.  The verdict ``dbeta_ok`` therefore checks nonemptiness of the
admissible set against the normalized constant and says so via
``dbeta_basis``; the raw-beta ball around alpha1 is reported alongside
as ``dbeta_centered_ok`` so nothing is hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fracops import alpha1, kernel_constant
from .problem import Problem

__all__ = [
    "BoundUndefinedError",
    "ConditionsReport",
    "apriori_error",
    "check_conditions",
    "combined_error_bound",
    "delta_gap_bound",
    "radius_bound",
    "spectral_radius",
]


class BoundUndefinedError(ValueError):
    """Raised when a bound requires r(Q) < 1 but the certified bound on r(Q) is >= 1."""


def spectral_radius(Q) -> float:
    """Spectral radius max |lambda| over the eigenvalues of Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"spectral_radius: matrix must be square, got {Q.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def radius_bound(Q) -> float:
    """Collatz-Wielandt upper bound max_i (Qv)_i / v_i on r(Q), for Q >= 0.

    Any v > 0 gives r(Q) <= max_i (Qv)_i / v_i (Horn & Johnson, Matrix
    Analysis, Sec. 8.1).  v starts as the eigenvector of the eigenvalue
    with the largest real part, clipped to be positive (for irreducible Q,
    the Perron vector); n + 1 power steps, which never raise the bound,
    restore the relative accuracy of its small entries.  Rounding up by
    the error of the n-term sums keeps it an upper bound in floating point.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    eps = np.finfo(float).eps
    w, V = np.linalg.eig(Q)
    v = np.abs(V[:, np.argmax(w.real)].real)
    bound = np.inf
    for _ in range(Q.shape[0] + 1):
        v = np.maximum(v, eps * np.max(v))
        Qv = Q @ v
        bound = min(bound, float(np.max(Qv / v)))
        if not np.any(Qv):
            break
        v = Qv
    return float(bound * (1.0 + (Q.shape[0] + 2) * eps))


@dataclass(frozen=True, eq=False)
class ConditionsReport:
    """Everything check_conditions knows, plus the constants bounds need."""

    p: float
    T: float
    M: np.ndarray
    K: np.ndarray
    kernel_const: float          # kc = sup alpha1 over [0, T]
    beta: np.ndarray             # raw displacement bound M * kc
    beta_over_m: float           # the M-normalized constant, = kc
    Q: np.ndarray                # contraction matrix K * kc
    spectral_radius: float
    radius_bound: float          # certified upper bound on the spectral radius
    dbeta_ok: bool               # admissible-set nonemptiness verdict
    dbeta_basis: str             # which beta the verdict used
    dbeta_centered_ok: bool      # diagnostic: alpha1 +- raw beta inside D
    R: np.ndarray                # sup_t |t - T (t/T)^p| per component
    apriori_bounds: list[np.ndarray] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.M.size

    @property
    def ok(self) -> bool:
        return self.radius_bound < 1.0 and self.dbeta_ok

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "T": self.T,
            "M": self.M.tolist(),
            "K": self.K.tolist(),
            "kernel_const": self.kernel_const,
            "beta": self.beta.tolist(),
            "beta_over_m": self.beta_over_m,
            "Q": self.Q.tolist(),
            "spectral_radius": self.spectral_radius,
            "radius_bound": self.radius_bound,
            "dbeta_ok": self.dbeta_ok,
            "dbeta_basis": self.dbeta_basis,
            "dbeta_centered_ok": self.dbeta_centered_ok,
            "R": self.R.tolist(),
            "apriori_bounds": [b.tolist() for b in self.apriori_bounds],
            "ok": self.ok,
        }


def _require_bounds(prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    if prob.M is None or prob.K is None:
        raise ValueError(
            "check_conditions: problem has no M/K bounds; load with resolve=True "
            "or call problem.resolve_bounds first"
        )
    return prob.M, np.atleast_2d(prob.K)


def check_conditions(prob: Problem) -> ConditionsReport:
    """Compute the solvability report (no exceptions; verdicts only).

    beta = M * kc, Q = K * kc, r(Q) from the eigenvalues of Q; the gate
    uses the certified Collatz-Wielandt bound on r(Q).  dbeta_ok is the
    nonemptiness check width(D) >= 2*beta using the normalized constant
    (see module docstring); the raw-beta ball around alpha1 is reported
    as ``dbeta_centered_ok``.  The a-priori bound list holds the m-step
    uniform error bounds, truncated at 25 entries or once they drop
    below 1e-12 * max(1, |M|).
    """
    M, K = _require_bounds(prob)
    kc = kernel_constant(prob.T, prob.p)
    beta = M * kc
    Q = K * kc
    bound = radius_bound(Q)
    beta_norm = np.full(prob.n, kc)
    dbeta_ok = bool(np.all(prob.domain.width >= 2.0 * beta_norm))
    centered = bool(
        np.all(prob.alpha1 - beta >= prob.domain.lo)
        and np.all(prob.alpha1 + beta <= prob.domain.hi)
    )
    tau = prob.p ** (-1.0 / (prob.p - 1.0))
    R = np.full(prob.n, prob.T * (tau - tau**prob.p))
    report = ConditionsReport(
        p=prob.p,
        T=prob.T,
        M=M.copy(),
        K=K.copy(),
        kernel_const=kc,
        beta=beta,
        beta_over_m=kc,
        Q=Q,
        spectral_radius=spectral_radius(Q),
        radius_bound=bound,
        dbeta_ok=dbeta_ok,
        dbeta_basis="normalized",
        dbeta_centered_ok=centered,
        R=R,
    )
    if bound < 1.0:
        cap = 1e-12 * max(1.0, float(np.max(np.abs(M))))
        bounds: list[np.ndarray] = []
        for m in range(25):
            b = apriori_error(report, M, m)
            bounds.append(b)
            if np.max(b) < cap:
                break
        report.apriori_bounds.extend(bounds)
    return report


def _resolvent(report: ConditionsReport) -> np.ndarray:
    if report.radius_bound >= 1.0:
        raise BoundUndefinedError(
            f"spectral radius {report.spectral_radius:.6g} (bound {report.radius_bound:.6g}) "
            ">= 1; error bounds undefined"
        )
    n = report.n
    return np.linalg.inv(np.eye(n) - report.Q)


def apriori_error(report: ConditionsReport, M, m: int) -> np.ndarray:
    """m-step uniform error bound kc * Q^m (I-Q)^(-1) M (componentwise)."""
    return report.kernel_const * delta_gap_bound(report, M, m)


def delta_gap_bound(report: ConditionsReport, M, m: int) -> np.ndarray:
    """Gap bound between the exact and m-step determining functions.

    |Delta - Delta_m| <= Q^m M (I-Q)^(-1), componentwise; this is the
    tube the existence check and the exclusion sweep both use.
    """
    if m < 0:
        raise ValueError(f"iteration depth m must be >= 0, got {m}")
    M = np.atleast_1d(np.asarray(M, dtype=float))
    inv = _resolvent(report)
    Qm = np.linalg.matrix_power(report.Q, m)
    return Qm @ (inv @ M)


def combined_error_bound(
    report: ConditionsReport, M, m: int, chi_gap
) -> Callable[[float], np.ndarray]:
    """Total error bound mixing iteration depth and parameter mismatch.

    For the m-th iterate taken at a parameter chi~ within |chi~ - chi*|
    <= chi_gap of the true root, the distance to the exact solution is
    bounded pointwise by

        alpha1(t) * Q^m (I-Q)^(-1) M
        + [ R (I + alpha1(t) (I-Q)^(-1)) + Q^m ] |chi_gap|,

    which is affine in alpha1(t); the returned callable accepts scalar
    or array t and returns shape (n,) or (n, len(t)).
    """
    gap = np.atleast_1d(np.asarray(chi_gap, dtype=float))
    tube = delta_gap_bound(report, M, m)
    inv = _resolvent(report)
    Qm = np.linalg.matrix_power(report.Q, m)
    r_scalar = float(report.R[0])
    g = np.abs(gap)
    vec_alpha = tube + r_scalar * (inv @ g)
    vec_const = r_scalar * g + Qm @ g
    p, T = report.p, report.T

    def bound(t):
        a = alpha1(t, 0.0, T, p)
        if np.ndim(a) == 0:
            return a * vec_alpha + vec_const
        return np.outer(vec_alpha, a) + vec_const[:, np.newaxis]

    return bound
