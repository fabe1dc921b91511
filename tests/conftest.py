import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fracbvp import exprlang, fracops
from fracbvp.conditions import check_conditions
from fracbvp.fracops import ProductTrapezoid, kernel_constant
from fracbvp.problem import Box, Problem, builtin_problem

settings.register_profile(
    "fracbvp",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fracbvp")


@pytest.fixture(scope="session")
def gyre():
    """The built-in steep-forcing example with bounds resolved once."""
    return builtin_problem("acc-gyre")


@pytest.fixture(scope="session")
def zero_rhs():
    return builtin_problem("zero-rhs")


@pytest.fixture
def operator_builds(monkeypatch):
    """(N, T, p) of every ProductTrapezoid built from here on, from an empty operator cache."""
    builds = []
    init = ProductTrapezoid.__init__

    def counted(self, grid, p):
        builds.append((grid.N, grid.T, p))
        init(self, grid, p)

    monkeypatch.setattr(ProductTrapezoid, "__init__", counted)
    fracops.operator.cache_clear()
    return builds


def displacement_bounds(prob, count):
    """The a-priori bounds Q^(k-1) beta on sup|u_k - u_(k-1)|, k = 1..count,
    with Q and beta from the problem's conditions report."""
    rep = check_conditions(prob)
    return [np.linalg.matrix_power(rep.Q, k) @ rep.beta for k in range(count)]


def random_scalar_problem(rng, N=101, r_cap=0.45):
    """f(t,u) = a sin(wt) + b cos(c u1), so M = |a|+|b| and K = |bc| exactly."""
    p = float(rng.uniform(1.05, 2.0))
    T = float(rng.uniform(0.5, 2.0))
    a = float(rng.uniform(-2, 2))
    w = float(rng.uniform(0, 3))
    kc = kernel_constant(T, p)
    b = float(rng.uniform(-1.5, 1.5))
    c_hi = min(3.0, r_cap / (abs(b) * kc)) if b else 3.0
    c = float(rng.uniform(0.05, c_hi))
    source = f"{a!r} * sin({w!r} * t) + {b!r} * cos({c!r} * u1)"
    return Problem(
        p=p,
        T=T,
        alpha1=np.array([float(rng.uniform(-1, 1))]),
        alpha2=np.array([float(rng.uniform(-1, 1))]),
        domain=Box(np.array([-50.0]), np.array([50.0])),
        f=exprlang.parse(source, 1, {}),
        omega=Box(np.array([-2.0]), np.array([2.0])),
        M=np.array([abs(a) + abs(b)]),
        K=np.array([[abs(b * c)]]),
        N=N,
    )


def zero_rhs_problem(rng, N=51):
    """f = 0 with the exact root chi* = (alpha2-alpha1)/T placed inside Omega."""
    p = float(rng.uniform(1.05, 2.0))
    T = float(rng.uniform(0.5, 2.0))
    a1 = float(rng.uniform(-3, 3))
    a2 = float(rng.uniform(-3, 3))
    chi_star = (a2 - a1) / T
    width = float(rng.uniform(0.5, 4.0))
    lo = chi_star - width * float(rng.uniform(0.2, 0.8))
    prob = Problem(
        p=p,
        T=T,
        alpha1=np.array([a1]),
        alpha2=np.array([a2]),
        domain=Box(np.array([-1e6]), np.array([1e6])),
        f=exprlang.parse("0", 1, {}),
        omega=Box(np.array([lo]), np.array([lo + width])),
        M=np.array([0.0]),
        K=np.array([[0.0]]),
        N=N,
    )
    return prob, chi_star


def coupled_problem(N=201):
    """n = 2, nonlinear and coupled; D is tight enough that some probes leave it."""
    source = "sin(u2) + t; 0.5*cos(u1)*u2 - u1"
    return Problem(
        p=1.5,
        T=1.0,
        alpha1=np.array([0.0, 0.5]),
        alpha2=np.array([1.0, -0.5]),
        domain=Box(np.array([-1.2, -1.2]), np.array([1.2, 1.2])),
        f=exprlang.parse(source, 2, {}),
        omega=Box(np.array([-8.0, -8.0]), np.array([8.0, 8.0])),
        M=np.array([2.0, 2.0]),
        K=np.array([[0.0, 1.0], [1.0, 0.5]]),
        N=N,
        domain_policy="warn",
    )


def const_refs(exprs) -> dict:
    """Name -> value of every ``ConstRef`` in the exprlang trees ``exprs``."""
    found = {}
    for node in exprs:
        if isinstance(node, exprlang.ConstRef):
            found[node.name] = node.value
        elif dataclasses.is_dataclass(node):
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                found.update(const_refs(value if isinstance(value, tuple) else (value,)))
    return found


def _affine_parts(prob):
    """(A, b) with f(t_k, u) = A[:, :, k] @ u(t_k) + b[:, k] on the operator's
    nodes, read off f at u = 0 and at the unit vectors; AssertionError unless
    f is affine in u at random points of D."""
    nodes, n = prob.operator.nodes, prob.n
    b = exprlang.evaluate(prob.f, nodes, np.zeros((n, 1)))
    A = np.stack([exprlang.evaluate(prob.f, nodes, np.eye(n)[:, j : j + 1]) - b for j in range(n)], axis=1)
    u = prob.domain.lo[:, None] + prob.domain.width[:, None] * np.random.default_rng(0).random((n, prob.N))
    want = exprlang.evaluate(prob.f, nodes, u)
    got = np.einsum("ijk,jk->ik", A, u) + b
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max(initial=1.0)), "f is not affine in u"
    return A, b


class ExactDiscrete:
    """The exact fixed point of the discrete iteration for f = A(t) u + b(t).

    With W the boundary-corrected operator one iteration step applies per
    component, W = (R - R[:, -1:] * ratio)^T for R = running(I) / Gamma(p)
    and rows 0 and N-1 zeroed (those nodes are pinned to the boundary data),
    the discrete solution at slope chi solves (I - W diag(A)) u = u_0(chi) + W b
    (the Nystrom system of the product-trapezoid rule; Kress, *Linear Integral
    Equations*).  Delta of that u is affine in chi, so n + 1 probes give its
    root.  numpy only; W is N x N, so keep N <= 401.
    """

    def __init__(self, prob):
        op, n, N = prob.operator, prob.n, prob.N
        self.prob, self.op = prob, op
        self.A, self.b = _affine_parts(prob)
        self.R = op.running(np.eye(N)) / op.gamma_p
        W = (self.R - self.R[:, -1:] * op.ratio).T
        W[[0, -1]] = 0.0
        self.W = np.kron(np.eye(n), W)
        blocks = np.zeros((n, N, n, N))
        for i in range(n):
            for j in range(n):
                blocks[i, :, j, :] = np.diag(self.A[i, j])
        self.lhs = np.eye(n * N) - self.W @ blocks.reshape(n * N, n * N)

    def u0(self, chi) -> np.ndarray:
        """u_0 at slope chi, (n, N)."""
        prob, chi = self.prob, np.atleast_1d(np.asarray(chi, dtype=float))
        u = prob.alpha1[:, None] + chi[:, None] * self.op.nodes
        u += (prob.alpha2 - prob.alpha1 - chi * prob.T)[:, None] * self.op.ratio
        u[:, 0], u[:, -1] = prob.alpha1, prob.alpha2
        return u

    def solution(self, chi) -> np.ndarray:
        """The discrete fixed point u at slope chi, (n, N)."""
        rhs = self.u0(chi).ravel() + self.W @ self.b.ravel()
        return np.linalg.solve(self.lhs, rhs).reshape(self.prob.n, self.prob.N)

    def delta(self, chi) -> np.ndarray:
        """Delta(chi) = Gamma(p+1)/T^p (alpha2 - alpha1 - chi T) - p/T^p int_0^T (T-s)^(p-1) f ds."""
        prob, chi = self.prob, np.atleast_1d(np.asarray(chi, dtype=float))
        u = self.solution(chi)
        f = np.einsum("ijk,jk->ik", self.A, u) + self.b
        raw_T = self.op.gamma_p * (f @ self.R[:, -1])
        return (math.gamma(prob.p + 1.0) * (prob.alpha2 - prob.alpha1 - chi * prob.T)
                - prob.p * raw_T) / prob.T**prob.p

    def root(self) -> np.ndarray:
        """The chi with Delta(chi) = 0, from Delta at Omega's center and one unit step per axis."""
        center = self.prob.omega.center
        d0 = self.delta(center)
        jac = np.stack([self.delta(center + e) - d0 for e in np.eye(self.prob.n)], axis=1)
        return center - np.linalg.solve(jac, d0)


def escape_rows(records):
    """The rows that left D in ``DomainEscape`` records, as (row, count, excess)
    tuples of Python scalars; rows are numbered across the records in order,
    as ``delta_at`` appends the records of a stack's chunks."""
    found, start = [], 0
    for r in records:
        found += [(start + int(b), int(r.count[b]), float(r.excess[b])) for b in np.flatnonzero(r.count)]
        start += len(r.count)
    return found
