import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fracbvp import exprlang, fracops
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
        f_source=source,
        constants={},
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
        f_source="0",
        constants={},
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
        f_source=source,
        constants={},
        omega=Box(np.array([-8.0, -8.0]), np.array([8.0, 8.0])),
        M=np.array([2.0, 2.0]),
        K=np.array([[0.0, 1.0], [1.0, 0.5]]),
        N=N,
        domain_policy="warn",
    )


def escape_rows(records):
    """The entries of ``DomainEscape`` records as (probe, t, component, value,
    excess) tuples of Python scalars, in record order."""
    return [
        row
        for r in records
        for row in zip(r.probe.tolist(), r.t.tolist(), r.component.tolist(),
                       r.value.tolist(), r.excess.tolist())
    ]
