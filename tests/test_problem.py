"""Problem model, bound estimation, and config ingestion."""

import dataclasses
import textwrap

import numpy as np
import pytest

from fracbvp.problem import (
    BUILTIN_PROBLEMS,
    Box,
    Problem,
    ProblemError,
    builtin_problem,
    estimate_bounds,
    load_problem,
    problem_from_config,
    resolve_bounds,
)
from fracbvp.problem import _sample_points
from fracbvp import exprlang, problem

MINIMAL = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1.0
    alpha1 = 0.0
    alpha2 = 1.0
    N = 51

    [domain]
    lo = -2.0
    hi = 2.0

    [rhs]
    expr = 0

    [omega_box]
    lo = -1.0
    hi = 3.0
    """
)


def _problem(**overrides):
    base = dict(
        p=1.5,
        T=1.0,
        alpha1=np.array([0.0]),
        alpha2=np.array([1.0]),
        domain=Box(np.array([-2.0]), np.array([2.0])),
        f=exprlang.parse("0", 1, {}),
        f_source="0",
        constants={},
        omega=Box(np.array([-1.0]), np.array([3.0])),
        N=51,
    )
    base.update(overrides)
    return Problem(**base)


# --- Box -------------------------------------------------------------------

def test_box_basics():
    b = Box([0.0, -1.0], [2.0, 1.0])
    assert b.n == 2
    assert np.all(b.width == [2.0, 2.0])
    assert np.all(b.center == [1.0, 0.0])
    assert b.contains([1.0, 0.0])
    assert not b.contains([3.0, 0.0])
    assert b.contains([2.0, 1.0])
    assert not b.contains([2.0 + 1e-12, 0.0])


# --- Problem validation ------------------------------------------------------

@pytest.mark.parametrize("p", [0.5, 1.0, 2.5, float("nan")])
def test_problem_rejects_bad_order(p):
    with pytest.raises(ProblemError, match="p outside"):
        _problem(p=p)


def test_problem_rejects_bad_horizon():
    with pytest.raises(ProblemError, match="horizon"):
        _problem(T=0.0)


def test_problem_rejects_boundary_mismatch():
    with pytest.raises(ProblemError, match="same length"):
        _problem(alpha2=np.array([1.0, 2.0]))


def test_problem_rejects_boundary_outside_domain():
    with pytest.raises(ProblemError, match="alpha1 outside"):
        _problem(alpha1=np.array([-5.0]))
    with pytest.raises(ProblemError, match="alpha2 outside"):
        _problem(alpha2=np.array([5.0]))


def test_problem_rejects_component_count_mismatch():
    with pytest.raises(ProblemError, match="rhs component"):
        _problem(f=exprlang.parse("0; 0", 2, {}))


def test_problem_rejects_negative_bounds():
    with pytest.raises(ProblemError, match="nonnegative"):
        _problem(M=np.array([-1.0]))
    with pytest.raises(ProblemError, match="nonnegative"):
        _problem(K=np.array([[-0.5]]))


def test_problem_rejects_small_grid_and_bad_policy():
    with pytest.raises(ProblemError, match="N must be"):
        _problem(N=4)
    with pytest.raises(ProblemError, match="domain_policy"):
        _problem(domain_policy="ignore")


def test_problem_rhs_vectorized():
    prob = _problem(
        f=exprlang.parse("t + u1", 1, {}), f_source="t + u1"
    )
    t = np.linspace(0, 1, 5)
    out = prob.rhs(t, [2 * t])
    assert np.allclose(out[0], 3 * t)


def test_problem_grid_is_built_once_per_problem():
    prob = _problem()
    assert prob.grid is prob.grid
    assert (prob.grid.N, prob.grid.T) == (51, 1.0)
    finer = dataclasses.replace(prob, N=101)
    assert finer.grid is not prob.grid
    assert (finer.grid.N, prob.grid.N) == (101, 51)


# --- bound estimation ---------------------------------------------------------

def test_estimate_bounds_gyre_pins(gyre):
    # K is bitwise 1/2: the secant of the u-linear forcing is exact and
    # the factor 2 e^t/(1+e^t)^2 peaks at t = 0 with value 1/2
    assert float(gyre.K[0, 0]) == 0.5
    assert float(gyre.M[0]) == pytest.approx(844.5038746739851, rel=1e-12)
    assert abs(float(gyre.M[0]) - 844.11) / 844.11 < 0.01


def test_estimate_bounds_of_cos_u1_approach_one():
    prob = _problem(f=exprlang.parse("cos(u1)", 1, {}), f_source="cos(u1)")
    M0, K0 = estimate_bounds(prob)
    # lattice misses u=0 slightly, so max|cos| lands just under 1
    assert M0[0] == pytest.approx(1.0, abs=1e-3)
    assert K0[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_estimate_bounds_deterministic_given_seed():
    prob = _problem(f=exprlang.parse("sin(3*t)*u1", 1, {}), f_source="sin(3*t)*u1")
    assert estimate_bounds(prob, seed=5)[0] == estimate_bounds(prob, seed=5)[0]


THREE_LINEAR = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1
    alpha1 = 0 0 0
    alpha2 = 1 1 1
    N = 51

    [domain]
    lo = -2 -2 -2
    hi = 2 2 2

    [rhs]
    expr = 0.5*u1; 0.25*u2; 0.5*u3

    [omega_box]
    lo = -3 -3 -3
    hi = 3 3 3
    """
)


def test_estimate_bounds_on_latin_hypercube_points_for_three_components():
    # n >= 3 samples _LHS_POINTS points drawn from the seed; the secant of a
    # u-linear f is exact, and a sampled max of |f| stays below its sup
    prob = problem_from_config(THREE_LINEAR)
    M, K = estimate_bounds(prob, seed=5)
    assert np.array_equal(K, np.diag([0.5, 0.25, 0.5]))
    assert np.all(M <= [1.0, 0.5, 1.0])
    assert np.all(M >= [0.999, 0.4995, 0.999])
    again = estimate_bounds(prob, seed=5)
    assert M.tobytes() == again[0].tobytes() and K.tobytes() == again[1].tobytes()
    assert not np.array_equal(estimate_bounds(prob, seed=6)[0], M)


COUPLED_NO_BOUNDS = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1
    alpha1 = 0 0
    alpha2 = 0.5 -0.5
    domain_policy = warn

    [domain]
    lo = -3 -3
    hi = 3 3

    [rhs]
    expr = a*u1 + b*sin(u2) + c*exp(-t); d*cos(u1) - e*u2 + g*t^2
    a = 0.5
    b = 0.3
    c = 0.4
    d = 0.3
    e = 0.5
    g = 0.2

    [omega_box]
    lo = -4 -4
    hi = 4 4
    """
)


def _dense_bounds(prob, per_axis):
    """M and K on the dense, ravelled n <= 2 mesh: the oracle of the broadcast axes."""
    n = prob.n
    axes = [np.linspace(0.0, prob.T, per_axis)]
    axes += [np.linspace(prob.domain.lo[i], prob.domain.hi[i], per_axis) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    t = mesh[0].ravel()
    u = np.stack([m.ravel() for m in mesh[1:]])
    M = np.max(np.abs(prob.rhs(t, u)), axis=1)
    K = np.zeros((n, n))
    for j in range(n):
        h = prob.domain.width[j] * 2.0**-10
        up = u.copy()
        dn = u.copy()
        up[j] = np.minimum(u[j] + h, prob.domain.hi[j])
        dn[j] = np.maximum(u[j] - h, prob.domain.lo[j])
        diff = prob.rhs(t, up) - prob.rhs(t, dn)
        K[:, j] = np.max(np.abs(diff) / (up[j] - dn[j]), axis=1)
    return M, K


def _scalar(source):
    return _problem(f=exprlang.parse(source, 1, {}), f_source=source)


@pytest.mark.parametrize(
    "make, per_axis",
    [
        (lambda: builtin_problem("acc-gyre", resolve=False), 200),
        (lambda: builtin_problem("zero-rhs", resolve=False), 200),
        (lambda: _scalar("cos(u1)"), 200),
        (lambda: _scalar("sin(3*t)*u1"), 200),
        (lambda: _scalar("2"), 200),
        # a 10^3 mesh keeps the dense n = 2 oracle small
        (lambda: problem_from_config(COUPLED_NO_BOUNDS), 10),
    ],
    ids=["acc-gyre", "zero-rhs", "cos-u1", "sin-3t-u1", "constant", "coupled-n2"],
)
def test_estimate_bounds_on_broadcast_axes_matches_the_dense_mesh(monkeypatch, make, per_axis):
    # every mesh point sees the same floating-point operations, so == holds
    prob = make()
    monkeypatch.setattr(problem, "_MESH_PER_AXIS", per_axis)
    M, K = estimate_bounds(prob)
    M_dense, K_dense = _dense_bounds(prob, per_axis)
    assert M.shape == M_dense.shape and K.shape == K_dense.shape
    assert np.array_equal(M, M_dense)
    assert np.array_equal(K, K_dense)


@pytest.mark.parametrize("n, points, per_axis", [(1, None, 200), (2, None, 200), (2, 1000, 10)])
def test_sample_mesh_is_kept_as_its_axes(monkeypatch, n, points, per_axis):
    # points: the size of a smaller mesh to sample on (None: the default mesh)
    prob = builtin_problem("acc-gyre", resolve=False) if n == 1 else problem_from_config(COUPLED_NO_BOUNDS)
    if points is not None:
        monkeypatch.setattr(problem, "_MESH_PER_AXIS", round(points ** (1.0 / (n + 1))))
    assert problem._MESH_PER_AXIS == per_axis
    t, u = _sample_points(prob, 0)
    assert len(u) == n
    # the arrays hold the axis values alone, not the (n + 1)-fold product
    assert t.size + sum(c.size for c in u) == (n + 1) * per_axis
    assert np.broadcast_shapes(t.shape, *(c.shape for c in u)) == (per_axis,) * (n + 1)


def test_estimate_bounds_names_the_first_non_finite_mesh_point():
    # the same point as on the dense mesh: t = 0 and the first u = -2 < 0
    with pytest.raises(exprlang.ExprEvalError) as err:
        estimate_bounds(_scalar("log(u1)"))
    assert err.value.t == 0.0
    assert list(err.value.u) == [-2.0]


def test_resolve_bounds_fills_only_missing():
    prob = _problem(M=np.array([7.0]))
    solved = resolve_bounds(prob)
    assert float(solved.M[0]) == 7.0
    assert solved.K is not None
    already = resolve_bounds(solved)
    assert already is solved


# --- config ingestion ----------------------------------------------------------

def test_minimal_config_round_trip():
    prob = problem_from_config(MINIMAL)
    assert prob.n == 1
    assert prob.p == 1.5
    assert prob.N == 51
    assert prob.M is None  # no [bounds] section
    assert prob.domain_policy == "strict"


def test_config_with_bounds_and_constants():
    text = MINIMAL.replace("expr = 0", "expr = w * t\nw = 2.0") + textwrap.dedent(
        """
        [bounds]
        M = 2.0
        K = 0.0
        """
    )
    prob = problem_from_config(text)
    assert prob.constants == {"w": 2.0}
    assert float(prob.M[0]) == 2.0
    assert prob.rhs(0.5, [0.0])[0] == 1.0


def test_config_vector_fields():
    text = textwrap.dedent(
        """
        [problem]
        p = 1.2
        T = 2.0
        alpha1 = 0.0 1.0
        alpha2 = 1.0, -1.0
        N = 21

        [domain]
        lo = -5 -5
        hi = 5 5

        [rhs]
        expr = u2; -u1

        [omega_box]
        lo = -2 -2
        hi = 2 2

        [bounds]
        M = 5 5
        K = 0 1 1 0
        """
    )
    prob = problem_from_config(text)
    assert prob.n == 2
    assert prob.K.shape == (2, 2)
    assert prob.K[0, 1] == 1.0


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda s: s.replace("[domain]", "[dominion]"), "missing \\[domain\\]"),
        (lambda s: s.replace("p = 1.5", "q = 1.5"), "missing field 'p'"),
        (lambda s: s.replace("1.5", "one.five"), "not a number"),
        (lambda s: s.replace("expr = 0", "expr = 0 +"), "expr"),
        (lambda s: "not an ini file", "parse failure"),
    ],
)
def test_config_errors(mangle, message):
    with pytest.raises(ProblemError, match=message):
        problem_from_config(mangle(MINIMAL))


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "prob.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    prob = load_problem(path)
    assert prob.M is not None  # resolve=True default
    raw = load_problem(path, resolve=False)
    assert raw.M is None
    with pytest.raises(ProblemError, match="cannot read"):
        load_problem(tmp_path / "missing.ini")


# --- builtins -------------------------------------------------------------------

def test_builtin_registry():
    assert set(BUILTIN_PROBLEMS) == {"acc-gyre", "zero-rhs"}
    with pytest.raises(ProblemError, match="unknown builtin"):
        builtin_problem("nope")


def test_builtin_gyre_shape(gyre):
    assert gyre.n == 1
    assert gyre.p == 1.5
    assert gyre.T == 1.0
    assert gyre.N == 401
    assert gyre.domain_policy == "warn"
    assert gyre.constants == {"omega": 4649.56}
    assert np.all(gyre.omega.lo == [-333.0])
    assert np.all(gyre.omega.hi == [-320.0])


def test_builtin_zero_rhs_shape(zero_rhs):
    assert float(zero_rhs.M[0]) == 0.0
    assert float(zero_rhs.K[0, 0]) == 0.0
    assert zero_rhs.domain_policy == "strict"
