"""Quadrature, Caputo operator, and kernel-envelope tests.

Closed-form pins come from half-integer Gamma values and the Beta
function; grid-sensitive pins were frozen from N=4001 reference runs.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from fracbvp.fracops import (
    _FFT_MIN_N,
    _fast_len,
    Grid,
    GridFunction,
    ProductTrapezoid,
    alpha1,
    caputo_derivative,
    envelope_sequence,
    frac_integral,
    gamma,
    kernel_constant,
)

SQRT_PI = 1.7724538509055159


# --- gamma ---------------------------------------------------------------

@pytest.mark.parametrize(
    "x,expected",
    [(1.0, 1.0), (2.5, 3 * SQRT_PI / 4), (0.5, SQRT_PI), (2.0, 1.0), (4.0, 6.0)],
)
def test_gamma_closed_forms(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("inf"), float("nan")])
def test_gamma_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        gamma(bad)


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


# --- Grid / GridFunction -------------------------------------------------

def test_grid_nodes_exact_endpoints():
    g = Grid(101, 2.5)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.5
    assert np.all(np.diff(g.nodes) > 0)
    assert g.h == pytest.approx(2.5 / 100)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, 1.0)
    with pytest.raises(ValueError):
        Grid(11, -1.0)


def test_gridfunction_promotes_and_validates():
    g = Grid(5, 1.0)
    gf = GridFunction(g, np.arange(5.0))
    assert gf.values.shape == (1, 5)
    assert gf.n_components == 1
    with pytest.raises(ValueError):
        GridFunction(g, np.array([[1.0, np.nan, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((1, 4)))


def test_gridfunction_linear_interpolation():
    g = Grid(11, 1.0)
    gf = GridFunction(g, 3.0 * g.nodes - 1.0)
    assert gf(0.55)[0] == pytest.approx(3.0 * 0.55 - 1.0, abs=1e-14)
    assert gf.sup()[0] == pytest.approx(2.0)


def test_gridfunction_call_keeps_the_leading_axes():
    g = Grid(11, 2.0)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 2, g.N))
    t = np.array([[0.0, 0.37], [1.55, 2.0]])
    one = GridFunction(g, stack[0])
    # (n, N): one interpolation per component, as before
    want = np.stack([np.interp(t, g.nodes, row) for row in stack[0]])
    assert np.array_equal(one(t), want)
    assert one(0.37).shape == (2,)
    assert np.array_equal(one(0.37), want[:, 0, 1])
    # (B, n, N): row b matches a call on that row alone
    batch = GridFunction(g, stack)
    assert batch(t).shape == (3, 2, 2, 2)
    assert batch(0.37).shape == (3, 2)
    for b in range(3):
        assert np.array_equal(batch(t)[b], GridFunction(g, stack[b])(t))
        assert np.array_equal(batch(0.37)[b], GridFunction(g, stack[b])(0.37))


# --- fractional integral -------------------------------------------------

def test_frac_integral_of_one():
    # I^p[1](t) = t^p / Gamma(p+1); at t=1, p=1.5 this is 1/Gamma(2.5)
    g = Grid(401, 1.0)
    res = frac_integral(GridFunction(g, np.ones((1, 401))), 1.5, t_index=-1)
    assert res[0] == pytest.approx(1.0 / gamma(2.5), rel=1e-12)
    full = frac_integral(GridFunction(g, np.ones((1, 401))), 1.5)
    assert np.allclose(full[0], g.nodes**1.5 / gamma(2.5), atol=1e-12)


def test_frac_integral_of_identity():
    g = Grid(401, 1.0)
    res = frac_integral(GridFunction(g, g.nodes[None, :]), 1.5, t_index=-1)
    assert res[0] == pytest.approx(1.0 / gamma(3.5), rel=1e-12)


def test_frac_integral_beta_moment():
    # raw kernel moment: int_0^1 (1-s)^{1/2} s ds = B(2, 3/2) = 4/15
    g = Grid(801, 1.0)
    res = frac_integral(GridFunction(g, g.nodes[None, :]), 1.5, t_index=-1)
    assert gamma(1.5) * res[0] == pytest.approx(4.0 / 15.0, rel=1e-12)


def test_frac_integral_zero_at_origin():
    g = Grid(31, 1.0)
    rng = np.random.default_rng(0)
    gf = GridFunction(g, rng.normal(size=(2, 31)))
    assert np.all(frac_integral(gf, 1.7, t_index=0) == 0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.1, -1.5])
def test_frac_integral_rejects_order(p):
    g = Grid(11, 1.0)
    with pytest.raises(ValueError):
        frac_integral(GridFunction(g, np.ones((1, 11))), p)


def test_frac_integral_t_index_bounds():
    g = Grid(11, 1.0)
    gf = GridFunction(g, np.ones((1, 11)))
    with pytest.raises(ValueError):
        frac_integral(gf, 1.5, t_index=11)


@given(
    st.floats(min_value=1.01, max_value=2.0),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_frac_integral_linearity(p, a, b):
    g = Grid(41, 1.0)
    rng = np.random.default_rng(7)
    g1 = GridFunction(g, rng.normal(size=(1, 41)))
    g2 = GridFunction(g, rng.normal(size=(1, 41)))
    combo = GridFunction(g, a * g1.values + b * g2.values)
    lhs = frac_integral(combo, p)
    rhs = a * frac_integral(g1, p) + b * frac_integral(g2, p)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(st.floats(min_value=1.01, max_value=2.0), st.integers(min_value=0, max_value=10**6))
def test_frac_integral_monotone_on_nonnegative(p, seed):
    g = Grid(41, 1.0)
    rng = np.random.default_rng(seed)
    gf = GridFunction(g, rng.uniform(0.0, 5.0, size=(1, 41)))
    assert np.all(frac_integral(gf, p) >= -1e-14)


def test_product_trapezoid_p1_degenerates_to_trapezoid():
    # p = 1 is outside the public order range but the weight algebra
    # must still collapse to the plain trapezoid rule there.
    g = Grid(11, 1.0)
    quad = ProductTrapezoid(g, 1.0)
    vals = np.ones((1, 11))
    res = quad.running(vals)
    assert np.allclose(res[0], g.nodes, atol=1e-14)


def test_anchored_running_matches_full_integral():
    # anchored variant integrates (T-s)^{p-1} g over [t, T]; cumulative
    # from 0 must match the plain convolution at t = T
    g = Grid(101, 1.0)
    quad = ProductTrapezoid(g, 1.5)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(1, 101))
    anchored = quad.anchored_running(vals)
    assert anchored[0, -1] == pytest.approx(quad.running(vals)[0, -1], rel=1e-12)


# --- direct and FFT convolution paths ------------------------------------

def _direct_running(quad, rows):
    """The O(N^2) reference: one np.convolve per row, then the g_0 correction."""
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        acc = np.convolve(row, quad._w)[: quad.grid.N]
        acc -= quad._corr * row[0]
        acc[0] = 0.0
        out[i] = acc
    return out


@pytest.mark.parametrize("N", [51, 401, 801, _FFT_MIN_N - 1])
@pytest.mark.parametrize("p", [0.5, 1.5])
def test_running_below_crossover_is_the_direct_formula(N, p):
    quad = ProductTrapezoid(Grid(N, 1.3), p)
    assert quad._spectrum is None
    rows = np.random.default_rng(N).normal(size=(2, N))
    ref = _direct_running(quad, rows)
    assert np.array_equal(quad.running(rows), ref)
    assert np.array_equal(quad.running(rows[1]), ref[1])


@pytest.mark.parametrize("N", [51, 401, _FFT_MIN_N - 1])
@pytest.mark.parametrize("p", [0.5, 1.5])
@pytest.mark.parametrize("B", [1, 63, 64, 65, 163])
def test_ramp_of_dots_is_the_direct_formula_bit_for_bit(N, p, B):
    # from 64 rows on (_RAMP_MIN_ROWS) the stack convolves as one ramp of
    # np.vecdot dots, whatever the memory layout of the rows
    quad = ProductTrapezoid(Grid(N, 1.3), p)
    big = np.random.default_rng(B).normal(size=(2 * B, N))
    for rows in (big[:B], np.asfortranarray(big[:B]), big[::2]):
        assert quad.running(rows).tobytes() == _direct_running(quad, rows).tobytes()


@pytest.mark.parametrize("N", [_FFT_MIN_N, 6401])
@pytest.mark.parametrize("p", [0.5, 1.3, 1.5, 2.0])
def test_running_by_fft_matches_direct_convolution(N, p):
    quad = ProductTrapezoid(Grid(N, 2.0), p)
    assert quad._spectrum is not None
    t = quad.grid.nodes
    rng = np.random.default_rng(N)
    rows = np.stack([np.cos(3.0 * t) + t**1.5, rng.normal(size=N)])
    ref = _direct_running(quad, rows)
    got = quad.running(rows)
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
    single = quad.running(rows[0])
    assert np.max(np.abs(single - ref[0])) <= 1e-13 * np.max(np.abs(ref[0]))


def test_fast_len_is_scipy_next_fast_len():
    ns = list(range(1, 20001)) + [2 * N - 1 for N in (1024, 1601, 6401, 25601)]
    assert [_fast_len(n) for n in ns] == [scipy.fft.next_fast_len(n, real=True) for n in ns]


@pytest.mark.parametrize("N", [_FFT_MIN_N, 6401])
@pytest.mark.parametrize("B", [1, 3, 10])
def test_fft_path_is_the_scipy_fft_formula_bit_for_bit(N, B):
    quad = ProductTrapezoid(Grid(N, 1.0), 1.5)
    L = scipy.fft.next_fast_len(2 * N - 1, real=True)
    assert np.array_equal(quad._spectrum, scipy.fft.rfft(quad._w, L))
    rows = np.random.default_rng(B).normal(size=(B, N))
    spec = scipy.fft.rfft(rows, L, axis=-1) * scipy.fft.rfft(quad._w, L)
    want = scipy.fft.irfft(spec, L, axis=-1)[:, :N]
    want -= quad._corr * rows[:, :1]
    want[:, 0] = 0.0
    assert np.array_equal(quad.running(rows), want)


@pytest.mark.parametrize("N", [51, 401, 6401])
def test_endpoint_is_the_last_running_entry(N):
    # 163 rows run the direct path's vecdot ramp, 2 rows its np.convolve
    quad = ProductTrapezoid(Grid(N, 1.0), 1.5)
    rows = np.random.default_rng(7).normal(size=(163, N))
    for values in (rows[:1], rows[:2], rows, rows[0]):
        want = quad.running(values)[..., -1]
        got = quad.endpoint(values)
        assert np.shape(got) == np.shape(want)
        if N < _FFT_MIN_N:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_frac_integral_of_one_on_the_fft_path():
    g = Grid(6401, 1.0)
    res = frac_integral(GridFunction(g, np.ones((1, 6401))), 1.5)
    assert np.max(np.abs(res[0] - g.nodes**1.5 / gamma(2.5))) <= 1e-13


def test_cached_weight_arrays_are_read_only():
    quad = ProductTrapezoid(Grid(_FFT_MIN_N, 1.0), 1.5)
    arrays = [v for v in vars(quad).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 8  # nodes, ratio, c1, c2, w, corr, wrev, spectrum
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[1] = 1.0


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize(
    "N, B", [(401, 3), (401, 70), (_FFT_MIN_N, 3)], ids=["direct", "ramp", "fft"]
)
def test_batched_grid_functions_match_each_row(N, B, n):
    # a batch of B runs the B*n rows as one stack: np.convolve below 64 rows,
    # the ramp of dots from 64 on, the FFT from _FFT_MIN_N nodes
    rng = np.random.default_rng(N + B + n)
    grid = Grid(N, 1.0)
    t = grid.nodes
    coef = rng.standard_normal((3, B, n, 1))
    u = GridFunction(grid, coef[0] + coef[1] * t + coef[2] * t**1.5)
    assert u.values.shape == (B, n, N)
    ops = {
        "caputo": lambda g: caputo_derivative(g, 1.5).values,
        "plain": lambda g: caputo_derivative(g, 1.5, split=False).values,
        "integral": lambda g: frac_integral(g, 1.5),
        "endpoint": lambda g: frac_integral(g, 1.5, t_index=-1),
    }
    for name, op in ops.items():
        got = op(u)
        assert got.shape[:2] == (B, n), name
        for b in range(B):
            assert got[b].tobytes() == op(GridFunction(grid, u.values[b])).tobytes(), (name, b)


@pytest.mark.parametrize("N, T, p", [(51, 1.0, 1.5), (401, 2.5, 1.3), (1024, 0.7, 0.5)])
def test_operator_constants_are_the_closed_forms(N, T, p):
    grid = Grid(N, T)
    quad = ProductTrapezoid(grid, p)
    assert np.array_equal(quad.nodes, grid.nodes)
    assert np.array_equal(quad.ratio, (grid.nodes / T) ** p)
    assert quad.gamma_p == gamma(p)


# --- Caputo derivative ---------------------------------------------------

def test_caputo_kills_lines():
    g = Grid(201, 1.0)
    u = GridFunction(g, (2.0 - 3.0 * g.nodes)[None, :])
    cap = caputo_derivative(u, 1.5)
    assert np.max(np.abs(cap.values)) < 1e-8


def test_caputo_of_t_squared():
    # cD^p t^2 = 2 t^{2-p} / Gamma(3-p); at t=1, p=1.5: 2/Gamma(1.5)
    g = Grid(401, 1.0)
    u = GridFunction(g, (g.nodes**2)[None, :])
    cap = caputo_derivative(u, 1.5)
    assert cap.values[0, -1] == pytest.approx(2.0 / gamma(1.5), rel=1e-6)


def test_caputo_of_t_to_p_is_exact():
    for p in (1.3, 1.5, 1.9):
        g = Grid(201, 1.0)
        u = GridFunction(g, (g.nodes**p)[None, :])
        cap = caputo_derivative(u, p)
        assert np.max(np.abs(cap.values[0, 2:-2] - gamma(p + 1))) < 1e-10


def test_caputo_p2_is_second_derivative():
    g = Grid(101, 1.0)
    u = GridFunction(g, (g.nodes**2)[None, :])
    cap = caputo_derivative(u, 2.0)
    assert np.allclose(cap.values[0], 2.0, atol=1e-9)


def test_caputo_plain_scheme_stalls_on_t_to_p():
    # without the leading-singularity split the simple second-difference
    # scheme has an O(1) error on t^p; this pins the documented reason
    # the split exists (and keeps the plain path reachable)
    p = 1.5
    errs = []
    for N in (101, 201):
        g = Grid(N, 1.0)
        u = GridFunction(g, (g.nodes**p)[None, :])
        cap = caputo_derivative(u, p, split=False)
        errs.append(float(np.max(np.abs(cap.values[0, 2:-2] - gamma(p + 1)))))
    assert errs[0] == pytest.approx(0.161, abs=0.02)
    assert errs[1] == pytest.approx(errs[0], rel=0.05)  # no decay


def test_caputo_refinement_order_on_smooth_singular_mix():
    p = 1.5
    errs = []
    for N in (101, 201, 401, 801):
        g = Grid(N, 1.0)
        u = GridFunction(g, (g.nodes ** (p + 1))[None, :])
        cap = caputo_derivative(u, p)
        exact = gamma(p + 2) * g.nodes
        errs.append(float(np.max(np.abs(cap.values[0, 2 : N - 2] - exact[2 : N - 2]))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(orders) >= 0.9


def test_caputo_validation():
    g = Grid(4, 1.0)
    with pytest.raises(ValueError):
        caputo_derivative(GridFunction(g, np.zeros((1, 4))), 1.5)
    g5 = Grid(5, 1.0)
    with pytest.raises(ValueError):
        caputo_derivative(GridFunction(g5, np.zeros((1, 5))), 0.9)


# --- alpha1 envelope ------------------------------------------------------

def test_alpha1_vanishes_at_endpoints():
    assert alpha1(0.0, 0.0, 1.0, 1.5) == 0.0
    assert alpha1(1.0, 0.0, 1.0, 1.5) == 0.0


def test_alpha1_midpoint_matches_normalized_beta():
    # max of alpha1 on [0,1] at p=3/2 is 1/(3 sqrt(pi))
    assert alpha1(0.5, 0.0, 1.0, 1.5) == pytest.approx(1.0 / (3.0 * SQRT_PI), rel=1e-12)


def test_alpha1_domain_errors():
    with pytest.raises(ValueError):
        alpha1(1.5, 0.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        alpha1(0.5, 1.0, 1.0, 1.5)


def test_alpha1_scalar_vs_array():
    val = alpha1(0.25, 0.0, 2.0, 1.2)
    arr = alpha1(np.array([0.25, 1.0]), 0.0, 2.0, 1.2)
    assert isinstance(val, float)
    assert arr.shape == (2,)
    assert arr[0] == val


def test_kernel_constant_is_alpha1_sup():
    for p, T in ((1.1, 1.0), (1.5, 1.0), (2.0, 3.0)):
        t = np.linspace(0, T, 20001)
        assert kernel_constant(T, p) == pytest.approx(
            np.max(alpha1(t, 0.0, T, p)), rel=1e-7
        )


# --- kernel-estimate inequalities ----------------------------------------
#
# The printed pointwise envelope inequalities fail in a right boundary
# layer: the bracketed operator vanishes like (T-t) there while the
# envelope vanishes like (T-t)^p, p > 1. The sup-norm forms (the ones
# the contraction constants beta and Q are built from) hold everywhere.
# Tests assert the pointwise form where it is true (left half for the
# first estimate, envelope >= 3% of its sup for the iterated one), the
# sup forms strictly, and pin the counterexample as a regression.

def _bracketed(quad, grid, p, g):
    ip = quad.running(g) / gamma(p)
    return np.abs(ip - (grid.nodes / grid.T) ** p * ip[-1])


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
def test_first_kernel_estimate_on_polynomials(p):
    grid = Grid(201, 1.0)
    quad = ProductTrapezoid(grid, p)
    env = alpha1(grid.nodes, 0.0, grid.T, p)
    left = (grid.nodes > 0) & (grid.nodes <= 0.5 * grid.T)
    rng = np.random.default_rng(1234)
    for _ in range(100):
        coef = rng.normal(size=rng.integers(1, 8))
        g = np.polyval(coef, grid.nodes)
        lhs = _bracketed(quad, grid, p, g)
        bound = env * np.max(np.abs(g))
        assert np.all(lhs[left] <= bound[left] * (1 + 1e-9))
        assert np.max(lhs) <= kernel_constant(grid.T, p) * np.max(np.abs(g)) * (1 + 1e-9)


def test_first_kernel_estimate_right_layer_counterexample():
    # closed form: p=2, g(s)=s gives lhs = t^2(1-t)/6 which exceeds
    # alpha1 * max|g| = t^2 (1-t)^2 for every t > 5/6
    grid = Grid(401, 1.0)
    quad = ProductTrapezoid(grid, 2.0)
    lhs = _bracketed(quad, grid, 2.0, grid.nodes.copy())
    assert np.allclose(lhs, grid.nodes**2 * (1 - grid.nodes) / 6, atol=1e-14)
    env = alpha1(grid.nodes, 0.0, 1.0, 2.0)
    j = int(np.argmin(np.abs(grid.nodes - 0.9)))
    assert lhs[j] > env[j]  # the printed pointwise bound is violated here
    assert np.max(lhs) <= kernel_constant(1.0, 2.0)  # ... but the sup form holds


def test_envelope_sequence_first_application_exact():
    for p in (1.1, 1.5, 2.0):
        grid = Grid(201, 1.0)
        seq = envelope_sequence(grid, p, 1)
        assert np.max(np.abs(seq[0] - alpha1(grid.nodes, 0.0, 1.0, p))) < 1e-12


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
def test_iterated_kernel_estimate(p):
    grid = Grid(201, 1.0)
    kc = kernel_constant(grid.T, p)
    a1 = alpha1(grid.nodes, 0.0, grid.T, p)
    seq = envelope_sequence(grid, p, 6)
    for m in range(1, 6):
        bound = kc**m * a1
        mask = bound >= 0.03 * np.max(bound)
        assert np.all(seq[m][mask] <= bound[mask] * 1.01)
        # sup-norm chain: max alpha_{m+1} <= kc^m max alpha_1 = kc^{m+1}
        assert np.max(seq[m]) <= kc ** (m + 1) * (1 + 1e-9)


def test_envelope_sequence_validation():
    with pytest.raises(ValueError):
        envelope_sequence(Grid(11, 1.0), 1.5, 0)
