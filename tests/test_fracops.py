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
    _caputo_plain,
    _fast_len,
    Grid,
    ProductTrapezoid,
    alpha1,
    caputo_derivative,
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


# --- Grid and grid values ------------------------------------------------

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


@pytest.mark.parametrize("op", [frac_integral, caputo_derivative], ids=["integral", "caputo"])
def test_grid_values_are_promoted_and_validated(op):
    g = Grid(5, 1.0)
    values = np.arange(5.0)
    got = op(values, g, 1.5)
    assert got.shape == (1, 5)
    assert got.tobytes() == op(values[np.newaxis, :], g, 1.5).tobytes()
    with pytest.raises(ValueError, match="values must be finite"):
        op(np.array([[1.0, np.nan, 0.0, 0.0, 0.0]]), g, 1.5)
    with pytest.raises(ValueError, match=r"values must have shape \(\[B,\] n, 5\)"):
        op(np.zeros((1, 4)), g, 1.5)


def test_grid_values_are_linear_between_nodes():
    # the integral operators read grid values as linear between nodes,
    # so a linear function is integrated exactly at every node of a coarse grid
    g = Grid(11, 1.0)
    t = g.nodes
    want = 3.0 * t**2.5 / gamma(3.5) - t**1.5 / gamma(2.5)
    assert np.allclose(frac_integral(3.0 * t - 1.0, g, 1.5)[0], want, rtol=0, atol=1e-14)


# --- fractional integral -------------------------------------------------

def test_frac_integral_of_one():
    # I^p[1](t) = t^p / Gamma(p+1); at t=1, p=1.5 this is 1/Gamma(2.5)
    g = Grid(401, 1.0)
    res = frac_integral(np.ones((1, 401)), g, 1.5)[..., -1]
    assert res[0] == pytest.approx(1.0 / gamma(2.5), rel=1e-12)
    full = frac_integral(np.ones((1, 401)), g, 1.5)
    assert np.allclose(full[0], g.nodes**1.5 / gamma(2.5), atol=1e-12)


def test_frac_integral_of_identity():
    g = Grid(401, 1.0)
    res = frac_integral(g.nodes[None, :], g, 1.5)[..., -1]
    assert res[0] == pytest.approx(1.0 / gamma(3.5), rel=1e-12)


def test_frac_integral_beta_moment():
    # raw kernel moment: int_0^1 (1-s)^{1/2} s ds = B(2, 3/2) = 4/15
    g = Grid(801, 1.0)
    res = frac_integral(g.nodes[None, :], g, 1.5)[..., -1]
    assert gamma(1.5) * res[0] == pytest.approx(4.0 / 15.0, rel=1e-12)


def test_frac_integral_zero_at_origin():
    g = Grid(31, 1.0)
    rng = np.random.default_rng(0)
    assert np.all(frac_integral(rng.normal(size=(2, 31)), g, 1.7)[..., 0] == 0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.1, -1.5])
def test_frac_integral_rejects_order(p):
    g = Grid(11, 1.0)
    with pytest.raises(ValueError):
        frac_integral(np.ones((1, 11)), g, p)


@given(
    st.floats(min_value=1.01, max_value=2.0),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_frac_integral_linearity(p, a, b):
    g = Grid(41, 1.0)
    rng = np.random.default_rng(7)
    g1 = rng.normal(size=(1, 41))
    g2 = rng.normal(size=(1, 41))
    lhs = frac_integral(a * g1 + b * g2, g, p)
    rhs = a * frac_integral(g1, g, p) + b * frac_integral(g2, g, p)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(st.floats(min_value=1.01, max_value=2.0), st.integers(min_value=0, max_value=10**6))
def test_frac_integral_monotone_on_nonnegative(p, seed):
    g = Grid(41, 1.0)
    rng = np.random.default_rng(seed)
    assert np.all(frac_integral(rng.uniform(0.0, 5.0, size=(1, 41)), g, p) >= -1e-14)


def test_product_trapezoid_p1_degenerates_to_trapezoid():
    # p = 1 is outside the public order range but the weight algebra
    # must still collapse to the plain trapezoid rule there.
    g = Grid(11, 1.0)
    quad = ProductTrapezoid(g, 1.0)
    vals = np.ones((1, 11))
    res = quad.running(vals)
    assert np.allclose(res[0], g.nodes, atol=1e-14)


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
    res = frac_integral(np.ones((1, 6401)), g, 1.5)
    assert np.max(np.abs(res[0] - g.nodes**1.5 / gamma(2.5))) <= 1e-13


def test_the_fft_scratch_never_reaches_a_result():
    # a later call reuses the scratch rows of an earlier, larger stack; the
    # earlier result keeps its values and every result has a fresh operator's bits
    N = _FFT_MIN_N
    quad = ProductTrapezoid(Grid(N, 1.0), 1.5)
    rng = np.random.default_rng(9)
    big, small = rng.standard_normal((5, N)), rng.standard_normal((2, N))
    first = quad.running(big)
    kept = first.copy()
    second = quad.running(small)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() == ProductTrapezoid(Grid(N, 1.0), 1.5).running(small).tobytes()
    assert quad.running(big).tobytes() == kept.tobytes()


def test_cached_weight_arrays_are_read_only():
    for N in (_FFT_MIN_N, 6401):
        quad = ProductTrapezoid(Grid(N, 1.0), 1.5)
        arrays = [v for v in vars(quad).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6  # nodes, ratio, w, corr, wrev, spectrum
        # five float64 rows of N and a complex spectrum of about N bins
        assert sum(arr.nbytes for arr in arrays) <= 57 * N
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
    u = coef[0] + coef[1] * t + coef[2] * t**1.5
    assert u.shape == (B, n, N)
    ops = {
        "caputo": lambda v: caputo_derivative(v, grid, 1.5),
        "plain": lambda v: _caputo_plain(v, grid, 1.5),
        "integral": lambda v: frac_integral(v, grid, 1.5),
        "endpoint": lambda v: frac_integral(v, grid, 1.5)[..., -1],
    }
    for name, op in ops.items():
        got = op(u)
        assert got.shape[:2] == (B, n), name
        for b in range(B):
            assert got[b].tobytes() == op(u[b]).tobytes(), (name, b)


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
    cap = caputo_derivative((2.0 - 3.0 * g.nodes)[None, :], g, 1.5)
    assert np.max(np.abs(cap)) < 1e-8


def test_caputo_of_t_squared():
    # cD^p t^2 = 2 t^{2-p} / Gamma(3-p); at t=1, p=1.5: 2/Gamma(1.5)
    g = Grid(401, 1.0)
    cap = caputo_derivative((g.nodes**2)[None, :], g, 1.5)
    assert cap[0, -1] == pytest.approx(2.0 / gamma(1.5), rel=1e-6)


def test_caputo_of_t_to_p_is_exact():
    for p in (1.3, 1.5, 1.9):
        g = Grid(201, 1.0)
        cap = caputo_derivative((g.nodes**p)[None, :], g, p)
        assert np.max(np.abs(cap[0, 2:-2] - gamma(p + 1))) < 1e-10


def test_caputo_p2_is_second_derivative():
    g = Grid(101, 1.0)
    cap = caputo_derivative((g.nodes**2)[None, :], g, 2.0)
    assert np.allclose(cap[0], 2.0, atol=1e-9)


def test_caputo_plain_scheme_stalls_on_t_to_p():
    # without the leading-singularity split the simple second-difference
    # scheme has an O(1) error on t^p; this pins the documented reason
    # the split exists (and keeps the plain path reachable)
    p = 1.5
    errs = []
    for N in (101, 201):
        g = Grid(N, 1.0)
        cap = _caputo_plain((g.nodes**p)[None, :], g, p)
        errs.append(float(np.max(np.abs(cap[0, 2:-2] - gamma(p + 1)))))
    assert errs[0] == pytest.approx(0.161, abs=0.02)
    assert errs[1] == pytest.approx(errs[0], rel=0.05)  # no decay


def test_caputo_refinement_order_on_smooth_singular_mix():
    p = 1.5
    errs = []
    for N in (101, 201, 401, 801):
        g = Grid(N, 1.0)
        cap = caputo_derivative((g.nodes ** (p + 1))[None, :], g, p)
        exact = gamma(p + 2) * g.nodes
        errs.append(float(np.max(np.abs(cap[0, 2 : N - 2] - exact[2 : N - 2]))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(orders) >= 0.9


def test_caputo_validation():
    g = Grid(4, 1.0)
    with pytest.raises(ValueError):
        caputo_derivative(np.zeros((1, 4)), g, 1.5)
    g5 = Grid(5, 1.0)
    with pytest.raises(ValueError):
        caputo_derivative(np.zeros((1, 5)), g5, 0.9)


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
# The printed pointwise envelope inequality fails in a right boundary
# layer: the bracketed operator vanishes like (T-t) there while the
# envelope vanishes like (T-t)^p, p > 1. Its sup form with kc = sup alpha1,
# the paper's constant behind beta and Q, holds on the random polynomials
# below but not for every g: for p > 1 the kernel changes sign, and the
# operator's sup-norm kappa exceeds kc (kappa/kc = 1.079 at p = 1.5; see
# ROADMAP.md, item 1). Tests assert the pointwise form on the left half,
# the sup form on these polynomials, and pin the counterexample.

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
