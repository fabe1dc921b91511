"""Fractional-calculus primitives on uniform grids.

This module provides the numerical kernel of the solver: the Gamma
function, product-trapezoidal quadrature for integrals with weakly
singular kernels (t - s)^(p-1), the Riemann-Liouville fractional
integral I^p, an L1-type numerical Caputo derivative, and the kernel
envelope

    alpha1(t) = 2 (t - a)^p / Gamma(p+1) * ((b - t)/(b - a))^p

whose sup kc = ``kernel_constant(T, p)`` is the paper's constant in beta =
kc M and Q = kc K.  For p > 1 the boundary-corrected kernel changes sign, so
the operator's sup-norm kappa exceeds kc (kappa/kc = 1.079 at p = 1.5).

All quadrature is exact (to roundoff) for piecewise-linear integrands:
the singular kernel is integrated in closed form against the hat-function
basis, so the scheme degenerates to the classical trapezoidal rule at
p = 1 and loses no accuracy to the singularity itself.

``ProductTrapezoid`` is the package's one integral operator (weights,
nodes, (t/T)^p, Gamma(p)).  ``operator(grid, p)`` builds it and keeps the
``_OPERATOR_CACHE`` most recently used, so every problem, iterate and probe
on one (N, T, p) shares one instance (``Problem.operator``), whose arrays
are read-only.  Its running integral is
a convolution with fixed weights: direct below ``_FFT_MIN_N`` nodes, from
there on an O(N log N) ``numpy.fft`` real FFT against the cached weight
spectrum (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985),
which moves results by ~1e-15 relative.  A direct stack of
``_RAMP_MIN_ROWS`` rows or more runs as one ramp of ``numpy.vecdot`` dots,
the BLAS ddot calls of ``np.convolve`` bit for bit.  The integral up to T alone is an O(N) dot
product with the reversed weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ProductTrapezoid",
    "alpha1",
    "caputo_derivative",
    "frac_integral",
    "gamma",
    "kernel_constant",
    "operator",
]


# Grids with at least this many nodes convolve by FFT.  Direct and FFT
# convolution of one row cost the same near N = 500 (single thread);
# 1024 keeps every grid of up to 801 nodes bit-for-bit on the direct path.
_FFT_MIN_N = 1024

# Direct stacks of this many rows or more skip np.convolve's N - 1 unused
# outputs; the two cost the same near 64 rows (one row: 0.4-1.1 vs 0.05 ms).
_RAMP_MIN_ROWS = 64

# Operators kept by ``operator``: a pipeline uses two per grid (p and 2 - p).
_OPERATOR_CACHE = 8


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a padded length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2^k >= n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def gamma(x: float) -> float:
    """Euler Gamma function for positive real arguments.

    The solver only ever needs Gamma at p, p + 1, 2 - p and similar
    positive points; non-positive and non-finite arguments are rejected.
    Relative accuracy is ~1e-15 (well inside the 1e-13 the error bounds
    require).
    """
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma: argument must be positive and finite, got {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_j = j*T/(N-1), j = 0..N-1 on [0, T]."""

    N: int
    T: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 3:
            raise ValueError(f"Grid: need at least 3 nodes, got N={self.N}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"Grid: horizon must be positive and finite, got T={self.T!r}")

    @property
    def h(self) -> float:
        return self.T / (self.N - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N)


class ProductTrapezoid:
    """Product-trapezoidal weights for the kernel (t - s)^(p-1), p > 0.

    The integrand g is replaced by its piecewise-linear interpolant and
    each panel moment of the kernel is integrated exactly.  With the
    substitution sigma = t_j - s, the panel [t_k, t_k+1] seen from node
    t_j (lag l = j - k >= 1) contributes g_k*c1(l) + g_{k+1}*c2(l) with

        c1(l) = h^p [ (l^(p+1) - (l-1)^(p+1))/(p+1) - (l-1)(l^p - (l-1)^p)/p ]
        c2(l) = h^p [ l (l^p - (l-1)^p)/p - (l^(p+1) - (l-1)^(p+1))/(p+1) ]

    At p = 1 both collapse to h/2 (ordinary trapezoid), a useful sanity
    anchor.  Sums over panels are assembled as a discrete convolution:
    direct below ``_FFT_MIN_N`` nodes (a stack of ``_RAMP_MIN_ROWS`` rows
    or more as one ramp of dots), by FFT with the weight spectrum cached
    here at and above it.  ``endpoint`` takes only the integral up to T,
    as an O(N) dot product per row with the reversed weights.

    Moments are raw (no 1/Gamma(p)); ``gamma_p`` = Gamma(p), ``nodes``
    and ``ratio`` = (t/T)^p complete the boundary-corrected operator
    I^p g - (t/T)^p I^p g(T).  Every array it publishes is read-only; build
    one through ``operator``, which shares it.  The FFT path keeps private
    scratch for its transforms (32 N bytes per row of the largest stack),
    so one operator serves one ``running`` call at a time; the package
    starts no threads.
    """

    def __init__(self, grid: Grid, p: float) -> None:
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"ProductTrapezoid: kernel order must be positive, got p={p!r}")
        self.grid = grid
        self.p = p
        self.gamma_p = gamma(p)
        self.nodes = grid.nodes
        self.ratio = (self.nodes / grid.T) ** p
        N = grid.N
        ell = np.arange(N, dtype=float)
        lp = ell**p
        lp1 = ell ** (p + 1.0)
        P1 = np.zeros(N)
        P2 = np.zeros(N)
        P1[1:] = (lp[1:] - lp[:-1]) / p
        P2[1:] = (lp1[1:] - lp1[:-1]) / (p + 1.0)
        hp = grid.h**p
        c1 = np.zeros(N)
        c2 = np.zeros(N)
        c1[1:] = hp * (P2[1:] - ell[:-1] * P1[1:])
        c2[1:] = hp * (ell[1:] * P1[1:] - P2[1:])
        # Convolution form: sum_i g_i w[j-i] minus a correction on g_0,
        # because the first panel carries no c2 pairing for g_0.
        w = np.zeros(N)
        w[0] = c2[1]
        w[1 : N - 1] = c1[1 : N - 1] + c2[2:N]
        w[N - 1] = c1[N - 1]
        corr = np.zeros(N)
        corr[: N - 1] = c2[1:N]
        self._w = w
        self._corr = corr
        self._wrev = np.ascontiguousarray(w[::-1])
        self._spectrum = None
        self._scratch = None  # the FFT path's two transforms, kept for the next call
        if N >= _FFT_MIN_N:
            self._fft_len = _fast_len(2 * N - 1)
            self._spectrum = np.fft.rfft(w, self._fft_len)
        # one instance is shared by every caller of ``operator``
        for arr in (self.nodes, self.ratio, w, corr, self._wrev, self._spectrum):
            if arr is not None:
                arr.flags.writeable = False

    def running(self, values: np.ndarray) -> np.ndarray:
        """Raw moments int_0^{t_j} (t_j - s)^(p-1) g(s) ds for every j.

        No 1/Gamma(p) factor; shape follows the input ((N,) or (n, N)).
        """
        v = np.asarray(values, dtype=float)
        single = v.ndim == 1
        rows = v[np.newaxis, :] if single else v
        N = self.grid.N
        if self._spectrum is None and len(rows) >= _RAMP_MIN_ROWS:
            # output k of np.convolve(row, w) is one ddot of row[:k+1] and
            # wrev[N-1-k:], the call vecdot makes per row; contiguous rows keep its kernel
            rows = np.ascontiguousarray(rows)
            out = np.empty((len(rows), N))
            for k in range(N):
                np.vecdot(rows[:, : k + 1], self._wrev[N - 1 - k :], out=out[:, k])
            out -= self._corr * rows[:, :1]
        else:
            if self._spectrum is None:
                out = np.empty_like(rows)
                for i, row in enumerate(rows):
                    out[i] = np.convolve(row, self._w)[:N]
            else:
                # into buffers kept across calls: a fresh pair on every call
                # took page faults whenever glibc had trimmed the heap
                B, L = len(rows), self._fft_len
                if self._scratch is None or len(self._scratch[0]) < B:
                    self._scratch = (np.empty((B, L // 2 + 1), dtype=complex), np.empty((B, L)))
                spec = np.fft.rfft(rows, L, axis=-1, out=self._scratch[0][:B])
                spec *= self._spectrum
                out = np.fft.irfft(spec, L, axis=-1, out=self._scratch[1][:B])[:, :N]
            out = out - self._corr * rows[:, :1]  # a fresh array, never the scratch
        out[:, 0] = 0.0
        return out[0] if single else out

    def endpoint(self, values: np.ndarray) -> np.ndarray:
        """Raw moment int_0^T (T - s)^(p-1) g(s) ds, one value per row.

        Equals running(values)[..., -1] (bit for bit on the direct path)
        in O(N): one ``np.vecdot`` dot product per row with the reversed weights.
        """
        return np.vecdot(np.asarray(values, dtype=float), self._wrev)


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def operator(grid: Grid, p: float) -> ProductTrapezoid:
    """The integral operator of kernel order p on ``grid``, built once per
    (N, T, p) while it stays among the ``_OPERATOR_CACHE`` most recently used.
    Each holds about 56 N bytes, and from its first FFT-path ``running`` call
    32 N bytes per row of its largest stack (one row of probes above 2**16
    nodes), so a full cache pins up to 0.7 GB at N = 10**6 until
    ``operator.cache_clear()``, which ``cli.main`` calls first."""
    return ProductTrapezoid(grid, p)


def _require_order(p: float) -> None:
    if not (math.isfinite(p) and 1.0 < p <= 2.0):
        raise ValueError(f"fractional order must lie in (1, 2], got p={p!r}")


def _grid_values(values, grid: Grid) -> np.ndarray:
    """``values`` as a float ([B,] n, grid.N) array; a 1-D array is one component."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[np.newaxis, :]
    if v.ndim not in (2, 3) or v.shape[-1] != grid.N:
        raise ValueError(f"values must have shape ([B,] n, {grid.N}), got {np.shape(values)}")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return v


def frac_integral(values, grid: Grid, p: float) -> np.ndarray:
    """Riemann-Liouville integral I^p g on the grid.

    ``values`` samples g on ``grid``, linear between nodes: shape ([B,] n, N),
    a 1-D array being one component.  Returns (1/Gamma(p)) * int_0^{t_j}
    (t_j - s)^(p-1) g(s) ds at every node as a ([B,] n, N) array; index
    ``[..., j]`` for node j.  Exact to roundoff for piecewise-linear g.
    """
    _require_order(p)
    return _running(_grid_values(values, grid), grid, p)


def caputo_derivative(values, grid: Grid, p: float) -> np.ndarray:
    """L1-type numerical Caputo derivative of order p in (1, 2].

    ``values`` samples u on ``grid`` as ``frac_integral`` takes them; the
    result has their ([B,] n, N) shape and is not checked for finiteness.
    The plain scheme, ``_caputo_plain``, forms central second differences of
    the sampled values (one-sided extrapolation at the two end nodes) and
    applies the fractional integral I^(2-p) to their interpolant, i.e. it
    discretizes cD^p u = I^(2-p) u''.  That alone stalls on the leading
    t^p mode the iteration produces (its second difference blows up at the
    first node), so for p < 2 the scheme first fits the t^p coefficient from
    the third difference over the first four nodes,

        c = (u_3 - 3 u_2 + 3 u_1 - u_0) / (h^p (3^p - 3*2^p + 3)),

    which is exact on span{1, t, t^2, t^p}, and differentiates the
    singular part analytically: cD^p [c t^p] = c Gamma(p+1).  The
    remainder is smooth at the origin and goes through the plain scheme.
    A batch of B functions gives each row's derivative bit for bit.
    """
    _require_order(p)
    if grid.N < 5:
        raise ValueError(f"caputo_derivative: need at least 5 nodes, got N={grid.N}")
    v = _grid_values(values, grid)
    den = 3.0**p - 3.0 * 2.0**p + 3.0
    if p != 2.0 and abs(den) >= 1e-2:
        c = (v[..., 3] - 3.0 * v[..., 2] + 3.0 * v[..., 1] - v[..., 0]) / (grid.h**p * den)
        smooth = v - c[..., np.newaxis] * grid.nodes**p
        return c[..., np.newaxis] * gamma(p + 1.0) + _caputo_plain(smooth, grid, p)
    return _caputo_plain(v, grid, p)


def _caputo_plain(values: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    h = grid.h
    d = np.empty_like(values)
    d[..., 1:-1] = (values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]) / h**2
    d[..., 0] = 2.0 * d[..., 1] - d[..., 2]
    d[..., -1] = 2.0 * d[..., -2] - d[..., -3]
    return d if p == 2.0 else _running(d, grid, 2.0 - p)


def _running(values: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """I^p of ([B,] n, N) values: the raw running moments over Gamma(p)."""
    quad = operator(grid, p)
    return quad.running(values.reshape(-1, grid.N)).reshape(values.shape) / quad.gamma_p


def alpha1(t, a: float, b: float, p: float):
    """Kernel envelope 2 (t-a)^p / Gamma(p+1) * ((b-t)/(b-a))^p.

    It vanishes at both endpoints and peaks at the midpoint with the
    paper's constant kc = (b-a)^p / (2^(2p-1) Gamma(p+1)).  It is not a
    pointwise bound on the boundary-corrected operator: for p > 1 the
    kernel changes sign, and the operator's sup-norm exceeds kc (by 7.9%
    at p = 1.5).  Accepts scalar or array ``t`` inside [a, b].
    """
    if not b > a:
        raise ValueError(f"alpha1: need a < b, got a={a!r}, b={b!r}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < a) or np.any(t_arr > b):
        raise ValueError(f"alpha1: t outside [{a}, {b}]")
    val = 2.0 * (t_arr - a) ** p / gamma(p + 1.0) * ((b - t_arr) / (b - a)) ** p
    return float(val) if np.ndim(t) == 0 else val


def kernel_constant(T: float, p: float) -> float:
    """sup of alpha1 over [0, T]: T^p / (2^(2p-1) Gamma(p+1)).

    Multiplying by M gives the displacement bound beta; multiplying by
    the Lipschitz matrix K gives the contraction matrix Q.
    """
    return T**p / (2.0 ** (2.0 * p - 1.0) * gamma(p + 1.0))

