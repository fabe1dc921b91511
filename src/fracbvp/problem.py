"""Problem model, config ingestion, and M/K bound estimation.

A problem is the full description of one Dirichlet boundary value
problem for a Caputo system of order p in (1, 2]:

    cD^p u = f(t, u),   u(0) = alpha1,  u(T) = alpha2,   u(t) in D,

together with the parameter box Omega that brackets the unknown initial
slope chi1 = u'(0).  Configs arrive as INI-style text (see README for
the exact grammar); a Problem keeps f parsed, with each ``[rhs]``
constant folded into it as a ``ConstRef``, and not the text it came
from.  When the sup bound M or the Lipschitz matrix K is not
supplied, both are estimated by dense sampling over [0,T] x D.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exprlang
from .exprlang import Expr, ExprSyntaxError
from .fracops import Grid, ProductTrapezoid, operator

__all__ = [
    "BUILTIN_PROBLEMS",
    "Box",
    "Problem",
    "ProblemError",
    "builtin_problem",
    "estimate_bounds",
    "load_problem",
    "problem_from_config",
    "resolve_bounds",
]


class ProblemError(ValueError):
    """Config or invariant failure; the message names the violation."""


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo, hi] in R^n."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ProblemError("box lo/hi must be vectors of equal length")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ProblemError("box bounds must be finite")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.width)):
                raise ProblemError(f"box width must be finite, got {self.width.tolist()}")

    @property
    def n(self) -> int:
        return self.lo.size

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))


@dataclass(frozen=True, eq=False)
class Problem:
    p: float
    T: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    domain: Box
    f: tuple[Expr, ...]
    omega: Box
    M: np.ndarray | None = None
    K: np.ndarray | None = None
    N: int = 401
    domain_policy: str = "strict"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and 1.0 < self.p <= 2.0):
            raise ProblemError(f"p outside (1,2]: {self.p!r}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ProblemError(f"horizon T must be positive: {self.T!r}")
        try:
            Tp = float(self.T) ** self.p
        except OverflowError:
            Tp = math.inf
        if not (math.isfinite(Tp) and Tp > 0.0):
            raise ProblemError(f"horizon T^p must be finite and positive: T={self.T!r}, p={self.p!r}")
        if not math.isfinite(math.gamma(self.p + 1.0) / Tp):  # Delta's leading factor
            raise ProblemError(f"horizon T^p must be finite and positive, and Gamma(p+1)/T^p finite: "
                               f"T={self.T!r}, p={self.p!r}")
        object.__setattr__(self, "alpha1", np.atleast_1d(np.asarray(self.alpha1, dtype=float)))
        object.__setattr__(self, "alpha2", np.atleast_1d(np.asarray(self.alpha2, dtype=float)))
        n = self.alpha1.size
        if self.alpha2.size != n:
            raise ProblemError("alpha1 and alpha2 must have the same length")
        if self.domain.n != n:
            raise ProblemError("domain box dimension must match alpha1")
        if not np.all(self.domain.lo < self.domain.hi):
            raise ProblemError("domain requires lo < hi componentwise")
        if not self.domain.contains(self.alpha1):
            raise ProblemError("alpha1 outside domain D")
        if not self.domain.contains(self.alpha2):
            raise ProblemError("alpha2 outside domain D")
        if self.omega.n != n:
            raise ProblemError("omega box dimension must match alpha1")
        if not np.all(self.omega.lo <= self.omega.hi):
            raise ProblemError("omega box is empty")
        if len(self.f) != n:
            raise ProblemError(f"need {n} rhs component(s), got {len(self.f)}")
        if self.M is not None:
            object.__setattr__(self, "M", np.atleast_1d(np.asarray(self.M, dtype=float)))
            if self.M.size != n or not np.all((self.M >= 0) & np.isfinite(self.M)):
                raise ProblemError(f"M must be a finite nonnegative {n}-vector, got {self.M.tolist()}")
        if self.K is not None:
            K = np.asarray(self.K, dtype=float)
            if K.size != n * n or not np.all((K >= 0) & np.isfinite(K)):
                raise ProblemError(f"K must hold {n * n} finite nonnegative entries, got {K.tolist()}")
            object.__setattr__(self, "K", K.reshape(n, n))
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 5):
            raise ProblemError(f"grid nodes N must be an integer >= 5, got {self.N!r}")
        if self.domain_policy not in ("strict", "warn"):
            raise ProblemError(f"domain_policy must be 'strict' or 'warn', got {self.domain_policy!r}")

    @property
    def n(self) -> int:
        return self.alpha1.size

    @functools.cached_property
    def grid(self) -> Grid:
        return Grid(self.N, self.T)

    @property
    def operator(self) -> ProductTrapezoid:
        """The integral operator of order p on the grid, shared by every problem
        on the same (N, T, p) through ``fracops.operator``."""
        return operator(self.grid, self.p)

    @functools.cached_property
    def f_on_grid(self) -> tuple[Expr, ...]:
        """f with its t-only subtrees evaluated on the operator's nodes (``exprlang.bind``);
        cached on the instance, so copy a Problem with ``dataclasses.replace``."""
        return exprlang.bind(self.f, self.operator.nodes)


# --- Bound estimation -------------------------------------------------

# Sample sets behind estimated M and K: the product mesh of this many values
# per axis of [0,T] x D for n <= 2, this many Latin-hypercube points for n >= 3.
_MESH_PER_AXIS = 200
_LHS_POINTS = 10**5


def _sample_points(prob: Problem, seed: int) -> tuple[np.ndarray, list]:
    """Return t and the list of u components of samples covering [0,T] x D:
    for n <= 2 the sparse axes (P, 1, ...), (1, P, ...), ... of the product
    mesh, for n >= 3 P Latin-hypercube points, each array of shape (P,)."""
    n = prob.n
    if n <= 2:
        axes = [np.linspace(0.0, prob.T, _MESH_PER_AXIS)]
        axes += [np.linspace(lo, hi, _MESH_PER_AXIS) for lo, hi in zip(prob.domain.lo, prob.domain.hi)]
        t, *u = np.meshgrid(*axes, indexing="ij", sparse=True)
        return t, u
    # a Latin hypercube: each axis puts one point in each of its P strata, at a
    # uniform offset inside it, and the strata of the axes pair up at random
    rng = np.random.default_rng(seed)
    t, *raw = ((rng.permutation(_LHS_POINTS) + rng.random(_LHS_POINTS)) / _LHS_POINTS for _ in range(n + 1))
    return t * prob.T, [lo + r * w for lo, w, r in zip(prob.domain.lo, prob.domain.width, raw)]


def estimate_bounds(prob: Problem, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the sup bound M and Lipschitz matrix K over [0,T] x D.

    M is the componentwise max of |f| over the sample set; K_ij is the
    max of the central secant |f_i(t, u + h e_j) - f_i(t, u - h e_j)|
    divided by the realized spread, with step h = 2^-10 * box width
    clamped inward at the faces.  The secant is exact (to the last bit)
    for right-hand sides linear in u_j, which is what lets the classic
    gyre problem report K = 0.5 on the nose.

    On the n <= 2 mesh a subtree of f in t or in one component runs once
    per axis value, but every mesh point sees the same floating-point
    operations as on the dense mesh.  M and each column of K are
    per-component maxima over the one array ``evaluate`` fills, taken in
    place.
    """
    t, u = _sample_points(prob, seed)
    n = prob.n
    f = exprlang.evaluate(prob.f, t, u)
    M = np.max(np.abs(f, out=f).reshape(n, -1), axis=1)
    del f  # the secants below need its memory
    K = np.zeros((n, n))
    for j in range(n):
        h = prob.domain.width[j] * 2.0**-10
        up = list(u)
        dn = list(u)
        up[j] = np.minimum(u[j] + h, prob.domain.hi[j])
        dn[j] = np.maximum(u[j] - h, prob.domain.lo[j])
        spread = up[j] - dn[j]
        diff = exprlang.evaluate(prob.f, t, up)
        diff -= exprlang.evaluate(prob.f, t, dn)
        np.abs(diff, out=diff)
        diff /= spread
        K[:, j] = np.max(diff.reshape(n, -1), axis=1)
    return M, K


def resolve_bounds(prob: Problem, seed: int = 0) -> Problem:
    """Fill in M and K by estimation when the config did not supply them."""
    if prob.M is not None and prob.K is not None:
        return prob
    M, K = estimate_bounds(prob, seed=seed)
    return dataclasses.replace(
        prob,
        M=prob.M if prob.M is not None else M,
        K=prob.K if prob.K is not None else K,
    )


# --- Config ingestion --------------------------------------------------

def _parse_vector(text: str, key: str) -> np.ndarray:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ProblemError(f"field {key!r}: empty vector")
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise ProblemError(f"field {key!r}: cannot parse vector from {text!r}") from exc


def _get(cfg: configparser.ConfigParser, section: str, key: str) -> str:
    if not cfg.has_section(section):
        raise ProblemError(f"missing [{section}] section")
    if not cfg.has_option(section, key):
        raise ProblemError(f"missing field {key!r} in [{section}]")
    return cfg.get(section, key)


def _get_float(cfg: configparser.ConfigParser, section: str, key: str) -> float:
    text = _get(cfg, section, key)
    try:
        return float(text)
    except ValueError as exc:
        raise ProblemError(f"field {key!r} in [{section}]: not a number: {text!r}") from exc


def problem_from_config(text: str) -> Problem:
    """Build a Problem from INI-format config text (see README grammar)."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ProblemError(f"config parse failure: {exc}") from exc

    p = _get_float(cfg, "problem", "p")
    T = _get_float(cfg, "problem", "T")
    a1 = _parse_vector(_get(cfg, "problem", "alpha1"), "alpha1")
    a2 = _parse_vector(_get(cfg, "problem", "alpha2"), "alpha2")
    N_text = cfg.get("problem", "N", fallback="401")
    try:
        N = int(N_text)
    except ValueError as exc:
        raise ProblemError(f"field 'N' in [problem]: not an integer: {N_text!r}") from exc
    policy = cfg.get("problem", "domain_policy", fallback="strict").strip()

    domain = Box(
        _parse_vector(_get(cfg, "domain", "lo"), "domain.lo"),
        _parse_vector(_get(cfg, "domain", "hi"), "domain.hi"),
    )
    omega = Box(
        _parse_vector(_get(cfg, "omega_box", "lo"), "omega_box.lo"),
        _parse_vector(_get(cfg, "omega_box", "hi"), "omega_box.hi"),
    )

    source = _get(cfg, "rhs", "expr")
    # configparser lowercases keys; constant names keep their case
    cased = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cased.optionxform = str
    cased.read_string(text)
    constants: dict[str, float] = {}
    for key, value in cased.items("rhs"):
        if key.lower() == "expr":
            continue
        try:
            constants[key] = float(value)
        except ValueError as exc:
            raise ProblemError(f"constant {key!r} in [rhs]: not a number: {value!r}") from exc
        if not math.isfinite(constants[key]):
            raise ProblemError(f"constant {key!r} in [rhs]: not finite: {value!r}")
    try:
        f = exprlang.parse(source, n=a1.size, constants=constants)
    except ExprSyntaxError as exc:
        raise ProblemError(f"[rhs] expr: {exc}") from exc

    M = K = None
    if cfg.has_section("bounds"):
        M = _parse_vector(_get(cfg, "bounds", "M"), "bounds.M")
        K = _parse_vector(_get(cfg, "bounds", "K"), "bounds.K")

    return Problem(
        p=p, T=T, alpha1=a1, alpha2=a2, domain=domain, f=f, omega=omega, M=M, K=K, N=N,
        domain_policy=policy,
    )


def _read_config(path: str | Path) -> str:
    """The text of a config file; an unreadable file is a ProblemError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemError(f"cannot read config {Path(path)}: {exc}") from exc


def load_problem(path: str | Path, resolve: bool = True) -> Problem:
    """Load and validate a Problem from a config file.

    With ``resolve=True`` (the default) missing M/K bounds are estimated
    immediately so downstream condition checks always have data.
    """
    prob = problem_from_config(_read_config(path))
    return resolve_bounds(prob) if resolve else prob


# --- Built-in problems -------------------------------------------------

_GYRE_CONFIG = """
[problem]
p = 1.5
T = 1
alpha1 = 1
alpha2 = 2
N = 401
domain_policy = warn

[domain]
lo = 1
hi = 2

[rhs]
expr = -2*exp(t)/(1+exp(t))^2 * u1 - 2*omega*exp(t)*(1-exp(t))/(1+exp(t))^3
omega = 4649.56

[omega_box]
lo = -333
hi = -320
"""

_ZERO_CONFIG = """
[problem]
p = 1.5
T = 1
alpha1 = 0
alpha2 = 1
N = 401

[domain]
lo = -2
hi = 2

[rhs]
expr = 0

[omega_box]
lo = 0
hi = 2

[bounds]
M = 0
K = 0
"""

BUILTIN_PROBLEMS: dict[str, tuple[str, str]] = {
    "acc-gyre": (
        _GYRE_CONFIG,
        "Wind-driven circumpolar gyre transport model: scalar order-1.5 system "
        "with steep forcing, u(0)=1, u(1)=2, slope bracket [-333, -320].",
    ),
    "zero-rhs": (
        _ZERO_CONFIG,
        "f = 0 sanity family: exact solution is the straight line between the "
        "boundary values, exact slope (alpha2-alpha1)/T.",
    ),
}


def builtin_problem(name: str, resolve: bool = True) -> Problem:
    """Return a built-in example problem by name (see BUILTIN_PROBLEMS)."""
    if name not in BUILTIN_PROBLEMS:
        known = ", ".join(sorted(BUILTIN_PROBLEMS))
        raise ProblemError(f"unknown builtin {name!r} (known: {known})")
    prob = problem_from_config(BUILTIN_PROBLEMS[name][0])
    return resolve_bounds(prob) if resolve else prob
