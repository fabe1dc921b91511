"""End-to-end command-line runs, in process via main(argv)."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracbvp
from conftest import escape_rows
from fracbvp.cli import _BLOCK_VALUES, _build_parser, _load, _resolve, _write_csv, main
from fracbvp.conditions import check_conditions, delta_gap_bound
from fracbvp.determine import _exclusion_coefficient, delta_at, existence_check_scalar
from fracbvp import cli, fracops
from fracbvp.fracops import caputo_derivative
from fracbvp.problem import BUILTIN_PROBLEMS, Box, builtin_problem, estimate_bounds, load_problem

GYRE_ROOTS = [-320.68685748392215, -332.0604225604555, -332.30179286902836]

BAD_RADIUS_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1.0
    alpha1 = 1.0
    alpha2 = 2.0
    N = 51

    [domain]
    lo = 1.0
    hi = 2.0

    [rhs]
    expr = 50 * u1

    [omega_box]
    lo = -333.0
    hi = -320.0

    [bounds]
    M = 844.11
    K = 50.0
    """
)

NARROW_WARN_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1.0
    alpha1 = 0.0
    alpha2 = 0.1
    N = 51
    domain_policy = warn

    [domain]
    lo = -0.15
    hi = 0.15

    [rhs]
    expr = 0

    [omega_box]
    lo = -1.0
    hi = 1.0

    [bounds]
    M = 0.0
    K = 0.0
    """
)

# Cross-coupled f = (60 u2, u1): K = [[0, 60], [1, 0]] is cyclic, and
# r(Q) = sqrt(60) * kc = 1.4567 although every diagonal entry is zero.
COUPLED_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1.0
    alpha1 = 0.0 0.0
    alpha2 = 1.0 1.0
    N = 51

    [domain]
    lo = -5.0 -5.0
    hi = 5.0 5.0

    [rhs]
    expr = 60*u2; 1*u1

    [omega_box]
    lo = -1.0 -1.0
    hi = 1.0 1.0
    """
)


# The coupled system of the benchmark at its nominal coefficients; the
# supplied bounds skip the sampling of M and K.
COUPLED_BOUNDS_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1
    alpha1 = 0 0
    alpha2 = 0.5 -0.5
    N = 201
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

    [bounds]
    M = 2.2 2.0
    K = 0.5 0.3 0.3 0.5
    """
)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _column(path, name):
    header, rows = _read_csv(path)
    i = header.index(name)
    return [float(r[i]) for r in rows]


# --- example-list and argument validation ------------------------------------


def test_example_list(capsys):
    assert main(["example-list"]) == 0
    out = capsys.readouterr().out
    assert "acc-gyre:" in out
    assert "zero-rhs:" in out


def test_requires_exactly_one_source(tmp_path, capsys):
    assert main(["check", "--out", str(tmp_path)]) == 1
    assert "exactly one of" in capsys.readouterr().err
    cfg = tmp_path / "p.ini"
    cfg.write_text(NARROW_WARN_CFG, encoding="utf-8")
    rc = main(["check", "--config", str(cfg), "--builtin", "zero-rhs", "--out", str(tmp_path)])
    assert rc == 1


def test_unknown_builtin_is_config_error(tmp_path, capsys):
    assert main(["check", "--builtin", "nope", "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[problem]\np = not-a-number\n", encoding="utf-8")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, edit, message",
    [
        ("[omega_box]\nlo = 0\nhi = 2\n", "[omega_box]\nlo = 0\nhi = -2\n", "omega box is empty"),
        ("expr = 0\n", "expr = 0 +\n  tanh(t)\n", "[rhs] expr: unknown function 'tanh' (line 2, column 1)"),
    ],
    ids=["empty-omega", "unknown-function"],
)
def test_a_problem_error_is_a_config_error_in_process(tmp_path, capsys, line, edit, message):
    text = BUILTIN_PROBLEMS["zero-rhs"][0]
    assert text.count(line) == 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.replace(line, edit), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    assert main(["check", "--config", str(missing), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--m", "-1"], "--m must be >= 0, got -1"),
        (["exclude", "--subdiv", "0"], "--subdiv must be >= 1, got 0"),
        (["exclude", "--m", "-1"], "--m must be >= 0, got -1"),
        (["verify", "--recompute", "--m", "-1"], "--m must be >= 0, got -1"),
    ],
    ids=["solve-m", "exclude-subdiv", "exclude-m", "verify-recompute-m"],
)
@pytest.mark.parametrize("builtin", ["acc-gyre", "zero-rhs"])
def test_negative_depth_and_empty_subdivision_are_config_errors(tmp_path, capsys, argv, message, builtin):
    out = tmp_path / "out"
    assert main([*argv, "--builtin", builtin, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


THREE_CFG = textwrap.dedent(
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
    expr = 0.1*u1; 0.1*u2; 0.1*u3

    [omega_box]
    lo = -3 -3 -3
    hi = 3 3 3
    """
)


@pytest.mark.parametrize("stage", [["check"], ["solve"], ["exclude"], ["verify", "--recompute"]])
@pytest.mark.parametrize("source", ["acc-gyre", "n3-config"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, stage, source):
    # for n >= 3 the seed drives the Latin-hypercube sampling of M and K
    if source == "n3-config":
        cfg = tmp_path / "three.ini"
        cfg.write_text(THREE_CFG, encoding="utf-8")
        argv = ["--config", str(cfg)]
    else:
        argv = ["--builtin", source]
    out = tmp_path / "out"
    assert main([*stage, *argv, "--seed", "-1", "--out", str(out)]) == 1
    assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tol_must_be_a_finite_non_negative_number(tmp_path, capsys, tol):
    # -1 and nan never stop the final run; inf stops it after one step
    out = tmp_path / "out"
    assert main(["solve", "--builtin", "acc-gyre", "--tol", tol, "--out", str(out)]) == 1
    assert f"config error: --tol must be a finite number >= 0, got {float(tol)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, edit, message",
    [
        ("M = 0", "M = nan", "M must be a finite nonnegative 1-vector, got [nan]"),
        ("M = 0", "M = inf", "M must be a finite nonnegative 1-vector, got [inf]"),
        ("K = 0", "K = nan", "K must hold 1 finite nonnegative entries, got [nan]"),
        ("K = 0", "K = 0 0", "K must hold 1 finite nonnegative entries, got [0.0, 0.0]"),
        ("N = 401", "N = 40a1", "field 'N' in [problem]: not an integer: '40a1'"),
    ],
    ids=["M-nan", "M-inf", "K-nan", "K-size", "N-text"],
)
@pytest.mark.parametrize("stage", [["check"], ["exclude", "--m", "1", "--subdiv", "4"]])
def test_malformed_bounds_and_grid_are_config_errors(tmp_path, capsys, line, edit, message, stage):
    # a NaN bound used to pass every gate: "conditions hold", boxes dropped, "tail": [NaN]
    text = BUILTIN_PROBLEMS["zero-rhs"][0]
    assert f"\n{line}\n" in text
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.replace(f"\n{line}\n", f"\n{edit}\n"), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*stage, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_rhs_constant_is_a_config_error(tmp_path, capsys, value):
    # with supplied bounds a NaN f used to pass the gate: "conditions hold", exit 0
    text = BUILTIN_PROBLEMS["acc-gyre"][0]
    assert "\nomega = 4649.56\n" in text
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.replace("\nomega = 4649.56\n", f"\nomega = {value}\n")
                   + "[bounds]\nM = 844.11\nK = 0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config error: constant 'omega' in [rhs]: not finite: '{value}'" in capsys.readouterr().err
    assert not out.exists()


# Configs whose probes are not finite (N = 21, policy warn); all but DELTA_IS_NAN pass `check`.
NON_FINITE_CFG = textwrap.dedent(
    """
    [problem]
    p = {p}
    T = {T}
    alpha1 = 0
    alpha2 = {alpha2}
    N = 21
    domain_policy = warn

    [domain]
    lo = {d_lo}
    hi = {d_hi}

    [rhs]
    expr = {expr}

    [omega_box]
    lo = {omega_lo}
    hi = {omega_hi}
    """
)
# chi1 T overflows at the ends of Omega, so u_0 is not finite
U0_OVERFLOWS = NON_FINITE_CFG.format(
    p=1.5, T=1e110, alpha2=1, d_lo=-1e300, d_hi=1e300, expr="0.1*u1", omega_lo=-1e200, omega_hi=1e200
) + "\n[bounds]\nM = 1\nK = 0\n"
# the grid step's h^2 underflows to 0 in the Caputo stencil, which only verify runs
H2_UNDERFLOWS = NON_FINITE_CFG.format(
    p=1.5, T=1e-200, alpha2=5e-324, d_lo=-2, d_hi=2, expr="0.1*u1 + sin(t)", omega_lo=0, omega_hi=2
)
# Gamma(p+1)/T^p (alpha2 - alpha1 - chi1 T) is about -1.3e308 and p/T^p times the
# endpoint integral of f about 1.7e308, so every Delta_m overflows with finite iterates
DELTA_OVERFLOWS = NON_FINITE_CFG.format(
    p=1.5, T=1e-100, alpha2=1, d_lo=-1e300, d_hi=1e300, expr="1.7e308 + 0*u1", omega_lo=1e258, omega_hi=2e258
) + "\n[bounds]\nM = 1\nK = 0\n"
# T^p = 1e-322 is subnormal, so Gamma(p+1)/T^p overflows: every Delta_m was NaN
# and exclude certified Omega root-free, so Problem rejects such a T
DELTA_IS_NAN = NON_FINITE_CFG.format(
    p=2, T=1e-161, alpha2=1e-300, d_lo=-2, d_hi=2, expr="0.1*u1 + sin(t)", omega_lo=0, omega_hi=2
)


def _zero_rhs_with(edits):
    text = BUILTIN_PROBLEMS["zero-rhs"][0]
    for line, edit in edits.items():
        assert text.count(f"\n{line}\n") == 1
        text = text.replace(f"\n{line}\n", f"\n{edit}\n")
    return text


@pytest.mark.parametrize(
    "text, message",
    [
        (_zero_rhs_with({"alpha1 = 0": "alpha1 ="}), "field 'alpha1': empty vector"),
        (_zero_rhs_with({"p = 1.5": "p = 2", "T = 1": "T = 1e155"}),
         "horizon T^p must be finite and positive: T=1e+155, p=2.0"),
        (_zero_rhs_with({"p = 1.5": "p = 2", "T = 1": "T = 1e-162"}),
         "horizon T^p must be finite and positive: T=1e-162, p=2.0"),
        (DELTA_IS_NAN, "horizon T^p must be finite and positive, and Gamma(p+1)/T^p finite: T=1e-161, p=2.0"),
    ],
    ids=["empty-alpha1", "T-power-overflow", "T-power-underflow", "delta-is-nan"],
)
@pytest.mark.parametrize("stage", [["check"], ["solve"], ["exclude"], ["verify", "--recompute"]])
def test_malformed_configs_are_config_errors_in_every_stage(tmp_path, capsys, text, message, stage):
    # each ended in a traceback (a ValueError from exprlang.parse, an OverflowError
    # from fracops.kernel_constant, a ZeroDivisionError from determine._delta) or,
    # for DELTA_IS_NAN, in a NaN Delta_m at every probe after "conditions hold"
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([*stage, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_an_omega_whose_width_overflows_is_a_config_error(tmp_path):
    # each bound is finite, but hi - lo is not: the scan's linspace gave NaN
    # slopes and solve ended in a ValueError traceback from u0
    text = BUILTIN_PROBLEMS["zero-rhs"][0]
    assert "[omega_box]\nlo = 0\nhi = 2\n" in text
    cfg = tmp_path / "wide.ini"
    cfg.write_text(text.replace("[omega_box]\nlo = 0\nhi = 2\n", "[omega_box]\nlo = -1.7e308\nhi = 1.7e308\n"),
                   encoding="utf-8")
    src = str(Path(fracbvp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fracbvp.cli", "solve", "--m", "1", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "config error: box width must be finite, got [inf]" in proc.stderr
    assert not (tmp_path / "out").exists()


# --- check --------------------------------------------------------------------


def test_check_gyre(tmp_path, capsys):
    assert main(["check", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "beta/M = 0.188063" in out
    assert "spectral radius r(Q) = 0.094032" in out
    assert "conditions hold" in out

    data = json.loads((tmp_path / "conditions.json").read_text(encoding="utf-8"))
    assert data["ok"] is True
    assert data["beta"][0] == pytest.approx(158.82009645226074, rel=1e-12)
    assert data["beta_over_m"] == pytest.approx(0.18806319451591874, rel=1e-15)
    assert data["dbeta_basis"] == "normalized"

    header, rows = _read_csv(tmp_path / "conditions.csv")
    assert header == ["quantity", "value"]
    table = {name: float(value) for name, value in rows}
    assert table["beta_1"] == pytest.approx(158.82009645226074, rel=1e-15)
    assert table["beta_over_m"] == pytest.approx(0.18806319451591874, rel=1e-15)
    assert table["Q_11"] == pytest.approx(0.09403159725795937, rel=1e-15)
    assert table["dbeta_ok"] == 1.0
    assert table["dbeta_centered_ok"] == 0.0
    assert table["R"] == pytest.approx(4.0 / 27.0, rel=1e-13)


def test_check_fails_radius_gate(tmp_path, capsys):
    cfg = tmp_path / "stiff.ini"
    cfg.write_text(BAD_RADIUS_CFG, encoding="utf-8")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert ">= 1 FAIL" in out
    assert "conditions FAIL" in out
    data = json.loads((tmp_path / "conditions.json").read_text(encoding="utf-8"))
    assert data["spectral_radius"] == pytest.approx(9.403159725795937, rel=1e-10)


def test_check_fails_cyclic_coupling(tmp_path, capsys):
    cfg = tmp_path / "coupled.ini"
    cfg.write_text(COUPLED_CFG, encoding="utf-8")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "conditions FAIL" in capsys.readouterr().out
    data = json.loads((tmp_path / "conditions.json").read_text(encoding="utf-8"))
    assert data["spectral_radius"] == pytest.approx(1.4567312407894402, rel=1e-12)
    assert data["radius_bound"] >= data["spectral_radius"]
    assert all(b >= 0.0 for bound in data["apriori_bounds"] for b in bound)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # stdout is a pipe whose reader is gone before the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(fracbvp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(write_end, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "fracbvp.cli", "check", "--builtin", "acc-gyre", "--out", str(tmp_path)],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "conditions.json").is_file()


def test_check_manifest(tmp_path):
    main(["check", "--builtin", "acc-gyre", "--out", str(tmp_path), "--seed", "7"])
    m = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert m["command"] == "check"
    assert m["source"] == "builtin:acc-gyre"
    assert m["grid_n"] == 401
    assert m["seed"] == 7
    assert m["bounds_source"] == "sampled"
    assert m["version"] == fracbvp.__version__
    assert list(m) == [
        "command", "source", "grid_n", "m", "tol", "subdiv", "seed", "bounds_source", "version", "timestamp",
    ]


# --- bounds record ---------------------------------------------------------------


@pytest.fixture
def bound_estimates(monkeypatch):
    """The seed of every estimate_bounds call from here on."""
    from fracbvp import problem

    calls = []
    estimate = problem.estimate_bounds

    def counted(prob, seed=0):
        calls.append(seed)
        return estimate(prob, seed=seed)

    monkeypatch.setattr(problem, "estimate_bounds", counted)
    return calls


GYRE_STAGES = {"check": [], "solve": [], "exclude": ["--m", "2", "--subdiv", "13"], "verify": []}


def _stage(stage, out, *extra, source=("--builtin", "acc-gyre")):
    """Run one stage (exit 0) and return the bounds_source of its manifest."""
    assert main([stage, *source, "--out", str(out), *GYRE_STAGES.get(stage, []), *extra]) == 0
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))["bounds_source"]


def test_reused_bounds_give_the_outputs_of_stages_that_each_sample(tmp_path, bound_estimates):
    reuse, each = tmp_path / "reuse", tmp_path / "each"
    assert {s: _stage(s, reuse) for s in GYRE_STAGES} == {
        "check": "sampled", "solve": "conditions.json", "exclude": "conditions.json", "verify": "unused",
    }
    assert len(bound_estimates) == 1  # in check alone
    # check last: solve and exclude find no conditions.json and sample M and K
    assert {s: _stage(s, each) for s in ("solve", "exclude", "verify", "check")} == {
        "solve": "sampled", "exclude": "sampled", "verify": "unused", "check": "sampled",
    }
    assert len(bound_estimates) == 4
    names = sorted(p.name for p in reuse.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in each.iterdir() if p.name != "manifest.json")
    assert len(names) == 11
    for name in names:
        assert (reuse / name).read_bytes() == (each / name).read_bytes(), name


@pytest.mark.parametrize("three", [False, True], ids=["acc-gyre", "n3-seed-5"])
def test_reused_bounds_have_the_bits_of_an_estimate(tmp_path, three):
    if three:
        cfg = tmp_path / "three.ini"
        cfg.write_text(THREE_CFG, encoding="utf-8")
        argv = ["--config", str(cfg), "--seed", "5"]
    else:
        argv = ["--builtin", "acc-gyre"]
    assert main(["check", *argv, "--out", str(tmp_path)]) == 0
    args = _build_parser().parse_args(["solve", *argv, "--out", str(tmp_path)])
    prob, _, text = _load(args)
    reused, source = _resolve(args, prob, text)
    assert source == "conditions.json"
    M, K = estimate_bounds(prob, seed=args.seed)
    assert reused.M.tobytes() == M.tobytes()
    assert reused.K.tobytes() == K.tobytes()


def test_plain_verify_resolves_no_bounds(tmp_path, bound_estimates):
    assert _stage("solve", tmp_path) == "sampled"  # no conditions.json yet
    assert bound_estimates == [0]
    assert _stage("verify", tmp_path) == "unused"
    assert bound_estimates == [0]
    assert _stage("verify", tmp_path, "--recompute") == "sampled"
    assert len(bound_estimates) == 2


def test_supplied_bounds_are_recorded_as_supplied(tmp_path, bound_estimates):
    for stage in ("check", "solve", "exclude"):
        assert _stage(stage, tmp_path, source=("--builtin", "zero-rhs")) == "supplied"
    assert json.loads((tmp_path / "conditions.json").read_text(encoding="utf-8"))["bounds_source"] == "supplied"
    assert bound_estimates == []


def test_recorded_bounds_ignore_the_grid(tmp_path):
    assert _stage("check", tmp_path, "--grid-n", "101") == "sampled"
    assert _stage("solve", tmp_path) == "conditions.json"


def _edit_text(cfg):
    cfg.write_text(cfg.read_text(encoding="utf-8") + "# the same problem, another text\n", encoding="utf-8")


def _edit_m(out):
    data = json.loads((out / "conditions.json").read_text(encoding="utf-8"))
    data["M"] = [np.nextafter(data["M"][0], np.inf)]
    (out / "conditions.json").write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("change", ["config-text", "seed", "recorded-M", "version"])
def test_a_changed_input_is_a_miss(tmp_path, monkeypatch, bound_estimates, change):
    cfg = tmp_path / "gyre.ini"
    cfg.write_text(BUILTIN_PROBLEMS["acc-gyre"][0], encoding="utf-8")
    out, clean = tmp_path / "out", tmp_path / "clean"
    source = ("--config", str(cfg))
    assert _stage("check", out, source=source) == "sampled"
    assert _stage("solve", clean, source=source) == "sampled"
    extra = []
    if change == "config-text":
        _edit_text(cfg)
    elif change == "seed":
        extra = ["--seed", "1"]
    elif change == "recorded-M":
        _edit_m(out)
    else:
        monkeypatch.setattr(cli, "__version__", fracbvp.__version__ + "+1")
    assert _stage("solve", out, *extra, source=source) == "sampled"
    assert len(bound_estimates) == 3
    # the stage sampled M and K again, so its verdict and outputs are a clean run's
    for name in ("chi_trace.csv", "iterates.csv", "sup_diffs.csv", "determining.json"):
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name


@pytest.mark.parametrize(
    "text",
    ["", "not json", "[]", "null", '{"M": [1.0]}', '{"M": "x", "K": {}, "bounds_key": 3}',
     "[" * 100000, b"\xff\xfe", None],
    ids=["empty", "not-json", "list", "null", "partial", "wrong-types", "deep", "not-utf8", "directory"],
)
def test_a_malformed_record_falls_back_to_sampling(tmp_path, capsys, bound_estimates, text):
    path = tmp_path / "conditions.json"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    assert _stage("solve", tmp_path) == "sampled"
    assert _stage("exclude", tmp_path) == "sampled"
    assert len(bound_estimates) == 2
    assert capsys.readouterr().err == ""


# --- solve ---------------------------------------------------------------------


def test_solve_gyre_trace_pins(tmp_path, capsys):
    assert main(["solve", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "m=0: chi1 =" in out
    assert "domain excursion(s) recorded" in out

    header, rows = _read_csv(tmp_path / "chi_trace.csv")
    assert header == ["k", "chi1", "residual"]
    assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0]
    # '.17g' cells round-trip the doubles bit for bit
    got = [float(r[1]) for r in rows]
    assert got == pytest.approx(GYRE_ROOTS, rel=1e-14)
    assert all(float(r[2]) <= 1e-8 for r in rows)

    header, rows = _read_csv(tmp_path / "iterates.csv")
    assert header == ["t", "u0", "u1", "u2"]
    assert len(rows) == 401
    assert float(rows[0][1]) == 1.0 and float(rows[-1][1]) == 2.0

    header, rows = _read_csv(tmp_path / "sup_diffs.csv")
    assert header == ["m", "sup_diff", "bound"]
    assert float(rows[0][1]) == pytest.approx(51.10412965896728, rel=1e-12)
    assert float(rows[1][1]) == pytest.approx(1.1760812183081555, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(158.82009645226074, rel=1e-12)

    det = json.loads((tmp_path / "determining.json").read_text(encoding="utf-8"))
    assert det["m"] == 2
    assert det["chi1_star"][0] == pytest.approx(GYRE_ROOTS[2], rel=1e-13)
    assert det["probes"] >= 2
    assert det["domain_escapes"] > 0


def test_solve_runs_one_scan_for_every_depth(tmp_path, monkeypatch):
    from fracbvp import cli, determine

    rows = []
    run = cli.run_iteration

    def counted(prob, chi1, *args, **kwargs):
        rows.append(len(np.atleast_2d(chi1)))
        return run(prob, chi1, *args, **kwargs)

    monkeypatch.setattr(determine, "run_iteration", counted)
    monkeypatch.setattr(cli, "run_iteration", counted)
    assert main(["solve", "--builtin", "acc-gyre", "--m", "2", "--out", str(tmp_path)]) == 0
    # one lazy scan for depths 0..2: its first batch (points 0-3 and Omega's
    # hi end) at depth 2 brackets depths 2 and 1, and depth 0, whose root lies
    # between points 14 and 15, probes the three further blocks at depth 0;
    # then two Brent points per depth and the final run at chi1*
    assert rows == [5, 4, 4, 3] + [1] * 6 + [1]


# The depth-0 root exists, but every u_1 leaves D = [-1, 1].
STRICT_ESCAPE_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1
    alpha1 = 0
    alpha2 = 0.1
    N = 101

    [domain]
    lo = -1
    hi = 1

    [rhs]
    expr = 40*(t - 0.5)

    [omega_box]
    lo = 3.0
    hi = 3.2

    [bounds]
    M = 20
    K = 0
    """
)


def test_strict_domain_escape_in_the_shared_scan_is_a_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "strict.ini"
    cfg.write_text(STRICT_ESCAPE_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--m", "2", "--force"]) == 3
    captured = capsys.readouterr()
    assert "numerical failure: iterate leaves D by" in captured.err
    # the depth-2 scan leaves D before any depth is solved, so no depth line
    # (the depth-0 root alone would be found: see --m 0) and no chi_trace.csv
    assert "m=0:" not in captured.out
    assert not (out / "chi_trace.csv").exists()
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--m", "0", "--force"]) == 0
    assert "m=0: chi1 = [3.1090111122546999]" in capsys.readouterr().out


# f = 1.7e308 overflows the running integral of the FFT path (N = 1025) in
# the first step; on the direct path (N <= 801) the iterates stay finite.
OVERFLOW_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1
    alpha1 = 1
    alpha2 = 2
    N = 1025
    domain_policy = warn

    [domain]
    lo = 1
    hi = 2

    [rhs]
    expr = 1.7e308 + 0*u1

    [omega_box]
    lo = -3
    hi = 3

    [bounds]
    M = 1
    K = 0
    """
)


@pytest.mark.parametrize("stage", [["solve", "--m", "1"], ["exclude"], ["verify", "--recompute"]])
def test_a_non_finite_iterate_is_a_numerical_failure(tmp_path, capsys, stage):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(OVERFLOW_CFG, encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([*stage, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    # the first interior node, t = 1/1024
    assert "numerical failure: iterate is not finite at t=0.000976562" in capsys.readouterr().err


PROBING_STAGES = (
    ["solve", "--m", "1"],
    ["exclude", "--m", "1", "--subdiv", "4"],
    ["verify", "--m", "1"],
    ["verify", "--recompute", "--m", "1"],
)


@pytest.mark.parametrize(
    "text, codes, message",
    [
        # verify finds no solve outputs (exit 1)
        pytest.param(U0_OVERFLOWS, (3, 3, 1, 3), "iterate is not finite at t=5e+108", id="u0-overflows"),
        pytest.param(H2_UNDERFLOWS, (0, 0, 3, 3),
                     "Caputo residual is not finite at t=5e-202", id="h2-underflows"),
        pytest.param(DELTA_OVERFLOWS, (3, 3, 1, 3), "Delta_m is not finite at chi1=[1", id="delta-overflows"),
    ],
)
def test_a_non_finite_probe_is_a_numerical_failure_in_every_stage(tmp_path, capsys, text, codes, message):
    warnings.simplefilter("error")  # no numpy RuntimeWarning may reach stderr
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text, encoding="utf-8")
    base = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(["check", *base]) == 0
    assert "verdict: conditions hold" in capsys.readouterr().out
    for stage, code in zip(PROBING_STAGES, codes):
        assert main([*stage, *base]) == code, stage
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 3:
            assert captured.err.startswith(f"numerical failure: {message}"), (stage, captured.err)
            assert captured.err.count("\n") == 1 and "kept" not in captured.out
    if codes[1] == 3:
        # a failed sweep certifies no box and writes no table
        assert not (tmp_path / "out" / "boxes.csv").exists()


def test_solve_zero_rhs_exact(tmp_path):
    assert main(["solve", "--builtin", "zero-rhs", "--out", str(tmp_path)]) == 0
    det = json.loads((tmp_path / "determining.json").read_text(encoding="utf-8"))
    assert det["chi1_star"][0] == pytest.approx(1.0, abs=1e-10)
    assert det["converged"] is True
    assert det["domain_escapes"] == 0
    # the fixed point is reached after one step, so only u0 and u1 exist
    header, rows = _read_csv(tmp_path / "iterates.csv")
    assert header == ["t", "u0", "u1"]
    line = np.array([float(r[1]) for r in rows])
    t = np.array([float(r[0]) for r in rows])
    assert np.allclose(line, t, rtol=0, atol=1e-9)


def test_solve_respects_tol(tmp_path):
    assert main(
        ["solve", "--builtin", "acc-gyre", "--out", str(tmp_path), "--m", "6", "--tol", "0.05"]
    ) == 0
    det = json.loads((tmp_path / "determining.json").read_text(encoding="utf-8"))
    assert det["converged"] is True
    _, rows = _read_csv(tmp_path / "sup_diffs.csv")
    assert float(rows[-1][1]) <= 0.05


@pytest.mark.parametrize("source", ["acc-gyre-early-stop", "coupled-bounds"])
def test_sup_diff_bounds_are_the_conditions_q_and_beta(tmp_path, source):
    # the bound of row k is Q^(k-1) beta with Q and beta as conditions.json holds them
    if source == "coupled-bounds":
        cfg = tmp_path / "coupled.ini"
        cfg.write_text(COUPLED_BOUNDS_CFG, encoding="utf-8")
        base, solve, n = ["--config", str(cfg)], ["--m", "2"], 2
    else:
        base, solve, n = ["--builtin", "acc-gyre"], ["--m", "6", "--tol", "0.05"], 1
    base += ["--out", str(tmp_path / "out")]
    assert main(["check", *base]) == 0
    assert main(["solve", *base, *solve]) == 0
    cond = json.loads((tmp_path / "out" / "conditions.json").read_text(encoding="utf-8"))
    Q, beta = np.array(cond["Q"]), np.array(cond["beta"])
    _, rows = _read_csv(tmp_path / "out" / "sup_diffs.csv")
    assert len(rows) == (3 if n == 1 else 2)  # the gyre stops early at m = 3
    for k, row in enumerate(rows):
        assert row[0] == str(k + 1)
        assert row[1 + n :] == ["%.17g" % b for b in np.linalg.matrix_power(Q, k) @ beta]


def test_solve_conditions_gate_and_force(tmp_path, capsys):
    stiff = tmp_path / "stiff.ini"
    stiff.write_text(BAD_RADIUS_CFG, encoding="utf-8")
    assert main(["solve", "--config", str(stiff), "--out", str(tmp_path / "a")]) == 2
    assert "condition failure" in capsys.readouterr().err

    # dbeta fails on the narrow box, but --force lets the run proceed
    narrow = tmp_path / "narrow.ini"
    narrow.write_text(NARROW_WARN_CFG, encoding="utf-8")
    out = tmp_path / "b"
    assert main(["check", "--config", str(narrow), "--out", str(out)]) == 2
    assert main(["solve", "--config", str(narrow), "--out", str(out)]) == 2
    assert main(["solve", "--config", str(narrow), "--out", str(out), "--force"]) == 0
    det = json.loads((out / "determining.json").read_text(encoding="utf-8"))
    assert det["chi1_star"][0] == pytest.approx(0.1, abs=1e-10)


def test_solve_no_bracket_exit(tmp_path, capsys):
    cfg = tmp_path / "nobracket.ini"
    cfg.write_text(
        NARROW_WARN_CFG.replace("lo = -1.0", "lo = 5.0").replace("hi = 1.0", "hi = 6.0"),
        encoding="utf-8",
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path), "--force"]) == 3
    err = capsys.readouterr().err
    assert "no sign change" in err
    # the partial trace file still lands, header only
    header, rows = _read_csv(tmp_path / "chi_trace.csv")
    assert header == ["k", "chi1", "residual"]
    assert rows == []


def test_solve_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--builtin", "acc-gyre", "--out", str(out)]) == 0
    for name in ("chi_trace.csv", "iterates.csv", "sup_diffs.csv", "determining.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _pipeline(out, *extra):
    """check -> solve -> exclude -> verify on the gyre, all exit 0."""
    for stage in (["check"], ["solve"], ["exclude"], ["verify"]):
        assert main([*stage, "--builtin", "acc-gyre", "--out", str(out), *extra]) == 0


def test_each_stage_builds_one_operator_per_kernel_order(tmp_path, operator_builds):
    # p for every iterate and probe, 2 - p for verify's Caputo derivative; each
    # call starts from an empty cache, so a second pipeline builds as many
    want = {
        "check": [],
        "solve": [(401, 1.0, 1.5)],
        "exclude": [(401, 1.0, 1.5)],
        "verify": [(401, 1.0, 0.5), (401, 1.0, 1.5)],
    }
    for out in (tmp_path / "a", tmp_path / "b"):
        for stage, builds in want.items():
            operator_builds.clear()
            assert main([stage, "--builtin", "acc-gyre", "--out", str(out)]) == 0
            assert sorted(operator_builds) == builds, stage


def test_pipeline_outputs_do_not_depend_on_the_operator_cache(tmp_path):
    first, fine, again = tmp_path / "a", tmp_path / "fine", tmp_path / "b"
    _pipeline(first)
    _pipeline(fine, "--grid-n", "6401")
    _pipeline(again)
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
    assert len(names) == 11
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_grid_override_flows_through(tmp_path):
    assert main(
        ["solve", "--builtin", "zero-rhs", "--out", str(tmp_path), "--grid-n", "75"]
    ) == 0
    m = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert m["grid_n"] == 75
    _, rows = _read_csv(tmp_path / "iterates.csv")
    assert len(rows) == 75


# --- exclude --------------------------------------------------------------------


def test_exclude_gyre_thirteen(tmp_path, capsys):
    rc = main(
        ["exclude", "--builtin", "acc-gyre", "--out", str(tmp_path), "--m", "2", "--subdiv", "13"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "kept 8 of 13 boxes at m=2" in out
    assert "existence certificate: inconclusive" in out

    header, rows = _read_csv(tmp_path / "boxes.csv")
    assert header == ["index", "lo", "hi", "center", "abs_delta", "rhs", "keep"]
    keeps = [float(r[-1]) for r in rows]
    assert keeps == [1.0] * 8 + [0.0] * 5
    assert all(float(r[4]) >= 0.0 for r in rows)

    summary = json.loads((tmp_path / "exclusion.json").read_text(encoding="utf-8"))
    assert "survivors" not in summary  # boxes.csv's keep column lists them
    assert summary["boxes"] == 13
    assert summary["kept"] == 8 == keeps.count(1.0)
    assert summary["existence"]["certified"] is False
    assert summary["existence"]["sign_change"] is True
    assert summary["existence"]["tube"] == pytest.approx(8.242068542826146, rel=1e-12)
    assert summary["escaped_probes"] == 13
    assert summary["worst_excess"] == pytest.approx(99.44538549274552, rel=1e-12)
    assert summary["conditional_on_domain"] is True
    assert summary["existence"]["escaped_probes"] == 2
    assert summary["existence"]["worst_excess"] == pytest.approx(99.51849650410465, rel=1e-12)
    assert summary["existence"]["conditional_on_domain"] is True


def _per_box_exclusion(prob, m, n_subdiv, path):
    """boxes.csv (by np.savetxt) and exclusion.json of a sweep, one box at a time."""
    report = check_conditions(prob)
    coeff = _exclusion_coefficient(report)
    tail = delta_gap_bound(report, prob.M, m)
    n = prob.n
    edges = [np.linspace(prob.omega.lo[j], prob.omega.hi[j], n_subdiv + 1) for j in range(n)]
    boxes = [
        Box([edges[j][i[j]] for j in range(n)], [edges[j][i[j] + 1] for j in range(n)])
        for i in np.ndindex(*(n_subdiv,) * n)
    ]
    escapes = []
    deltas = delta_at(prob, np.array([box.center for box in boxes]), m, escapes)
    rows, kept = [], 0
    for i, (box, delta) in enumerate(zip(boxes, deltas)):
        rhs = coeff @ (0.5 * box.width) + tail
        keep = bool(np.all(np.abs(delta) <= rhs))
        rows.append([float(i), *box.lo, *box.hi, *box.center, *np.abs(delta), *rhs, float(keep)])
        kept += keep
    names = ["lo", "hi", "center", "abs_delta", "rhs"]
    header = ",".join(
        ["index", *(c if n == 1 else f"{c}_c{j + 1}" for c in names for j in range(n)), "keep"]
    )
    csv = _savetxt_bytes(path, header, rows)
    summary = {
        "m": m, "subdiv": n_subdiv, "boxes": len(boxes), "kept": kept,
        "coefficient": coeff.tolist(), "tail": tail.tolist(),
        "escaped_probes": len({probe for probe, *_ in escape_rows(escapes)}),
        "worst_excess": max((excess for *_, excess in escape_rows(escapes)), default=0.0),
        "conditional_on_domain": bool(escape_rows(escapes)),
    }
    if n == 1:
        verdict = existence_check_scalar(prob, m)
        summary["existence"] = {
            "certified": verdict.certified,
            "endpoint_deltas": list(verdict.endpoint_deltas),
            "tube": verdict.tube,
            "sign_change": verdict.sign_change,
            "escaped_probes": verdict.escaped_probes,
            "worst_excess": verdict.worst_excess,
            "conditional_on_domain": verdict.escaped_probes > 0,
        }
    return csv, (json.dumps(summary, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "source, n_subdiv",
    [("acc-gyre", 13), ("acc-gyre", 2000), ("coupled", 12)],
    ids=["gyre-13", "gyre-2000-in-13-chunks", "coupled-bounds-12"],
)
def test_exclude_outputs_match_the_per_box_reference(tmp_path, source, n_subdiv):
    if source == "coupled":
        cfg = tmp_path / "coupled.ini"
        cfg.write_text(COUPLED_BOUNDS_CFG, encoding="utf-8")
        prob, args = load_problem(cfg), ["--config", str(cfg)]
    else:
        prob, args = builtin_problem(source), ["--builtin", source]
    out = tmp_path / "out"
    assert main(["exclude", *args, "--out", str(out), "--m", "2", "--subdiv", str(n_subdiv)]) == 0
    csv, summary = _per_box_exclusion(prob, 2, n_subdiv, tmp_path / "ref.csv")
    assert (out / "boxes.csv").read_bytes() == csv
    assert (out / "exclusion.json").read_bytes() == summary


def test_exclude_zero_rhs_certifies(tmp_path, capsys):
    assert main(["exclude", "--builtin", "zero-rhs", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "existence certificate: yes" in out
    summary = json.loads((tmp_path / "exclusion.json").read_text(encoding="utf-8"))
    assert summary["existence"]["certified"] is True
    for part in (summary, summary["existence"]):
        assert (part["escaped_probes"], part["worst_excess"]) == (0, 0.0)
        assert part["conditional_on_domain"] is False
    _, rows = _read_csv(tmp_path / "boxes.csv")
    kept = [(float(lo), float(hi)) for _, lo, hi, *_, keep in rows if float(keep) == 1.0]
    assert summary["kept"] == len(kept) == 2  # the two boxes meeting at chi* = 1
    for lo, hi in kept:
        assert lo <= 1.0 <= hi


# f = 0 with exact bounds, so Delta_m = Delta and the tube is 0; the exact root
# (alpha2 - alpha1)/T = 0.976528974013247 is the edge shared by boxes 2 and 3 at subdiv 5
ROOT_ON_AN_EDGE_CFG = """
[problem]
p = 1.302823758677678
T = 1
alpha1 = -0.114494342050937
alpha2 = 0.86203463196231
N = 21

[domain]
lo = -50
hi = 50

[rhs]
expr = 0

[omega_box]
lo = -0.35716180642916884
hi = 1.8656561609748574

[bounds]
M = 0
K = 0
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_a_box_that_holds_the_exact_root_is_kept(tmp_path):
    # |Delta_m| beats rhs by one and three ulps at the centres of boxes 2 and 3, so
    # today both are discarded while the sign test at Omega's ends certifies a root
    cfg = tmp_path / "edge.ini"
    cfg.write_text(ROOT_ON_AN_EDGE_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["exclude", "--config", str(cfg), "--out", str(out), "--m", "1", "--subdiv", "5"]) == 0
    certified = json.loads((out / "exclusion.json").read_text(encoding="utf-8"))["existence"]["certified"]
    _, rows = _read_csv(out / "boxes.csv")
    kept = [int(row[0]) for row in rows if float(row[-1]) == 1.0]
    assert {2, 3} & set(kept)
    assert kept or not certified


def test_exclude_marks_a_certificate_whose_probes_left_d(tmp_path, capsys):
    # at m=3 both endpoint values of acc-gyre clear the tube, but the
    # iterates behind them leave D
    assert main(
        ["exclude", "--builtin", "acc-gyre", "--out", str(tmp_path), "--m", "3", "--subdiv", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "existence certificate: inconclusive (sign test passes, but 2 probes left D)" in out
    summary = json.loads((tmp_path / "exclusion.json").read_text(encoding="utf-8"))
    assert summary["existence"]["certified"] is False
    assert summary["existence"]["sign_change"] is True
    assert summary["existence"]["conditional_on_domain"] is True


def test_exclude_single_box(tmp_path):
    assert main(
        ["exclude", "--builtin", "acc-gyre", "--out", str(tmp_path), "--subdiv", "1"]
    ) == 0
    _, rows = _read_csv(tmp_path / "boxes.csv")
    assert len(rows) == 1
    assert float(rows[0][-1]) == 1.0


def test_exclude_unchanged_after_a_solve_on_another_grid(tmp_path):
    # each run builds its own integral operator; none leaks into the next
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["exclude", "--builtin", "acc-gyre", "--out", str(first)]) == 0
    assert main(["solve", "--builtin", "acc-gyre", "--grid-n", "201", "--out", str(tmp_path / "s")]) == 0
    assert main(["exclude", "--builtin", "acc-gyre", "--out", str(second)]) == 0
    assert (first / "boxes.csv").read_bytes() == (second / "boxes.csv").read_bytes()


# solve fails on this config: Omega lies right of the root chi* = 1 at every depth
NO_BRACKET_CFG = BUILTIN_PROBLEMS["zero-rhs"][0].replace(
    "[omega_box]\nlo = 0\nhi = 2\n", "[omega_box]\nlo = 2\nhi = 3\n"
)


def _edit_determining(out):
    """Give determining.json an ``ends`` entry whose values would flip the existence verdict."""
    data = json.loads((out / "determining.json").read_text(encoding="utf-8"))
    data["ends"] = {"delta": [-1e6, 1e6], "domain_escapes": [0, 0], "worst_excess": [0.0, 0.0], "key": "0" * 64}
    (out / "determining.json").write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("grid", [401, 6401])
@pytest.mark.parametrize("case", ["solve-m2", "solve-m3", "failed-solve", "edited-determining", "no-solve"])
def test_exclude_outputs_do_not_depend_on_what_ran_before(tmp_path, monkeypatch, case, grid):
    from fracbvp import determine

    cfg = tmp_path / "problem.ini"
    cfg.write_text(NO_BRACKET_CFG if case == "failed-solve" else BUILTIN_PROBLEMS["acc-gyre"][0],
                   encoding="utf-8")
    argv = ["--config", str(cfg), "--grid-n", str(grid)]
    out, ref = tmp_path / "out", tmp_path / "ref"
    if case != "no-solve":
        depth = ["--m", "3" if case == "solve-m3" else "2"]
        assert main(["solve", *argv, *depth, "--out", str(out)]) == (3 if case == "failed-solve" else 0)
    if case == "edited-determining":
        _edit_determining(out)
    rows = []
    run = determine.run_iteration

    def counted(prob, chi1, *args, **kwargs):
        rows.append(len(np.atleast_2d(chi1)))
        return run(prob, chi1, *args, **kwargs)

    monkeypatch.setattr(determine, "run_iteration", counted)
    # the 13 centres and Omega's two ends run as one stack, in chunks of at
    # most 163 rows at N = 401 and 10 at N = 6401; never a 2-row probe of the ends
    chunks = [15] if grid == 401 else [8, 7]
    for directory in (out, ref):
        rows.clear()
        assert main(["exclude", *argv, "--out", str(directory), "--m", "2", "--subdiv", "13"]) == 0
        assert rows == chunks
    for name in ("boxes.csv", "exclusion.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_exclude_checks_the_conditions_once(tmp_path, monkeypatch):
    from fracbvp import determine

    calls = []
    check = cli.check_conditions

    def counted(prob):
        calls.append(1)
        return check(prob)

    # the gate, the sweep's coefficient and tube and the existence tube share one report
    monkeypatch.setattr(cli, "check_conditions", counted)
    monkeypatch.setattr(determine, "check_conditions", counted)
    assert main(["exclude", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


# --- verify ---------------------------------------------------------------------


def test_verify_reads_solve_outputs(tmp_path, capsys):
    assert main(["solve", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sup interior residual at m=2" in out
    assert "note: 3 domain excursion(s) recorded (policy=warn)" in out

    data = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert data["m"] == 2
    assert data["chi1"][0] == pytest.approx(GYRE_ROOTS[2], rel=1e-13)
    assert data["sup_residual"][0] == pytest.approx(0.5444536694928432, rel=1e-9)
    assert data["includes_delta_offset"] is True
    assert data["boundary_residual_left"][0] == 0.0
    assert data["boundary_residual_right"][0] == 0.0

    header, rows = _read_csv(tmp_path / "figure.csv")
    assert header == ["t", "u_0", "u_1", "u_2", "f", "caputo"]
    assert len(rows) == 401
    header, _ = _read_csv(tmp_path / "residuals.csv")
    assert header == ["t", "residual"]


def test_verify_computes_the_caputo_derivative_and_f_once(tmp_path, monkeypatch):
    from fracbvp import verify

    assert main(["solve", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    calls = []

    def counted(values, grid, p):
        calls.append(p)
        return caputo_derivative(values, grid, p)

    monkeypatch.setattr(verify, "caputo_derivative", counted)
    assert main(["verify", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    assert calls == [1.5]


def test_verify_evaluates_f_along_each_iterate_once(tmp_path, monkeypatch):
    from fracbvp import exprlang

    assert main(["solve", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    on_grid = []
    evaluate = exprlang.evaluate

    def counted(exprs, t, u):
        if np.shape(t) == (401,):
            on_grid.append(np.shape(u))
        return evaluate(exprs, t, u)

    monkeypatch.setattr(exprlang, "evaluate", counted)
    assert main(["verify", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    # along u_0 and u_1 in the iteration, then along u_2 once for the
    # residual's f and Delta_2
    assert on_grid == [(1, 401)] * 3


@pytest.mark.parametrize(
    "builtin, escapes, worst",
    [("acc-gyre", 3, 99.41640324513766), ("zero-rhs", 0, 0.0)],
)
def test_solve_and_verify_record_the_domain_escapes(tmp_path, builtin, escapes, worst):
    # both files describe the final run at chi1*, u_0 .. u_2
    assert main(["solve", "--builtin", builtin, "--out", str(tmp_path), "--m", "2"]) == 0
    assert main(["verify", "--builtin", builtin, "--out", str(tmp_path)]) == 0
    for name in ("determining.json", "verify.json"):
        data = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert data["domain_escapes"] == escapes
        assert data["worst_excess"] == pytest.approx(worst, rel=1e-12)
        assert data["conditional_on_domain"] is (escapes > 0)


def test_solve_and_verify_on_the_fft_grid(tmp_path):
    # N=6401 convolves by FFT; references recorded with direct convolution
    # (the residual's 1/h^2 stencil amplifies roundoff, hence 1e-6)
    grid = ["--builtin", "acc-gyre", "--grid-n", "6401", "--out", str(tmp_path)]
    assert main(["solve", *grid, "--m", "2"]) == 0
    det = json.loads((tmp_path / "determining.json").read_text(encoding="utf-8"))
    assert det["chi1_star"][0] == pytest.approx(-332.30223132767003, rel=1e-9)
    assert det["residual"][0] <= 1e-9
    assert main(["verify", *grid]) == 0
    data = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert data["sup_residual"][0] == pytest.approx(0.34996755761989107, rel=1e-6)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"m": 2}', "KeyError: 'chi1_star'"),
        ('{"chi1_star": [-332.3]}', "KeyError: 'm'"),
        ('{"m": 2, "chi1_star": [NaN]}', "chi1_star must be 1 finite number(s), got [nan]"),
        ('{"m": 2, "chi1_star": [1.0, 2.0]}', "chi1_star must be 1 finite number(s), got [1.0, 2.0]"),
        ('{"m": 2, "chi1_star": ["x"]}', "ValueError: could not convert string to float: 'x'"),
        ('{"m": -1, "chi1_star": [-332.3]}', "m must be an integer >= 0, got -1"),
        ('{"m": 2.5, "chi1_star": [-332.3]}', "m must be an integer >= 0, got 2.5"),
        ('{"m": "2", "chi1_star": [-332.3]}', "m must be an integer >= 0, got '2'"),
        ('{"m": 2', "JSONDecodeError"),
        ("[]", "TypeError"),
    ],
    ids=["no-chi1", "no-m", "chi1-nan", "chi1-size", "chi1-text", "m-negative", "m-float", "m-text",
         "not-json", "not-an-object"],
)
def test_verify_rejects_malformed_solve_outputs(tmp_path, capsys, text, message):
    # a missing key, a bad chi1_star or a negative m used to end in a traceback
    (tmp_path / "determining.json").write_text(text, encoding="utf-8")
    assert main(["verify", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed {tmp_path / 'determining.json'}: ")
    assert message in err
    assert not (tmp_path / "verify.json").exists()


def _verify_outputs(out):
    return {name: (out / name).read_bytes() for name in ("figure.csv", "residuals.csv", "verify.json")}


def _source_argv(tmp_path, source):
    if source == "n2":
        (tmp_path / "n2.ini").write_text(COUPLED_BOUNDS_CFG, encoding="utf-8")
        return ["--config", str(tmp_path / "n2.ini")]
    return ["--builtin", "acc-gyre", *(["--grid-n", "6401"] if source == "fft-6401" else [])]


def _edit_a_digit(out):
    """Change the last digit of the u_1 cell on the middle line of iterates.csv."""
    path = out / "iterates.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[len(lines) // 2].split(",")
    cells[2] = cells[2][:-1] + str((int(cells[2][-1]) + 1) % 10)
    lines[len(lines) // 2] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize(
    "source, extra",
    [("acc-gyre", []), ("acc-gyre", ["--recompute"]), ("fft-6401", []), ("n2", [])],
    ids=["acc-gyre", "recompute", "fft-6401", "n2"],
)
def test_verify_outputs_do_not_depend_on_iterates_csv(tmp_path, source, extra):
    # N = 401 convolves directly, N = 6401 by FFT; --recompute finds the same chi1
    argv = _source_argv(tmp_path, source)
    solved = tmp_path / "solved"
    assert main(["solve", *argv, "--out", str(solved)]) == 0
    outputs = {}
    for case, edit in (("present", None), ("missing", lambda out: (out / "iterates.csv").unlink()),
                       ("edited-digit", _edit_a_digit)):
        out = tmp_path / case
        shutil.copytree(solved, out)
        if edit is not None:
            edit(out)
        assert main(["verify", *argv, *extra, "--out", str(out)]) == 0
        outputs[case] = _verify_outputs(out)
    assert (tmp_path / "edited-digit" / "iterates.csv").read_bytes() != (solved / "iterates.csv").read_bytes()
    assert outputs["present"] == outputs["missing"] == outputs["edited-digit"]


def test_verify_without_solve_outputs(tmp_path, capsys):
    assert main(["verify", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 1
    assert "run `fracbvp solve` first or pass --recompute" in capsys.readouterr().err


def test_verify_recompute(tmp_path):
    assert main(
        ["verify", "--builtin", "acc-gyre", "--out", str(tmp_path), "--recompute"]
    ) == 0
    data = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert data["m"] == 2  # default depth when recomputing
    assert data["sup_residual"][0] == pytest.approx(0.5444536694928432, rel=1e-9)


def test_verify_no_delta(tmp_path):
    assert main(
        [
            "verify", "--builtin", "acc-gyre", "--out", str(tmp_path),
            "--recompute", "--no-delta",
        ]
    ) == 0
    data = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert data["includes_delta_offset"] is False


def test_verify_depth_override(tmp_path):
    assert main(["solve", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    assert main(
        ["verify", "--builtin", "acc-gyre", "--out", str(tmp_path), "--m", "0"]
    ) == 0
    data = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert data["m"] == 0
    assert data["sup_residual"][0] > 100.0  # u0 alone is far from solving


# --- CSV writer ---------------------------------------------------------------


def test_write_csv_rows_round_trip_at_17_digits(tmp_path):
    table = np.array(
        [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, 1.0, 1e16], [1 / 3, -2.5, 123456789.0]]
    )
    _write_csv(tmp_path / "t.csv", "a,b,c", table)
    want = "a,b,c\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in table
    )
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    _write_csv(tmp_path / "l.csv", "a,b,c", [list(row) for row in table])
    assert (tmp_path / "l.csv").read_bytes() == want.encode()


def _named_rows(conditions):
    """The (name, value) rows of conditions.csv, rebuilt from conditions.json."""
    n = len(conditions["beta"])
    rows = [(f"beta_{j + 1}", conditions["beta"][j]) for j in range(n)]
    rows.append(("beta_over_m", conditions["beta_over_m"]))
    rows += [(f"Q_{i + 1}{j + 1}", conditions["Q"][i][j]) for i in range(n) for j in range(n)]
    return rows + [("spectral_radius", conditions["spectral_radius"]),
                   ("dbeta_ok", float(conditions["dbeta_ok"])),
                   ("dbeta_centered_ok", float(conditions["dbeta_centered_ok"])),
                   ("R", conditions["R"][0])]


def test_write_csv_named_rows(tmp_path):
    # check writes conditions.csv's named rows itself, one %.17g value each
    assert main(["check", "--builtin", "acc-gyre", "--out", str(tmp_path)]) == 0
    pairs = _named_rows(json.loads((tmp_path / "conditions.json").read_text(encoding="utf-8")))
    want = "quantity,value\n" + "".join(f"{k},{format(v, '.17g')}\n" for k, v in pairs)
    assert (tmp_path / "conditions.csv").read_bytes() == want.encode()


def test_write_csv_empty_table_is_the_header_alone(tmp_path):
    _write_csv(tmp_path / "e.csv", "k,chi1,residual", [])
    assert (tmp_path / "e.csv").read_bytes() == b"k,chi1,residual\n"


def _savetxt_bytes(path, header, rows, fmt="%.17g"):
    """The reference writer: ``np.savetxt``'s bytes for the same table."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=",", header=header, comments="")
    return path.read_bytes()


def _spread_table(rows, cols, seed=0):
    """Values over many decades; special values first, and -inf last of all."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1 / 3]
    flat = table.reshape(-1)
    flat[: len(special)] = special
    flat[-1] = -np.inf
    return table


_EDGE = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, 1.0, 1e16], [1 / 3, -2.5, 123456789.0]])


def _iterates_like(rows):
    """t from 0 to 1 and three iterate-like columns, as iterates.csv holds them."""
    t = np.linspace(0.0, 1.0, rows)
    return np.column_stack([t, 1.0 + t, 1.0 + t + np.sin(7 * t) / 3, -332.30179286902836 * t * (1 - t)])


def _boxes_like(rows):
    """An integer index, lo, hi, center, |Delta| and rhs, and a 0/1 keep column, as in boxes.csv."""
    edges = np.linspace(-335.0, -318.0, rows + 1)
    lo, hi = edges[:-1], edges[1:]
    delta = np.abs(0.5 * (lo + hi) + 332.30179286902836) * 0.3
    return np.column_stack([np.arange(rows), lo, hi, 0.5 * (lo + hi), delta, np.full(rows, 0.0125),
                            delta <= 0.0125])


@pytest.mark.parametrize(
    "rows",
    [
        _EDGE,
        np.array([[np.nan, np.inf, -np.inf], [-np.nan, 1.0, -1e-300]]),
        np.array([[0.5], [-0.0], [np.inf]]),
        np.array([2.5, np.nan, -1e300]),
        [list(row) for row in _EDGE],
        [],
        _spread_table(_BLOCK_VALUES - 1, 1),
        _spread_table(_BLOCK_VALUES, 1),
        _spread_table(_BLOCK_VALUES + 1, 1),
        _spread_table(_BLOCK_VALUES // 4, 4),
        _spread_table(_BLOCK_VALUES // 4 + 1, 4),
        _spread_table(2 * (_BLOCK_VALUES // 3) + 1, 3),
        _iterates_like(2 * (_BLOCK_VALUES // 4) + 3),
        _boxes_like(2000),
    ],
    ids=["edge", "nan-inf", "one-column", "one-d", "list-of-lists", "empty",
         "block-minus-1", "block", "block-plus-1", "block-4-cols", "block-4-cols-plus-row",
         "three-blocks-3-cols", "iterates-like", "boxes-like"],
)
def test_write_csv_is_savetxt_byte_for_byte(tmp_path, rows):
    header = ",".join(f"c{j}" for j in range(np.shape(rows)[-1] if np.ndim(rows) == 2 else 1))
    _write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == _savetxt_bytes(tmp_path / "ref.csv", header, rows)


def test_write_csv_named_rows_are_savetxt_byte_for_byte(tmp_path):
    # the gyre, an n = 2 system and a config whose conditions fail (exit 2)
    for name, text in (("gyre", None), ("n2", COUPLED_BOUNDS_CFG), ("fails", BAD_RADIUS_CFG)):
        out = tmp_path / name
        if text is None:
            source = ["--builtin", "acc-gyre"]
        else:
            (tmp_path / f"{name}.ini").write_text(text, encoding="utf-8")
            source = ["--config", str(tmp_path / f"{name}.ini")]
        assert main(["check", *source, "--out", str(out)]) in (0, 2)
        rows = np.array(_named_rows(json.loads((out / "conditions.json").read_text(encoding="utf-8"))),
                        dtype=object)
        want = _savetxt_bytes(tmp_path / "ref.csv", "quantity,value", rows, fmt="%s,%.17g")
        assert (out / "conditions.csv").read_bytes() == want, name


def test_successive_main_calls_parse_independently(monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "exclude", lambda args: seen.append(vars(args)) or 0)
    assert main(["exclude", "--builtin", "acc-gyre", "--m", "3", "--force", "--subdiv", "5"]) == 0
    assert main(["exclude", "--config", "x.ini"]) == 0
    first, second = seen
    assert (first["m"], first["force"], first["subdiv"], first["builtin"]) == (3, True, 5, "acc-gyre")
    assert (second["m"], second["force"], second["subdiv"], second["builtin"]) == (1, False, 8, None)
    assert second["config"] == "x.ini" and first["config"] is None
    assert cli._build_parser() is cli._build_parser()  # one parser per process
