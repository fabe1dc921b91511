"""A fresh interpreter runs the whole pipeline without importing scipy.

The package needs only numpy: the FFT convolution uses ``numpy.fft``, the
root search ports Brent's method and the bound sampling of n > 2 systems
draws its Latin hypercube from ``numpy.random``, so no stage pays scipy's
import time.  The M and K record's ``bounds_key`` is the list of its inputs,
compared for equality, so keying it loads no ``hashlib`` and OpenSSL either:
only ``numpy.random``, which a check that samples an n >= 3 system imports,
loads them.  No timing is asserted; the module lists are the check.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import fracbvp

SRC = Path(fracbvp.__file__).resolve().parents[1]

# Two weakly coupled components.  Bounds are supplied: sampling them on the
# 200^3 mesh takes seconds per stage.  The gyre stages sample M and K on
# their n = 1 mesh, which takes the same n <= 2 branch.
COUPLED_CFG = textwrap.dedent(
    """
    [problem]
    p = 1.5
    T = 1
    alpha1 = 0.0 0.0
    alpha2 = 0.5 -0.5
    N = 201
    domain_policy = warn

    [domain]
    lo = -3.0 -3.0
    hi = 3.0 3.0

    [rhs]
    expr = 0.4*u1 + 0.25*sin(u2) + 0.45*exp(-t); 0.3*cos(u1) - 0.4*u2 + 0.2*t^2

    [omega_box]
    lo = -4.0 -4.0
    hi = 4.0 4.0

    [bounds]
    M = 1.9 1.7
    K = 0.4 0.25 0.3 0.4
    """
)

# Three uncoupled components without [bounds]: check samples M and K on
# Latin-hypercube points, and the later stages reuse its record.
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

# argv: the src directory, then JSON lists of the sources and of the stages
# each source runs, in order
CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    from fracbvp.cli import main
    def watched():
        return {m for m in sys.modules
                if m.partition(".")[0] in ("scipy", "hashlib", "_hashlib") or m == "numpy.random"}
    codes, loaded = [], []
    for source in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in json.loads(sys.argv[3]):
                before = watched()
                codes.append(main([*stage, *source]))
                loaded.append(sorted(watched() - before))
    print(json.dumps({"codes": codes, "modules": loaded, "fracbvp": sys.modules["fracbvp"].__file__}))
    """
)

PIPELINE = [["check"], ["solve"], ["exclude", "--subdiv", "13"], ["verify"]]


def _child(sources: list, stages: list) -> dict:
    """Run ``stages`` on each of ``sources`` in a fresh interpreter; its exit
    codes and, per stage, the scipy, hashlib, _hashlib and numpy.random
    modules that stage imported first."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), json.dumps(sources), json.dumps(stages)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert Path(result["fracbvp"]).resolve().parents[1] == SRC
    return result


def test_pipeline_imports_no_scipy(tmp_path):
    cfg, three = tmp_path / "coupled.ini", tmp_path / "three.ini"
    cfg.write_text(COUPLED_CFG, encoding="utf-8")
    three.write_text(THREE_CFG, encoding="utf-8")
    sources = [
        ["--builtin", "acc-gyre", "--out", str(tmp_path / "gyre")],
        # 1024 nodes: the running integral goes through the FFT path
        ["--builtin", "acc-gyre", "--grid-n", "1024", "--out", str(tmp_path / "gyre_fft")],
        ["--config", str(cfg), "--out", str(tmp_path / "coupled")],
        ["--config", str(three), "--out", str(tmp_path / "three")],
    ]
    result = _child(sources, PIPELINE)
    assert result["codes"] == [0] * 16
    # the keyed check, solve and exclude of every run load no hashlib; only the
    # n = 3 check's Latin hypercube imports numpy.random, whose bit generators
    # load hashlib through secrets and hmac
    expected = [[]] * 16
    expected[12] = ["_hashlib", "hashlib", "numpy.random"]
    assert result["modules"] == expected
    for out in ("gyre", "gyre_fft", "coupled", "three"):
        assert (tmp_path / out / "verify.json").is_file()
    # the n = 3 check sampled M and K on its Latin-hypercube points
    conditions = json.loads((tmp_path / "three" / "conditions.json").read_text(encoding="utf-8"))
    assert conditions["bounds_source"] == "sampled"

