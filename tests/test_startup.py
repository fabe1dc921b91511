"""A fresh interpreter runs the whole pipeline without importing scipy.

For n <= 2 the package needs only numpy: the FFT convolution uses
``numpy.fft`` and the root search ports Brent's method, so no stage pays
scipy's import time.  Only the bound sampling of n > 2 systems imports
``scipy.stats.qmc``.  No timing is asserted; the module list is the check.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import fracbvp

SRC = Path(fracbvp.__file__).resolve().parents[1]

# Two weakly coupled components.  Bounds are supplied: sampling them on the
# 200^3 mesh takes seconds per stage, so the child samples once, sparsely.
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

CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    from fracbvp.cli import main
    from fracbvp.problem import estimate_bounds, load_problem
    codes = []
    for source in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()):
            for stage, extra in (("check", []), ("solve", []), ("exclude", ["--subdiv", "13"]), ("verify", [])):
                codes.append(main([stage, *source, *extra]))
    estimate_bounds(load_problem(sys.argv[3], resolve=False), samples=1000)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"codes": codes, "scipy": loaded, "fracbvp": sys.modules["fracbvp"].__file__}))
    """
)


def test_pipeline_imports_no_scipy(tmp_path):
    cfg = tmp_path / "coupled.ini"
    cfg.write_text(COUPLED_CFG, encoding="utf-8")
    sources = [
        ["--builtin", "acc-gyre", "--out", str(tmp_path / "gyre")],
        # 1024 nodes: the running integral goes through the FFT path
        ["--builtin", "acc-gyre", "--grid-n", "1024", "--out", str(tmp_path / "gyre_fft")],
        ["--config", str(cfg), "--out", str(tmp_path / "coupled")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), json.dumps(sources), str(cfg)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert Path(result["fracbvp"]).resolve().parents[1] == SRC
    assert result["codes"] == [0] * 12
    assert result["scipy"] == []
    for out in ("gyre", "gyre_fft", "coupled"):
        assert (tmp_path / out / "verify.json").is_file()
