"""Tests of the benchmark itself: traced counts repeat and tracing leaves outputs unchanged.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
import fracbvp  # noqa: E402
from fracbvp import cli, determine, exprlang, fracops, iterate  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

COUNTS = (
    "determine.probes",
    "fracops.quad_builds",
    "exprlang.points",
    "fracops.conv_macs",
    "problem.bound_points",
)
# gyre-sweep with fewer boxes keeps the tests quick; every layer still runs.
SMALL = dataclasses.replace(WORKLOADS["gyre-sweep"], subdiv=40)


def _traced(cfg: Path, out: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.trace_id = 1
    with tracer:
        rec = run.run_pipeline(cli.main, cfg, out, SMALL, tracer)
    metrics, _ = layer_metrics(tracer.spans, rec["bytes"])
    return rec, metrics


@pytest.fixture(scope="module")
def config(tmp_path_factory) -> Path:
    cfg, _ = generate("gyre-sweep", 5, tmp_path_factory.mktemp("cfg"))
    return cfg


def test_traced_counts_repeat_exactly(config, tmp_path):
    rec1, first = _traced(config, tmp_path / "a")
    rec2, second = _traced(config, tmp_path / "b")
    assert set(rec1["codes"].values()) == {0} and set(rec2["codes"].values()) == {0}
    for key in COUNTS:
        assert first[key] > 0, key
        assert first[key] == second[key], key
    # 40 sweep boxes + 2 existence endpoints + the solve probes.
    assert first["determine.probes"] > 42
    assert first["determine.existence_s"] > 0
    assert first["fracops.conv_macs"] == first["fracops.running_rows"] * SMALL.grid_n**2


def test_tracing_leaves_csv_bytes_unchanged(config, tmp_path):
    plain = run.run_pipeline(cli.main, config, tmp_path / "plain", SMALL)
    traced, _ = _traced(config, tmp_path / "traced")
    assert set(plain["codes"].values()) == {0} and set(traced["codes"].values()) == {0}
    csvs = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert len(csvs) == 7
    for name in csvs:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes(), name
    assert traced["problems"] == {s: [] for s in run.STAGE_FILES}


def test_tracer_restores_every_wrapped_function():
    originals = (
        determine.run_iteration, iterate.iterate_step, exprlang.evaluate,
        fracops.ProductTrapezoid.__dict__["running"], cli.check_conditions,
    )
    with Tracer():
        assert determine.run_iteration is not originals[0]
        assert cli.check_conditions is not originals[4]
    restored = (
        determine.run_iteration, iterate.iterate_step, exprlang.evaluate,
        fracops.ProductTrapezoid.__dict__["running"], cli.check_conditions,
    )
    assert all(a is b for a, b in zip(originals, restored))


def test_check_outputs_flags_a_wrong_root(config, tmp_path):
    out = tmp_path / "out"
    rec = run.run_pipeline(cli.main, config, out, SMALL)
    det = json.loads((out / "determining.json").read_text())
    det["chi1_star"] = [det["chi1_star"][0] + 1e-3]
    (out / "determining.json").write_text(json.dumps(det))
    assert run.check_outputs("gyre-sweep", out, rec["codes"])["solve"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded(name, tmp_path):
    a, inputs = generate(name, 3, tmp_path / "a")
    b, _ = generate(name, 3, tmp_path / "b")
    c, _ = generate(name, 4, tmp_path / "c")
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    if name.startswith("gyre"):
        assert -335.0 <= inputs["omega_lo"] <= -333.0
        assert -320.0 <= inputs["omega_hi"] <= -318.0
    else:
        assert inputs["spectral_radius_exact"] <= 0.5
        assert max(inputs["slope_bound"]) < 4.0


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "gyre-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("m", [0, 1, 2])
def test_gyre_has_one_sign_change_where_the_seed_moves_omega(m):
    prob = fracbvp.builtin_problem("acc-gyre")
    prob = dataclasses.replace(prob, N=SMALL.grid_n)
    values = [determine.delta_at(prob, x, m)[0] for x in np.linspace(-336.0, -316.0, 161)]
    assert np.count_nonzero(np.diff(np.sign(values))) == 1
