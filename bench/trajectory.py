#!/usr/bin/env python3
"""Record one trajectory point: every workload over ten seeds, plus a traced run.

Run from the root of a source checkout:

    python3 bench/trajectory.py --label seed

For each workload, including ``coupled-bounds``, which BENCHMARK.json does
not declare, it runs ``bench/run.py`` once per seed in SEEDS with
tracing off, then once with tracing on, and writes
``bench/trajectory/BENCH_<label>.json`` with, per end-to-end metric, the
median of the per-run values and their quartile spread
(q3 - q1) / median, as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    import numpy

    point = {
        "label": args.label,
        "seconds": args.seconds,
        "seeds": list(SEEDS),
        "hardware": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": {},
    }
    for name in sorted(WORKLOADS):
        runs = []
        for seed in point["seeds"]:
            runs.append(_run(name, seed, args.seconds, 0))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr, flush=True)
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[key] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "values": values,
            }
        traced = _run(name, 1, args.seconds, 1)
        point["workloads"][name] = {
            "declared": name in {w["name"] for w in spec["workloads"]},
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for key, m in metrics.items():
            print(f"{name:15s} {key:16s} median {m['median']:.6g} {m['unit']}  spread {m['spread']:.3f}")
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
