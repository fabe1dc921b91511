#!/usr/bin/env python3
"""Run the full pipeline on a built-in problem and collect all artifacts.

Equivalent to the four CLI calls

    fracbvp check   --builtin acc-gyre --out OUT
    fracbvp solve   --builtin acc-gyre --out OUT
    fracbvp exclude --builtin acc-gyre --out OUT --m 2 --subdiv 13
    fracbvp verify  --builtin acc-gyre --out OUT

executed in process, stopping at the first nonzero exit code.  ``--grid-n N``
is passed to all four stages (from 1024 nodes on, the running integral
goes through the FFT path).  The output
directory then holds conditions.{json,csv}, chi_trace.csv, iterates.csv,
sup_diffs.csv, determining.json, boxes.csv, exclusion.json, figure.csv,
residuals.csv, verify.json and a manifest.json per stage (last one wins).
"""

import argparse
import sys

from fracbvp.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--builtin", default="acc-gyre", help="built-in problem name")
    ap.add_argument("--out", default="pipeline_out", help="output directory")
    ap.add_argument("--m", type=int, default=2, help="iteration depth for solve/exclude")
    ap.add_argument("--subdiv", type=int, default=13, help="exclusion subdivisions")
    ap.add_argument("--grid-n", type=int, default=None, help="override the grid node count")
    args = ap.parse_args()

    base = ["--builtin", args.builtin, "--out", args.out]
    if args.grid_n is not None:
        base += ["--grid-n", str(args.grid_n)]
    stages = [
        ["check", *base],
        ["solve", *base, "--m", str(args.m)],
        ["exclude", *base, "--m", str(args.m), "--subdiv", str(args.subdiv)],
        ["verify", *base],
    ]
    for argv in stages:
        print(f"\n== fracbvp {' '.join(argv)}")
        rc = cli_main(argv)
        if rc != 0:
            print(f"stage '{argv[0]}' exited with code {rc}; stopping", file=sys.stderr)
            return rc
    print(f"\nall stages complete; artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
