"""Command-line entry point.

Subcommands: check | solve | exclude | verify | example-list.  Every
run writes a ``manifest.json`` next to its outputs recording the
command, the config source, and all effective numeric settings, so a
run can be reproduced bit-for-bit (CSV payloads contain no clocks).

Exit codes: 0 success, 1 config error, 2 solvability conditions failed,
3 numerical failure (no root bracket, Newton stall, domain escape).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fracops
from .conditions import BoundUndefinedError, check_conditions
from .determine import (
    NonConvergenceError,
    NoRootBracketError,
    SolverConfig,
    exclusion_sweep,
    existence_check_scalar,
    solve_depths,
    solve_determining,
)
from .exprlang import ExprEvalError, ExprSyntaxError
from .iterate import DomainEscapeError, _escape_stats, run_iteration
from .problem import BUILTIN_PROBLEMS, Problem, ProblemError, builtin_problem, load_problem, resolve_bounds
from .verify import emit_figure_data, residuals

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITIONS = 2
EXIT_NUMERICAL = 3


class ConditionFailure(RuntimeError):
    """Solvability conditions do not hold and --force was not given."""


@dataclasses.dataclass
class RunManifest:
    command: str
    source: str
    grid_n: int
    m: int | None
    tol: float | None
    subdiv: int | None
    seed: int
    version: str
    timestamp: str

    def write(self, out_dir: Path) -> None:
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n", encoding="utf-8")


_BLOCK_VALUES = 2**16


def _write_csv(path: Path, header: str, rows, fmt: str = "%.17g") -> None:
    """Header line, then one line per row; floats round-trip at 17 digits.

    The bytes are ``np.savetxt``'s (one ``fmt`` per column, or ``fmt`` as
    the whole row when it has several fields; a 1-D table is one column),
    but each block of at most ``_BLOCK_VALUES`` values is formatted by one
    ``%`` over Python floats instead of one per row.
    """
    table = np.asarray(rows)
    if table.ndim == 1:
        table = table.reshape(-1, 1)
    ncols = table.shape[1]
    line = (",".join([fmt] * ncols) if fmt.count("%") == 1 else fmt) + "\n"
    block = max(1, _BLOCK_VALUES // ncols)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), block):
            part = table[start : start + block]
            fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def _suffixed(base: str, n: int) -> list[str]:
    return [base] if n == 1 else [f"{base}_c{j + 1}" for j in range(n)]


def _load(args) -> tuple[Problem, str]:
    if bool(args.config) == bool(args.builtin):
        raise ProblemError("exactly one of --config PATH or --builtin NAME is required")
    # every stage loads first, so these are rejected before any output
    if getattr(args, "m", None) is not None and args.m < 0:
        raise ProblemError(f"--m must be >= 0, got {args.m}")
    if getattr(args, "subdiv", 1) < 1:
        raise ProblemError(f"--subdiv must be >= 1, got {args.subdiv}")
    if args.seed < 0:
        raise ProblemError(f"--seed must be >= 0, got {args.seed}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ProblemError(f"--tol must be a finite number >= 0, got {tol}")
    if args.builtin:
        prob = builtin_problem(args.builtin, resolve=False)
        source = f"builtin:{args.builtin}"
    else:
        prob = load_problem(args.config, resolve=False)
        source = str(args.config)
    if args.grid_n is not None:
        prob = dataclasses.replace(prob, N=args.grid_n)
    return resolve_bounds(prob, seed=args.seed), source


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, command: str, source: str, prob: Problem, **extra) -> RunManifest:
    return RunManifest(
        command=command,
        source=source,
        grid_n=prob.N,
        m=extra.get("m"),
        tol=extra.get("tol"),
        subdiv=extra.get("subdiv"),
        seed=args.seed,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _gate_conditions(prob: Problem, force: bool):
    report = check_conditions(prob)
    if not report.ok and not force:
        raise ConditionFailure(
            f"solvability conditions fail (spectral radius {report.spectral_radius:.6g}, "
            f"certified bound {report.radius_bound:.6g}, "
            f"dbeta_ok={report.dbeta_ok}); rerun with --force to proceed anyway"
        )
    return report


def _domain_summary(result) -> dict:
    """Domain-escape fields of an exclusion or existence result for JSON."""
    return {
        "escaped_probes": result.escaped_probes,
        "worst_excess": result.worst_excess,
        "conditional_on_domain": result.escaped_probes > 0,
    }


def _escape_summary(approx) -> dict:
    """Domain-escape fields of the iteration run a JSON file describes."""
    return {
        "domain_escapes": len(approx.escapes),
        "worst_excess": _escape_stats([approx.escapes])[1],
        "conditional_on_domain": bool(approx.escapes),
    }


def _note_escapes(approx) -> None:
    if approx.escapes:
        print(f"note: {len(approx.escapes)} domain excursion(s) recorded (policy=warn)")


# --- Subcommands -------------------------------------------------------

def cmd_check(args) -> int:
    prob, source = _load(args)
    out = _out_dir(args)
    report = check_conditions(prob)
    _manifest(args, "check", source, prob).write(out)
    (out / "conditions.json").write_text(
        json.dumps({"problem": source, **report.to_dict()}, indent=2) + "\n", encoding="utf-8"
    )
    n = report.n
    table = [(f"beta_{j + 1}", report.beta[j]) for j in range(n)]
    table.append(("beta_over_m", report.beta_over_m))
    table += [(f"Q_{i + 1}{j + 1}", report.Q[i, j]) for i in range(n) for j in range(n)]
    table += [("spectral_radius", report.spectral_radius), ("dbeta_ok", float(report.dbeta_ok)),
              ("dbeta_centered_ok", float(report.dbeta_centered_ok)), ("R", report.R[0])]
    _write_csv(out / "conditions.csv", "quantity,value", np.array(table, dtype=object), fmt="%s,%.17g")
    print(f"problem: {source} (n={prob.n}, p={prob.p}, T={prob.T}, N={prob.N})")
    print(f"M = {np.array2string(report.M, precision=6)}   K max = {np.max(report.K):.6g}")
    print(f"beta (raw) = {np.array2string(report.beta, precision=6)}   beta/M = {report.beta_over_m:.6f}")
    print(f"spectral radius r(Q) = {report.spectral_radius:.6f}  (certified bound "
          f"{report.radius_bound:.6f} {'< 1 ok' if report.radius_bound < 1 else '>= 1 FAIL'})")
    print(f"D_beta nonempty ({report.dbeta_basis} basis): {'yes' if report.dbeta_ok else 'NO'}"
          f"   [alpha1-centered raw-beta ball inside D: {'yes' if report.dbeta_centered_ok else 'no'}]")
    print(f"verdict: {'conditions hold' if report.ok else 'conditions FAIL'}")
    return EXIT_OK if report.ok else EXIT_CONDITIONS


def cmd_solve(args) -> int:
    prob, source = _load(args)
    out = _out_dir(args)
    _gate_conditions(prob, args.force)
    manifest = _manifest(args, "solve", source, prob, m=args.m, tol=args.tol)
    manifest.write(out)
    solver = SolverConfig()
    n = prob.n
    trace_rows = []
    roots = []
    failure: Exception | None = None
    try:
        for k, res in enumerate(solve_depths(prob, args.m, solver)):
            roots.append(res)
            trace_rows.append([float(k), *res.chi1_star, *res.residual])
            chi_txt = ", ".join(f"{c:.17g}" for c in res.chi1_star)
            print(f"m={k}: chi1 = [{chi_txt}]  |Delta_m| = {np.max(res.residual):.3g}")
    except (NoRootBracketError, NonConvergenceError) as exc:
        failure = exc
    header = ",".join(["k", *_suffixed("chi1", n), *_suffixed("residual", n)])
    _write_csv(out / "chi_trace.csv", header, trace_rows)
    if failure is not None:
        print(f"solve failed at outer step {len(roots)}: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL

    final = roots[-1]
    approx = run_iteration(prob, final.chi1_star, m_max=args.m, tol=args.tol if args.tol is not None else 0.0)
    iter_header = ["t"]
    for k in range(len(approx.iterates)):
        iter_header += _suffixed(f"u{k}", n)
    cols = [approx.final.grid.nodes] + [it.values[j] for it in approx.iterates for j in range(n)]
    _write_csv(out / "iterates.csv", ",".join(iter_header), np.column_stack(cols))
    sd_header = ",".join(["m", *_suffixed("sup_diff", n), *_suffixed("bound", n)])
    sd_rows = [
        [float(k + 1), *approx.sup_diffs[k], *approx.bounds_used[k]]
        for k in range(len(approx.sup_diffs))
    ]
    _write_csv(out / "sup_diffs.csv", sd_header, sd_rows)
    (out / "determining.json").write_text(
        json.dumps(
            {
                "m": args.m,
                "chi1_star": final.chi1_star.tolist(),
                "residual": final.residual.tolist(),
                "converged": approx.converged,
                "chi_trace": [r.chi1_star.tolist() for r in roots],
                "probes": len(final.solver_trace),
                **_escape_summary(approx),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    _note_escapes(approx)
    return EXIT_OK


def cmd_exclude(args) -> int:
    prob, source = _load(args)
    out = _out_dir(args)
    _gate_conditions(prob, args.force)
    _manifest(args, "exclude", source, prob, m=args.m, subdiv=args.subdiv).write(out)
    result = exclusion_sweep(prob, args.m, args.subdiv)
    n = prob.n
    header = ",".join(
        ["index", *_suffixed("lo", n), *_suffixed("hi", n), *_suffixed("center", n),
         *_suffixed("abs_delta", n), *_suffixed("rhs", n), "keep"]
    )
    lo, hi = result.subsets[:, 0], result.subsets[:, 1]
    table = np.column_stack([np.arange(len(lo)), lo, hi, 0.5 * (lo + hi), np.abs(result.delta),
                             result.rhs, result.keep])
    _write_csv(out / "boxes.csv", header, table)
    summary = {
        "m": args.m,
        "subdiv": args.subdiv,
        "boxes": len(result.subsets),
        "kept": len(result.survivors),
        "survivors": result.survivors.tolist(),
        "coefficient": result.coefficient.tolist(),
        "tail": result.tail.tolist(),
        **_domain_summary(result),
    }
    if n == 1:
        verdict = existence_check_scalar(prob, args.m)
        summary["existence"] = {
            "certified": verdict.certified,
            "endpoint_deltas": list(verdict.endpoint_deltas),
            "tube": verdict.tube,
            "sign_change": verdict.sign_change,
            **_domain_summary(verdict),
        }
    (out / "exclusion.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"kept {len(result.survivors)} of {len(result.subsets)} boxes at m={args.m}")
    if n == 1:
        answer = "yes" if verdict.certified else "inconclusive"
        if all(verdict.cleared) and verdict.sign_change and verdict.escaped_probes:
            answer += f" (sign test passes, but {verdict.escaped_probes} probes left D)"
        print(f"existence certificate: {answer}")
    return EXIT_OK


def cmd_verify(args) -> int:
    prob, source = _load(args)
    out = _out_dir(args)
    det_path = out / "determining.json"
    if args.recompute or not det_path.exists():
        if not args.recompute:
            print(
                f"no solve outputs in {out} (missing determining.json): "
                "run `fracbvp solve` first or pass --recompute",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        _gate_conditions(prob, args.force)
        res = solve_determining(prob, args.m, SolverConfig())
        chi = res.chi1_star
        m = args.m
    else:
        data = json.loads(det_path.read_text(encoding="utf-8"))
        chi = np.asarray(data["chi1_star"], dtype=float)
        m = args.m if args.m is not None else int(data["m"])
    _manifest(args, "verify", source, prob, m=m).write(out)
    approx = run_iteration(prob, chi, m_max=m, tol=0.0)
    report = residuals(prob, approx, include_delta=not args.no_delta)
    header, table = emit_figure_data(prob, approx, report)
    _write_csv(out / "figure.csv", header, table)
    res_header = ",".join(["t", *_suffixed("residual", prob.n)])
    _write_csv(
        out / "residuals.csv",
        res_header,
        np.column_stack([report.residual_grid.grid.nodes, report.residual_grid.values.T]),
    )
    (out / "verify.json").write_text(
        json.dumps({"m": m, "chi1": chi.tolist(), **report.to_dict(), **_escape_summary(approx)},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"sup interior residual at m={m}: {np.max(report.sup_residual):.6g} "
          f"(delta offset {'included' if report.includes_delta_offset else 'omitted'})")
    print(f"boundary residuals: {np.max(report.boundary_residuals[0]):.3g} / "
          f"{np.max(report.boundary_residuals[1]):.3g}")
    _note_escapes(approx)
    return EXIT_OK


def cmd_example_list(_args) -> int:
    for name in sorted(BUILTIN_PROBLEMS):
        print(f"{name}: {BUILTIN_PROBLEMS[name][1]}")
    return EXIT_OK


# --- Argument wiring ----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbvp",
        description="Successive-approximation solver for Caputo fractional "
        "Dirichlet problems: condition checks, parameter search, exclusion, "
        "and residual verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="problem config file")
    common.add_argument("--builtin", metavar="NAME", help="built-in example name (see example-list)")
    common.add_argument("--grid-n", type=int, default=None, help="override grid node count")
    common.add_argument("--seed", type=int, default=0, help="seed for bound-estimation sampling")
    common.add_argument("--out", default="fracbvp_out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common], help="evaluate solvability conditions")

    p_solve = sub.add_parser("solve", parents=[common], help="root-solve the determining equation")
    p_solve.add_argument("--m", type=int, default=2, help="outer iteration depth (default 2)")
    p_solve.add_argument("--tol", type=float, default=None, help="sup-difference stop for the final iteration")
    p_solve.add_argument("--force", action="store_true", help="proceed even if conditions fail")

    p_excl = sub.add_parser("exclude", parents=[common], help="filter parameter boxes by necessity")
    p_excl.add_argument("--m", type=int, default=1, help="iteration depth for Delta_m (default 1)")
    p_excl.add_argument("--subdiv", type=int, default=8, help="subdivisions per axis (default 8)")
    p_excl.add_argument("--force", action="store_true", help="proceed even if conditions fail")

    p_verify = sub.add_parser("verify", parents=[common], help="a-posteriori residual check")
    p_verify.add_argument("--m", type=int, default=None, help="iteration depth (default: from solve outputs)")
    p_verify.add_argument("--recompute", action="store_true", help="solve inline instead of reading outputs")
    p_verify.add_argument("--no-delta", action="store_true", help="compare against f alone, without Delta_m")
    p_verify.add_argument("--force", action="store_true", help="proceed even if conditions fail")

    sub.add_parser("example-list", help="list built-in example problems")
    return parser


_COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "exclude": cmd_exclude,
    "verify": cmd_verify,
    "example-list": cmd_example_list,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # each call starts from an empty operator cache, so the work a stage does
    # never depends on what ran before it in the same process
    fracops.operator.cache_clear()
    if args.command == "verify" and args.recompute and args.m is None:
        args.m = 2
    try:
        return _COMMANDS[args.command](args)
    except (ProblemError, ExprSyntaxError, ExprEvalError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConditionFailure, BoundUndefinedError) as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS
    except (NoRootBracketError, NonConvergenceError, DomainEscapeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
