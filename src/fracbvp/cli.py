"""Command-line entry point.

Subcommands: check | solve | exclude | verify | example-list.  Every
run writes a ``manifest.json`` next to its outputs recording the
command, the config source, all effective numeric settings and where
M and K came from, so a run can be reproduced bit-for-bit (CSV
payloads contain no clocks).  Without ``[bounds]``, ``check`` samples
M and K and records them in ``conditions.json`` with ``bounds_key``,
the list of the version, --seed and config text they were sampled for
and of M and K themselves; ``solve``, ``exclude`` and ``verify
--recompute`` in the same --out reuse them when that list equals their
own and sample them otherwise, and plain ``verify`` needs neither.  No
stage reads another's probes: for n = 1 ``exclude`` probes Omega's two
ends for its existence sign test in the sweep's batch.

Exit codes: 0 success, 1 config error, 2 solvability conditions failed,
3 numerical failure (no root bracket, Newton stall, domain escape),
141 stdout closed by its reader (128 + SIGPIPE; files already written stay).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fracops
from .conditions import BoundUndefinedError, check_conditions
from .determine import (
    NonConvergenceError,
    NoRootBracketError,
    exclusion_sweep,
    existence_check_scalar,
    solve_depths,
    solve_determining,
)
from .exprlang import ExprEvalError, ExprSyntaxError
from .iterate import DomainEscapeError, run_iteration
from .problem import (
    BUILTIN_PROBLEMS,
    Problem,
    ProblemError,
    _read_config,
    builtin_problem,
    problem_from_config,
    resolve_bounds,
)
from .verify import emit_figure_data, residuals

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITIONS = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141


class ConditionFailure(RuntimeError):
    """Solvability conditions do not hold and --force was not given."""


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


_BLOCK_VALUES = 2**12
_EXACT_MIN = 256  # measured: below this many values one % is quicker than _g17.cells


def _write_csv(path: Path, header: str, rows) -> None:
    """Header line, then one line per row; floats round-trip at 17 digits.

    The bytes are ``np.savetxt``'s with ``fmt="%.17g"`` (a 1-D table is
    one column).  Each block of at most ``_BLOCK_VALUES`` values is turned
    by ``_g17.cells`` into a zero-padded byte matrix, which one compress
    turns into the block's text; a block of fewer than ``_EXACT_MIN``
    values is formatted by one ``%`` over Python floats.
    """
    from . import _g17  # on first use: importing the CLI compiles and runs none of it

    table = np.asarray(rows, dtype=np.float64)
    if table.ndim == 1:
        table = table.reshape(-1, 1)
    nrows, ncols = table.shape
    line = ",".join(["%.17g"] * ncols) + "\n"
    block = max(1, _BLOCK_VALUES // ncols)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for start in range(0, nrows, block):
            part = table[start : start + block]
            if part.size < _EXACT_MIN:
                fh.write(((line * len(part)) % tuple(part.ravel().tolist())).encode("ascii"))
                continue
            cells = _g17.cells(part)
            fh.write(cells[cells != 0].tobytes())


def _suffixed(base: str, n: int) -> list[str]:
    return [base] if n == 1 else [f"{base}_c{j + 1}" for j in range(n)]


def _load(args) -> tuple[Problem, str, str]:
    """The problem as its config gives it (M and K unresolved without
    ``[bounds]``), its source, and the config text, read once."""
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
        source, text = f"builtin:{args.builtin}", BUILTIN_PROBLEMS[args.builtin][0]
    else:
        text = _read_config(args.config)
        prob = problem_from_config(text)
        source = str(args.config)
    if args.grid_n is not None:
        prob = dataclasses.replace(prob, N=args.grid_n)
    return prob, source, text


def _bounds_key(seed: int, text: str, M, K) -> list:
    """What sampled M and K depend on (the version, --seed and the config text,
    but not --grid-n) and M and K themselves, as one JSON list."""
    return [__version__, seed, text, M, K]


def _resolve(args, prob: Problem, text: str, reuse: bool = True) -> tuple[Problem, str]:
    """prob with M and K, and their source: ``supplied`` by ``[bounds]``, else
    (with ``reuse``) those in <out>/conditions.json if its ``bounds_key`` equals
    the one of this config text, --seed and those M and K, else ``sampled``
    here.  JSON floats round-trip, so reused M and K have the sampled bits."""
    if prob.M is not None and prob.K is not None:
        return prob, "supplied"
    if reuse:
        try:
            data = json.loads((Path(args.out) / "conditions.json").read_text(encoding="utf-8"))
            if data["bounds_key"] == _bounds_key(args.seed, text, data["M"], data["K"]):
                return dataclasses.replace(prob, M=data["M"], K=data["K"]), "conditions.json"
        except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError):
            pass  # a missing, unreadable or malformed record is a miss, as a stale one is
    return resolve_bounds(prob, seed=args.seed), "sampled"


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, out: Path, command: str, source: str, prob: Problem, bounds: str,
                    m=None, tol=None, subdiv=None) -> None:
    """<out>/manifest.json: the command, its inputs and effective settings (None
    where the command has no such setting), the version and a UTC timestamp."""
    _write_json(out / "manifest.json", {
        "command": command, "source": source, "grid_n": prob.N, "m": m, "tol": tol,
        "subdiv": subdiv, "seed": args.seed, "bounds_source": bounds,
        "version": __version__, "timestamp": datetime.now(timezone.utc).isoformat(),
    })


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
        "worst_excess": float(approx.escapes.excess.max(initial=0.0)),
        "conditional_on_domain": bool(approx.escapes),
    }


def _note_escapes(approx) -> None:
    if approx.escapes:
        print(f"note: {len(approx.escapes)} domain excursion(s) recorded (policy=warn)")


# --- Subcommands -------------------------------------------------------

def cmd_check(args) -> int:
    prob, source, text = _load(args)
    prob, bounds = _resolve(args, prob, text, reuse=False)
    out = _out_dir(args)
    report = check_conditions(prob)
    _write_manifest(args, out, "check", source, prob, bounds)
    key = _bounds_key(args.seed, text, report.M.tolist(), report.K.tolist())
    _write_json(out / "conditions.json",
                {"problem": source, **report.to_dict(), "bounds_source": bounds, "bounds_key": key})
    n = report.n
    table = [(f"beta_{j + 1}", report.beta[j]) for j in range(n)]
    table.append(("beta_over_m", report.beta_over_m))
    table += [(f"Q_{i + 1}{j + 1}", report.Q[i, j]) for i in range(n) for j in range(n)]
    table += [("spectral_radius", report.spectral_radius), ("dbeta_ok", float(report.dbeta_ok)),
              ("dbeta_centered_ok", float(report.dbeta_centered_ok)), ("R", report.R[0])]
    (out / "conditions.csv").write_text(
        "quantity,value\n" + "".join(f"{name},{value:.17g}\n" for name, value in table),
        encoding="utf-8", newline="\n",
    )
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
    prob, source, text = _load(args)
    prob, bounds = _resolve(args, prob, text)
    out = _out_dir(args)
    report = _gate_conditions(prob, args.force)
    _write_manifest(args, out, "solve", source, prob, bounds, m=args.m, tol=args.tol)
    n = prob.n
    trace_rows = []
    roots = []
    failure: Exception | None = None
    try:
        for k, res in enumerate(solve_depths(prob, args.m)):
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
    tol = args.tol if args.tol is not None else 0.0
    approx = run_iteration(prob, final.chi1_star, m_max=args.m, tol=tol)
    iter_header = ["t"]
    for k in range(len(approx.iterates)):
        iter_header += _suffixed(f"u{k}", n)
    cols = [prob.operator.nodes] + [it[j] for it in approx.iterates for j in range(n)]
    _write_csv(out / "iterates.csv", ",".join(iter_header), np.column_stack(cols))
    # next to each sup|u_k - u_(k-1)| its a-priori bound Q^(k-1) beta
    sd_header = ",".join(["m", *_suffixed("sup_diff", n), *_suffixed("bound", n)])
    sd_rows = [
        [float(k + 1), *diff, *(np.linalg.matrix_power(report.Q, k) @ report.beta)]
        for k, diff in enumerate(approx.sup_diffs)
    ]
    _write_csv(out / "sup_diffs.csv", sd_header, sd_rows)
    record = {
        "m": args.m,
        "chi1_star": final.chi1_star.tolist(),
        "residual": final.residual.tolist(),
        "converged": approx.converged,
        "chi_trace": [r.chi1_star.tolist() for r in roots],
        "probes": len(final.solver_trace),
        **_escape_summary(approx),
    }
    _write_json(out / "determining.json", record)
    _note_escapes(approx)
    return EXIT_OK


def cmd_exclude(args) -> int:
    prob, source, text = _load(args)
    prob, bounds = _resolve(args, prob, text)
    out = _out_dir(args)
    report = _gate_conditions(prob, args.force)
    n = prob.n
    _write_manifest(args, out, "exclude", source, prob, bounds, m=args.m, subdiv=args.subdiv)
    result = exclusion_sweep(prob, args.m, args.subdiv, report)
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
        "coefficient": result.coefficient.tolist(),
        "tail": result.tail.tolist(),
        **_domain_summary(result),
    }
    if n == 1:
        verdict = existence_check_scalar(prob, args.m, report, result.ends)
        summary["existence"] = {
            "certified": verdict.certified,
            "endpoint_deltas": list(verdict.endpoint_deltas),
            "tube": verdict.tube,
            "sign_change": verdict.sign_change,
            **_domain_summary(verdict),
        }
    _write_json(out / "exclusion.json", summary)
    print(f"kept {len(result.survivors)} of {len(result.subsets)} boxes at m={args.m}")
    if n == 1:
        answer = "yes" if verdict.certified else "inconclusive"
        if all(verdict.cleared) and verdict.sign_change and verdict.escaped_probes:
            answer += f" (sign test passes, but {verdict.escaped_probes} probes left D)"
        print(f"existence certificate: {answer}")
    return EXIT_OK


def _solve_outputs(path: Path, n: int) -> tuple[np.ndarray, int]:
    """chi1_star and m of a solve's determining.json; a malformed file is a ProblemError."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        chi, m = np.array(data["chi1_star"], dtype=float), data["m"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ProblemError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc
    if chi.shape != (n,) or not np.all(np.isfinite(chi)):
        raise ProblemError(
            f"malformed {path}: chi1_star must be {n} finite number(s), got {data['chi1_star']!r}"
        )
    if type(m) is not int or m < 0:
        raise ProblemError(f"malformed {path}: m must be an integer >= 0, got {m!r}")
    return chi, m


def cmd_verify(args) -> int:
    prob, source, text = _load(args)
    out = _out_dir(args)
    det_path = out / "determining.json"
    bounds = "unused"  # the iteration and the residuals need neither M nor K
    if args.recompute:
        prob, bounds = _resolve(args, prob, text)
        _gate_conditions(prob, args.force)
        m = 2 if args.m is None else args.m
        chi = solve_determining(prob, m).chi1_star
    elif det_path.exists():
        chi, m = _solve_outputs(det_path, prob.n)
        m = m if args.m is None else args.m
    else:
        print(
            f"no solve outputs in {out} (missing determining.json): "
            "run `fracbvp solve` first or pass --recompute",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    _write_manifest(args, out, "verify", source, prob, bounds, m=m)
    approx = run_iteration(prob, chi, m_max=m, tol=0.0)
    report = residuals(prob, approx, include_delta=not args.no_delta)
    header, table = emit_figure_data(prob, approx, report)
    res_header = ",".join(["t", *_suffixed("residual", prob.n)])
    res_table = np.column_stack([prob.operator.nodes, report.residual_grid.T])
    _write_csv(out / "figure.csv", header, table)
    _write_csv(out / "residuals.csv", res_header, res_table)
    _write_json(out / "verify.json",
                {"m": m, "chi1": chi.tolist(), **report.to_dict(), **_escape_summary(approx)})
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built once per process: parsing keeps
    no state, each call gets a new namespace."""
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
    p_verify.add_argument("--m", type=int, default=None,
                          help="iteration depth (default: from solve outputs, 2 with --recompute)")
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
    try:
        # numpy's warnings stay off stderr: every value that is not finite is
        # checked where it is made, and fails the stage with one line below
        with np.errstate(all="ignore"):
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to devnull,
        # so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
