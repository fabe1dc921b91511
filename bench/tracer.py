"""Out-of-tree span tracer for the fracbvp layers.

``Tracer.install()`` wraps the public functions the pipeline goes
through, from outside the package: each target is replaced in every
``fracbvp`` module that holds it by name (``determine`` imports
``run_iteration`` by name, so the wrapper goes on
``determine.run_iteration`` too), and class methods are replaced on the
class.  ``uninstall()`` puts the originals back, so untraced and traced
pipelines can share one process.

Spans are kept in memory as ``Span`` records with a parent id; self time is the
span's duration minus the durations of its direct children (the pipeline
is single-threaded, so children never overlap).  Work is counted in
chi1 values rather than calls where a function takes a parameter, so a
later batched probe counts the same work as the serial one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


def _chi_count(prob, chi) -> int:
    return max(1, int(np.size(chi)) // prob.n)


def _count_evaluate(args, kwargs, result) -> dict:
    exprs = args[0]
    return {"points": int(np.size(result)) // max(1, len(exprs))}


def _count_running(args, kwargs, result) -> dict:
    self, values = args[0], np.asarray(args[1])
    rows = 1 if values.ndim == 1 else values.shape[0]
    # np.convolve of an N-point row with the N-point weight vector
    # computes the full product: N * N multiply-adds per row.
    return {"rows": rows, "macs": rows * values.shape[-1] * self.grid.N}


def _count_chi(position: int):
    """Counter for a function taking (prob, ..., chi1 at ``position``, ...)."""

    def count(args, kwargs, result) -> dict:
        chi = args[position] if len(args) > position else kwargs["chi1"]
        return {"chi": _chi_count(args[0], chi)}

    return count


def _count_run_iteration(args, kwargs, result) -> dict:
    return {**_count_chi(1)(args, kwargs, result), "escaped": int(bool(result.escapes))}


def _count_sweep(args, kwargs, result) -> dict:
    return {"boxes": len(result.subsets), "kept": len(result.survivors)}


# (module, attribute path, counter).  The attribute is looked up on the
# module that defines it; every fracbvp module holding the same object is
# patched as well.
TARGETS = (
    ("problem", "resolve_bounds", None),
    ("problem", "estimate_bounds", None),
    ("exprlang", "evaluate", _count_evaluate),
    ("fracops", "ProductTrapezoid.__init__", None),
    ("fracops", "ProductTrapezoid.running", _count_running),
    ("fracops", "caputo_derivative", None),
    ("iterate", "run_iteration", _count_run_iteration),
    ("iterate", "iterate_step", _count_chi(2)),
    ("determine", "delta_at", _count_chi(1)),
    ("determine", "delta_m", None),
    ("determine", "solve_determining", None),
    ("determine", "exclusion_sweep", _count_sweep),
    ("determine", "existence_check_scalar", None),
    ("conditions", "check_conditions", None),
    ("verify", "residuals", None),
    ("verify", "emit_figure_data", None),
)


@dataclass(slots=True)
class Span:
    sid: int
    parent: int  # 0 for a root span
    trace: int  # one trace per pipeline
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans around the wrapped fracbvp functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.trace_id = 0

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else 0
        span = Span(len(self.spans) + 1, parent, self.trace_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, counts: dict | None = None) -> None:
        span.end = time.perf_counter()
        span.counts = counts
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = counter(args, kwargs, result) if counter and result is not None else None
                tracer.close(span, counts)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fracbvp" or key.startswith("fracbvp."))
        ]
        for mod_name, attr, counter in TARGETS:
            module = importlib.import_module(f"fracbvp.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for holder in modules:
                if holder.__dict__.get(attr) is original:
                    self._patch(holder, attr, original, wrapper)

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """One CSV line per span: id, parent, trace, name, start, end, self, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid,parent,trace,name,start_s,end_s,self_s,counts\n")
            for s in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in (s.counts or {}).items())
                fh.write(
                    f"{s.sid},{s.parent},{s.trace},{s.name},{s.start:.9f},{s.end:.9f},"
                    f"{s.self_s:.9f},{counts}\n"
                )


def layer_metrics(spans: list[Span], stage_bytes: dict[str, int]) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced pipeline, and its per-probe times.

    ``spans`` are the spans of one trace; ``stage_bytes`` maps each CLI
    stage to the bytes of output files it wrote.  The probe-time
    percentiles are left to the caller, which pools the probes of every
    traced pipeline.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    parent_of = {s.sid: s for s in spans}

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name: str, key: str) -> int:
        return sum(s.counts[key] for s in by_name.get(name, ()) if s.counts)

    def self_of(layer: str) -> float:
        return sum(s.self_s for s in spans if s.layer == layer)

    def under(span: Span, ancestor: str) -> bool:
        p = parent_of.get(span.parent)
        while p is not None:
            if p.name == ancestor:
                return True
            p = parent_of.get(p.parent)
        return False

    evals = by_name.get("exprlang.evaluate", [])
    points = count("exprlang.evaluate", "points")
    evaluate_s = total("exprlang.evaluate")
    probes = by_name.get("determine.delta_at", [])
    probe_times = [s.duration / s.counts["chi"] for s in probes if s.counts for _ in range(s.counts["chi"])]
    solves = by_name.get("determine.solve_determining", [])
    solve_probes = sum(s.counts["chi"] for s in probes if s.counts and under(s, "determine.solve_determining"))
    sweep_boxes = count("determine.exclusion_sweep", "boxes")
    sweep_kept = count("determine.exclusion_sweep", "kept")
    steps = by_name.get("iterate.iterate_step", [])

    m = {
        "problem.estimate_bounds_s": total("problem.estimate_bounds"),
        "problem.bound_points": sum(
            s.counts["points"] for s in evals if s.counts and under(s, "problem.estimate_bounds")
        ),
        "problem.resolve_calls": len(by_name.get("problem.resolve_bounds", [])),
        "exprlang.evaluate_calls": len(evals),
        "exprlang.evaluate_s": evaluate_s,
        "exprlang.points": points,
        "exprlang.ns_per_point": 1e9 * evaluate_s / points if points else 0.0,
        "fracops.quad_builds": len(by_name.get("fracops.ProductTrapezoid.__init__", [])),
        "fracops.quad_build_s": total("fracops.ProductTrapezoid.__init__"),
        "fracops.running_calls": len(by_name.get("fracops.ProductTrapezoid.running", [])),
        "fracops.running_rows": count("fracops.ProductTrapezoid.running", "rows"),
        "fracops.running_s": total("fracops.ProductTrapezoid.running"),
        "fracops.conv_macs": count("fracops.ProductTrapezoid.running", "macs"),
        "fracops.caputo_s": total("fracops.caputo_derivative"),
        "iterate.runs": count("iterate.run_iteration", "chi"),
        "iterate.steps": count("iterate.iterate_step", "chi"),
        "iterate.step_self_s": sum(s.self_s for s in steps),
        "iterate.escape_runs": count("iterate.run_iteration", "escaped"),
        "determine.probes": len(probe_times),
        "determine.probes_per_solve": solve_probes / len(solves) if solves else 0.0,
        "determine.sweep_s_per_box": total("determine.exclusion_sweep") / sweep_boxes if sweep_boxes else 0.0,
        "determine.excluded_ratio": (sweep_boxes - sweep_kept) / sweep_boxes if sweep_boxes else 0.0,
        "determine.existence_s": total("determine.existence_check_scalar"),
        "determine.self_s": self_of("determine"),
        "conditions.calls": len(by_name.get("conditions.check_conditions", [])),
        "conditions.check_s": total("conditions.check_conditions"),
        "verify.residuals_s": total("verify.residuals"),
        "verify.figure_s": total("verify.emit_figure_data"),
    }
    for stage, nbytes in stage_bytes.items():
        m[f"cli.{stage}.self_s"] = sum(s.self_s for s in by_name.get(f"cli.{stage}", []))
        m[f"cli.{stage}.bytes_out"] = nbytes
    return m, probe_times
