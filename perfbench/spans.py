"""Span tracing of the package's public functions, from outside the package.

Tracing rebinds module attributes to wrappers for the duration of a ``with
instrument(tracer):`` block and restores them afterwards; no package file is
edited.  ``run_sweep`` solves points on pool threads whose span stacks are
empty, so spans opened there attach to the ``run_sweep`` span that is open
at the time.  Layer times are derived from the spans after the fact.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call of one traced function."""

    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to call from pool threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._anchor: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, *, anchor=False, info=None):
        """Return ``func`` recording a span per call.

        ``anchor`` marks the span that spans from threads with no open span
        of their own attach to.  ``info(args, result)`` returns fields to
        store on the span; it also sees the partial solution an exception
        carries in ``.solution``.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, time.perf_counter(), math.nan, threading.get_ident(),
                        stack[-1] if stack else self._anchor)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            previous_anchor = self._anchor
            if anchor:
                self._anchor = index
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "solution", None)
                if info is not None and partial is not None:
                    span.info.update(info(args, partial))
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if anchor:
                    self._anchor = previous_anchor
            if info is not None:
                span.info.update(info(args, result))
            return result

        return traced


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that any child span covers.

    Children on pool threads overlap each other; the union is subtracted
    once, so self time is the wall time during which no child was running.
    """
    return span.duration - covered_length(
        [(c.start, c.end) for c in children], span.start, span.end
    )


def _steady_info(args, solution):
    diag = solution.diagnostics
    return {
        "residual": float(solution.residual_norm),
        "cond": float(diag.condition_estimate),
        "near_degenerate": bool(diag.near_degenerate),
    }


def _assemble_info(args, liou):
    return {"dim": int(liou.shape[0]), "nnz": int(liou.nnz)}


def _evolve_info(args, rho):
    return {"n_atoms": args[0].space.n_subsystems - 1}


def _sweep_info(args, records):
    return {"points": len(records)}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced functions of ``cavity_eit`` to recording wrappers."""
    from cavity_eit import cli, liouville, sweep

    targets = [
        (cli, "main", "cli", {}),
        (cli, "run_sweep", "sweep", {"anchor": True, "info": _sweep_info}),
        (cli, "convergence_study", "converge", {}),
        (cli, "find_extrema", "extrema", {}),
        (sweep, "steady_state", "steady_state", {"info": _steady_info}),
        (sweep, "build_model", "model", {}),
        (sweep, "atomic_response", "semiclassical", {}),
        (sweep, "transmission_semiclassical", "semiclassical", {}),
        (liouville, "build_superoperator", "assemble", {"info": _assemble_info}),
        (liouville, "liouvillian_apply", "residual", {}),
        (liouville, "evolve", "evolve", {"info": _evolve_info}),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    saved_builders = dict(sweep._BUILDERS)
    try:
        for module, attr, name, options in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), **options))
        # run_sweep looks builders up in this table, filled with direct
        # references at import, so rebinding the module names misses them.
        for scheme, builder in saved_builders.items():
            sweep._BUILDERS[scheme] = tracer.wrap("model", builder)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
        sweep._BUILDERS.update(saved_builders)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over a list of spans (one traced round or more)."""
    by_parent: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    def total(name, pred=lambda s: True):
        return sum(s.duration for _, s in named(name) if pred(s))

    def total_self(name):
        return sum(self_time(s, by_parent.get(i, [])) for i, s in named(name))

    steady = named("steady_state")
    steady_ids = {i for i, _ in steady}
    assembled = [s for _, s in named("assemble")]
    sweeps = named("sweep")
    sweep_wall = sum(s.duration for _, s in sweeps)
    sweep_busy = sum(c.duration for i, _ in sweeps for c in by_parent.get(i, []))
    return {
        "model.build_s": total("model"),
        "model.build_calls": len(named("model")),
        "liouville.assemble_s": total("assemble"),
        "liouville.assemble_calls": len(assembled),
        "liouville.solve_self_s": total_self("steady_state"),
        "liouville.residual_s": total("residual", lambda s: s.parent in steady_ids),
        "liouville.dim_max": max((s.info["dim"] for s in assembled), default=0),
        "liouville.nnz_max": max((s.info["nnz"] for s in assembled), default=0),
        "liouville.evolve_n1_s": total("evolve", lambda s: s.info.get("n_atoms") == 1),
        "liouville.evolve_n2_s": total("evolve", lambda s: s.info.get("n_atoms") == 2),
        "liouville.max_residual": max((s.info.get("residual", 0.0) for _, s in steady), default=0.0),
        "liouville.max_cond": max((s.info.get("cond", 0.0) for _, s in steady), default=0.0),
        "liouville.near_degenerate": sum(bool(s.info.get("near_degenerate")) for _, s in steady),
        "semiclassical.s": total("semiclassical"),
        "sweep.self_s": total_self("sweep"),
        "sweep.busy_s": sweep_busy,
        "sweep.wall_s": sweep_wall,
        "sweep.busy_over_wall": sweep_busy / sweep_wall if sweep_wall > 0 else 0.0,
        "sweep.points": sum(s.info.get("points", 0) for _, s in sweeps),
        "sweep.extrema_s": total("extrema"),
        "sweep.converge_s": total("converge"),
        "cli.self_s": total_self("cli"),
    }


def combine(layer_dicts) -> dict[str, float]:
    """Layer metrics of several runs: maxima stay maxima, the rest add up."""
    out: dict[str, float] = {}
    for layers in layer_dicts:
        for name, value in layers.items():
            if "max" in name:
                out[name] = max(out.get(name, value), value)
            else:
                out[name] = out.get(name, 0) + value
    wall = out.get("sweep.wall_s", 0.0)
    out["sweep.busy_over_wall"] = out.get("sweep.busy_s", 0.0) / wall if wall > 0 else 0.0
    return out
