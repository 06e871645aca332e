"""In-memory span tracing for the traced benchmark pass.

``install`` wraps the public functions of each ``bwmberry`` layer (and
``numpy.linalg.eigh``) in place, in every namespace that holds them: the
defining module, every ``bwmberry`` module that imported the name with
``from .x import``, and dict values such as ``cli._COMMANDS``.  A span is
``(id, name, start, end, parent, point, raised, count)``; spans are kept
in a list and written out once the run ends.  Each thread keeps its own
span stack.  A span opened on a worker thread with an empty stack takes
as parent the innermost span open on the main thread, so the spans of
``cli``'s thread pool nest under the command that started it.

Stdlib only: the child process imports this before ``bwmberry``.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    point: int | None
    raised: bool
    count: int


class Tracer:
    """Collects spans from wrapped calls; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._points = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._anchor: int | None = None

    def wrap(self, name: str, fn: Callable, count: Callable | None = None, new_point: bool = False) -> Callable:
        """Return ``fn`` wrapped so that each call records one span.

        ``count(args, kwargs, result)`` gives the span's work count;
        ``new_point`` starts a new point id that nested spans inherit.
        """
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, point = stack[-1]
            else:
                parent, point = tracer._anchor, None
            sid = next(tracer._ids)
            if new_point:
                point = next(tracer._points)
            on_main = threading.get_ident() == tracer._main_thread
            if on_main:
                tracer._anchor = sid
            stack.append((sid, point))
            raised = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if on_main:
                    tracer._anchor = parent
                n = count(args, kwargs, result) if count is not None and not raised else 0
                tracer.spans.append(Span(sid, name, start, end, parent, point, raised, int(n)))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


@dataclass(frozen=True)
class Target:
    """One function to trace: where it is defined and the span name it records."""

    module: str
    attr: str
    span: str
    count: Callable | None = None
    new_point: bool = False


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value) if hasattr(value, "__len__") else 1
    n = 1
    for dim in shape:
        n *= dim
    return n


def _phases(args, kwargs, result) -> int:
    return _size(args[0] if args else kwargs["phis"])


def _matrices(args, kwargs, result) -> int:
    shape = getattr(args[0] if args else kwargs["a"], "shape", (3, 3))
    n = 1
    for dim in shape[:-2]:
        n *= dim
    return n


def _loop_steps(args, kwargs, result) -> int:
    phis, _, _ = result
    return len(phis)


def _rows(args, kwargs, result) -> int:
    return len(result)


def targets() -> list[Target]:
    """The traced functions, grouped by the layer named in the span."""
    out = [
        Target("bwmberry.spin", "hamiltonian_stack", "spin.hamiltonian_stack", _phases),
        Target("bwmberry.spin", "hamiltonian", "spin.hamiltonian"),
        Target("bwmberry.spin", "ladder_ops", "spin.ladder_ops"),
        Target("numpy.linalg", "eigh", "linalg.eigh", _matrices),
        Target("bwmberry.berry", "berry_wilson_loop", "berry.berry_wilson_loop"),
        Target("bwmberry.berry", "loop_eigenframes", "berry.loop_eigenframes", _loop_steps),
        Target("bwmberry.berry", "pancharatnam_phase", "berry.pancharatnam_phase"),
        Target("bwmberry.berry", "berry_closed", "berry.berry_closed"),
        Target("bwmberry.berry", "figure_data", "berry.figure_data", _rows),
        Target("bwmberry.algebra", "check_bwm_suite", "algebra.check_bwm_suite"),
        Target("bwmberry.algebra", "check_tla", "algebra.check_tla"),
        Target("bwmberry.yangbaxter", "ybe_residual", "yangbaxter.ybe_residual"),
        Target("bwmberry.yangbaxter", "make_r_u", "yangbaxter.make_r_u"),
        Target("bwmberry.matrices", "hermitian_eigs", "matrices.hermitian_eigs"),
        Target("bwmberry.matrices", "inverse", "matrices.inverse"),
        Target("bwmberry.matrices", "rel_residual", "matrices.rel_residual"),
        Target("bwmberry.cli", "build_config", "cli.build_config"),
    ]
    out += [Target("bwmberry.cli", f"cmd_{c}", "cli.cmd") for c in ("verify", "spectrum", "berry", "figure")]
    out += [
        Target("bwmberry.cli", f"_{p}_point", "cli.point", new_point=True)
        for p in ("bwm", "tla", "ybe", "casimir", "spectrum", "berry")
    ]
    return out


def _rebind(namespace: dict, original, replacement) -> None:
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = replacement
        elif isinstance(value, dict) and not key.startswith("__"):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = replacement


def install(tracer: Tracer, wanted: list[Target] | None = None) -> list[str]:
    """Wrap every target in place; return ``module.attr`` of the targets not found.

    A target whose module or attribute no longer exists is skipped, so a
    later refactor shows up as absent metrics instead of a crash.
    """
    absent = []
    for t in wanted if wanted is not None else targets():
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            absent.append(f"{t.module}.{t.attr}")
            continue
        original = getattr(module, t.attr, None)
        if not callable(original):
            absent.append(f"{t.module}.{t.attr}")
            continue
        wrapped = tracer.wrap(t.span, original, count=t.count, new_point=t.new_point)
        namespaces = [vars(module)] + [
            vars(m) for n, m in list(sys.modules.items()) if n == "bwmberry" or n.startswith("bwmberry.")
        ]
        for ns in namespaces:
            _rebind(ns, original, wrapped)
    return absent


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover.

    Children from worker threads may overlap each other, so the covered
    part is the length of the union of the child intervals, clipped to
    the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    count: int = 0
    raised: int = 0


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: calls, summed self and inclusive time, summed counts, raises."""
    selfs = self_times(spans)
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.self_s += selfs[s.id]
        st.incl_s += s.end - s.start
        st.count += s.count
        st.raised += s.raised
    return dict(stats)
