"""Closed-loop runner, span tracer and summary statistics for the benchmark.

The tracer wraps module attributes of the package from outside: a call made
through ``module.function`` (or a method looked up on its class) opens a span
that records its layer, its parent span, the workload and the operation it
ran under. Nothing in the package itself is changed, and every wrapper is
removed again when tracing stops.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Standard percentiles tried from the highest down; one is reported only when
# at least ten samples lie beyond it, so a tail is never read off fewer.
PERCENTILES = (99.0, 95.0, 90.0, 75.0)
MIN_TAIL = 10


def summarize(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile with >= 10 samples beyond it.

    With fewer than 40 samples no percentile qualifies and only the median is
    reported.
    """
    arr = np.asarray(values, dtype=np.float64)
    out = {"median": float(np.median(arr)) if arr.size else float("nan"), "n": int(arr.size)}
    for p in PERCENTILES:
        if arr.size * (100.0 - p) / 100.0 >= MIN_TAIL:
            out[f"p{p:g}"] = float(np.percentile(arr, p))
            break
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    workload: str
    op: str
    start_ns: int
    end_ns: int = 0
    count: int | None = None     # a tally recorded at the boundary (tape nodes, workers)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; ``wrap`` patches an attribute, ``uninstall`` restores them all."""

    def __init__(self, workload: str):
        self.workload = workload
        self.op = "setup"
        self.enabled = True          # off while checks run, so they leave no spans
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, layer=layer, name=name,
                    workload=self.workload, op=self.op, start_ns=time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``before(args)`` runs before the span opens and its return value is kept
        as the span's count; ``after(span, args, result)`` runs once the span is
        closed. Tallies taken there (such as counting tape nodes) therefore
        stay out of the span's own time.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name or f"{layer}.{attr}"

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            count = before(args) if before is not None else None
            span = self.open(layer, label)
            span.count = count
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of its interval that its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, cursor, s.start_ns)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration_ns - covered
    return out


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0               # the failed operations whose output failed its check
    round_seconds: list[float] = field(default_factory=list)  # rounds with no failure
    setup_seconds: list[float] = field(default_factory=list)  # one set-up per round
    work: dict = field(default_factory=dict)     # unit -> [amount, seconds], successful ops
    failures: list[str] = field(default_factory=list)


def run_closed_loop(round_ops, seconds: float, setup, release=lambda: None,
                    tracer: Tracer | None = None,
                    result: LoopResult | None = None) -> LoopResult:
    """Run whole rounds of operations back to back until ``seconds`` have passed.

    Each round starts with a fresh ``setup()``, timed on its own, so set-up
    is sampled across the whole run like the operations are. ``release()``
    runs first, untimed, so the previous round's inputs are freed before
    the next are built and peak memory does not count both.
    ``round_ops`` is a list of (name, fn) pairs. Each ``fn()`` returns
    ``(unit, amount, check)``: the work it completed, such as ("epochs", 7), and
    a ``check()`` that returns None when the output is correct and a message
    otherwise. An operation that raises or fails its check counts as failed
    (one that fails its check also as ``wrong``), and the loop goes on with
    the next one. Only the calls are timed: checks run outside the timed
    interval, with tracing paused.
    """
    result = result or LoopResult()
    t_end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = "setup"
        release()
        t0 = time.perf_counter()
        setup()
        result.setup_seconds.append(time.perf_counter() - t0)
        round_time = 0.0
        round_ok = True
        for name, fn in round_ops:
            if tracer is not None:
                tracer.op = name
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                unit, amount, check = fn()
                elapsed = time.perf_counter() - t0
                round_time += elapsed
                if tracer is not None:
                    tracer.enabled = False
                problem = check()
                if problem is not None:
                    result.wrong += 1
            except Exception:
                problem = traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.enabled = True
            if problem is not None:
                result.failed += 1
                result.failures.append(f"{name}: {problem}")
                round_ok = False
                continue
            tally = result.work.setdefault(unit, [0.0, 0.0])
            tally[0] += amount
            tally[1] += elapsed
        if round_ok:
            result.round_seconds.append(round_time)
        if time.perf_counter() >= t_end:
            return result


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without the dict mode, or no BLAS entry
        return {"name": None, "version": None}


def _git_revision(root) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, seed: int) -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "thread_caps": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "SHRED_THREADS")},
            "git_revision": _git_revision(root), "seed": seed,
            "argv": sys.argv[1:]}


def write_json(path, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
