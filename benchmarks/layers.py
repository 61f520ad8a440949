"""Where the traced run puts its spans, and how per-layer metrics are read off them.

The layers are the package modules. Spans wrap the public functions each
module offers to the others (and the CLI's command handlers), patched in from
outside; a call made inside ``shred.train`` is seen because ``train`` looks
the function up on its module at call time.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from harness import Span, Tracer, self_times_ns, summarize
from shredkit import cli, data, evaluation, nets, shred, sindy
from shredkit import diffcore as dc

# Per-layer metrics and their units; README.md says what each one times.
# Every workload reports all of them: calls its operations never make are
# timed by the workload's probes (``Workload.probe``).
PER_LAYER = {
    "nets.encode_ms": "ms",
    "nets.encoder_nodes": "count",
    "nets.decode_ms": "ms",
    "nets.encode_np_ms": "ms",
    "nets.decode_np_ms": "ms",
    "diffcore.backward_ms": "ms",
    "diffcore.tape_nodes": "count",
    "diffcore.backward_us_per_node": "us",
    "diffcore.adamw_ms": "ms",
    "sindy.dynamics_ms": "ms",
    "sindy.dynamics_nodes": "count",
    "sindy.rollout_us_per_step": "us",
    "sindy.stlsq_ms": "ms",
    "sindy.library_eval_us": "us",
    "shred.batch_ms": "ms",
    "shred.batch_remainder_ms": "ms",
    "shred.select_ms": "ms",
    "shred.checkpoint_save_ms": "ms",
    "shred.checkpoint_load_ms": "ms",
    "shred.checkpoint_bytes": "count",
    "evaluation.forecast_ms": "ms",
    "evaluation.loss_eval_ms": "ms",
    "evaluation.pool_workers": "count",
    "cli.forecast_overhead_ms": "ms",
    "data.generate_ms": "ms",
    "data.make_windows_ms": "ms",
    "data.load_field_ms": "ms",
    "trace.overhead_pct": "%",
}


def tape_nodes(roots) -> set[int]:
    """Ids of recorded (non-leaf) graph nodes reachable from ``roots``."""
    seen: set[int] = set()
    stack = [r for r in roots if r.op is not None]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node.parents if p.op is not None)
    return seen


class NodeCounter:
    """Counts tape nodes per batch just before ``backward`` frees the tape."""

    def __init__(self):
        self.encoded: list[tuple[Span, object]] = []
        self.dynamics: list[tuple[Span, object, list]] = []

    def after_encode(self, span, args, result):
        if result.op is not None:
            self.encoded.append((span, result))

    def after_dynamics(self, span, args, result):
        if result.op is not None:
            inputs = list(args[0]) if isinstance(args[0], list) else [args[0], args[1]]
            self.dynamics.append((span, result, inputs))

    def before_backward(self, args):
        for span, latents in self.encoded:
            span.count = len(tape_nodes([latents]))
        for span, out, inputs in self.dynamics:
            span.count = len(tape_nodes([out]) - tape_nodes(inputs))
        self.encoded.clear()
        self.dynamics.clear()
        return len(tape_nodes([args[0]]))


def _set_count(fn):
    def after(span, args, result):
        span.count = fn(args, result)
    return after


def install(tracer: Tracer) -> None:
    counter = NodeCounter()
    w = tracer.wrap
    for name in ("gen_modal_field", "make_windows", "load_field", "save_field"):
        w(data, name, "data")
    w(nets, "encode_window", "nets", after=counter.after_encode)
    w(nets, "decode", "nets")
    w(dc, "backward", "diffcore", before=counter.before_backward)
    w(dc.AdamW, "step", "diffcore", name="diffcore.AdamW.step")
    for name in ("ensemble_sindy_loss", "koopman_loss"):
        w(sindy, name, "sindy", after=counter.after_dynamics)
    for name in ("sindy_cell", "rollout", "fit_stlsq"):
        w(sindy, name, "sindy")
    w(sindy, "evaluate_library", "sindy",
      after=_set_count(lambda args, r: int(np.atleast_2d(args[0]).shape[0])))
    for name in ("train", "combined_loss", "select_discovered_model", "load_checkpoint"):
        w(shred, name, "shred")
    w(shred, "save_checkpoint", "shred",
      after=_set_count(lambda args, r: os.path.getsize(args[3])))
    w(shred.ShredModel, "encode_np", "shred", name="shred.ShredModel.encode_np",
      after=_set_count(lambda args, r: int(np.asarray(args[1]).shape[0])))
    w(shred.ShredModel, "decode_np", "shred", name="shred.ShredModel.decode_np")
    # evaluation holds its own binding of combined_loss (the landscape loss).
    w(evaluation, "combined_loss", "shred", name="shred.combined_loss")
    for name in ("forecast", "landscape_scan", "landscape_segments",
                 "theory_scaling_experiment"):
        w(evaluation, name, "evaluation")
    w(evaluation, "worker_count", "evaluation", after=_set_count(lambda args, r: int(r)))
    for name in ("main", "cmd_forecast", "cmd_landscape", "cmd_validate_theory"):
        w(cli, name, "cli")


# ---------------------------------------------------------------------------
# Reading metrics off the spans
# ---------------------------------------------------------------------------

def _ms(ns) -> float:
    return ns / 1e6


def layer_metrics(spans: list[Span], overhead_pct: float) -> dict[str, dict]:
    """Summaries (median, percentile when >= 40 samples, n) for every PER_LAYER metric."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def parent_name(s: Span) -> str | None:
        return by_id[s.parent].name if s.parent is not None else None

    def named(name, where=None):
        return [s for s in spans if s.name == name and (where is None or where(s))]

    samples: dict[str, list[float]] = defaultdict(list)

    # Training batches: combined_loss, backward and AdamW.step called by train.
    in_train = [s for s in spans if parent_name(s) == "shred.train"]
    current = None
    for s in in_train:
        if s.name == "shred.combined_loss":
            current = {"loss": s}
        elif current is not None and s.name == "diffcore.backward":
            current["backward"] = s
        elif current is not None and s.name == "diffcore.AdamW.step" and "backward" in current:
            loss, bwd = current["loss"], current["backward"]
            parts = {c.name: c for c in children[loss.id]}
            enc = parts.get("nets.encode_window")
            dec = parts.get("nets.decode")
            dyn = parts.get("sindy.ensemble_sindy_loss") or parts.get("sindy.koopman_loss")
            batch = loss.duration_ns + bwd.duration_ns + s.duration_ns
            samples["shred.batch_ms"].append(_ms(batch))
            samples["diffcore.backward_ms"].append(_ms(bwd.duration_ns))
            samples["diffcore.adamw_ms"].append(_ms(s.duration_ns))
            samples["diffcore.tape_nodes"].append(bwd.count)
            samples["diffcore.backward_us_per_node"].append(bwd.duration_ns / 1e3 / bwd.count)
            accounted = bwd.duration_ns + s.duration_ns
            for key, part in (("nets.encode_ms", enc), ("nets.decode_ms", dec),
                              ("sindy.dynamics_ms", dyn)):
                if part is not None:
                    samples[key].append(_ms(part.duration_ns))
                    accounted += part.duration_ns
            if enc is not None and enc.count is not None:
                samples["nets.encoder_nodes"].append(enc.count)
            if dyn is not None and dyn.count is not None:
                samples["sindy.dynamics_nodes"].append(dyn.count)
            samples["shred.batch_remainder_ms"].append(_ms(batch - accounted))
            current = None

    for s in named("shred.ShredModel.encode_np", lambda s: s.count >= 512):
        samples["nets.encode_np_ms"].append(_ms(s.duration_ns) * 512 / s.count)
    simple = {"nets.decode_np_ms": "shred.ShredModel.decode_np",
              "sindy.stlsq_ms": "sindy.fit_stlsq",
              "shred.select_ms": "shred.select_discovered_model",
              "shred.checkpoint_save_ms": "shred.save_checkpoint",
              "shred.checkpoint_load_ms": "shred.load_checkpoint",
              "evaluation.forecast_ms": "evaluation.forecast",
              "data.make_windows_ms": "data.make_windows",
              "data.load_field_ms": "data.load_field"}
    for key, name in simple.items():
        samples[key].extend(_ms(s.duration_ns) for s in named(name))
    samples["data.generate_ms"].extend(_ms(s.duration_ns) for s in named("data.gen_modal_field"))
    samples["sindy.rollout_us_per_step"].extend(
        s.duration_ns / 1e3 for s in named("sindy.sindy_cell"))
    samples["sindy.library_eval_us"].extend(
        s.duration_ns / 1e3 for s in named("sindy.evaluate_library",
                                           lambda s: s.op == "probe" and s.parent is None))
    samples["shred.checkpoint_bytes"].extend(s.count for s in named("shred.save_checkpoint"))
    samples["evaluation.pool_workers"].extend(s.count for s in named("evaluation.worker_count"))
    samples["evaluation.loss_eval_ms"].extend(
        _ms(s.duration_ns) for s in named("shred.combined_loss", lambda s: parent_name(s) in
                                          ("evaluation.landscape_scan",
                                           "evaluation.landscape_segments")))
    for s in named("cli.cmd_forecast"):
        inner = sum(c.duration_ns for c in children[s.id] if c.name == "evaluation.forecast")
        samples["cli.forecast_overhead_ms"].append(_ms(s.duration_ns - inner))
    samples["trace.overhead_pct"].append(overhead_pct)

    return {key: summarize(samples.get(key, [])) for key in PER_LAYER}


def self_time_by_layer(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time in ms per layer, split by the operation the spans ran under."""
    selfs = self_times_ns(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s.op][s.layer] += _ms(selfs[s.id])
    return {op: dict(layers) for op, layers in out.items()}
