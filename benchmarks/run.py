#!/usr/bin/env python3
"""Benchmark entry point.

    python3 benchmarks/run.py --workload modal-discovery --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 45

Run from the root of a checkout; the package is imported from ``src/``. One
run makes whole rounds of the workload's operations back to back for
``--seconds``, each round after a fresh set-up of the workload's inputs
(``setup_s`` is the median set-up time), and checks every output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends the first half of ``--seconds`` on the untraced loop and
the second half on the same loop with spans around every layer call, then
reports the per-layer metrics and the tracing overhead. The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the
environment, goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# End-to-end metrics and their units; directions and bounds live in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("modal-discovery", "evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """Single-threaded BLAS and a thm1 pool of one worker per core, for this process tree."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["SHRED_THREADS"] = str(len(os.sched_getaffinity(0)))


def fmt_summary(s: dict) -> str:
    tail = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
    return f"median {s['median']:.6g}{tail} (n={s['n']})"


def run_workload(args) -> dict:
    import harness
    import layers
    import workloads

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = harness.Tracer(args.workload) if args.trace else None
        ops = wl.round_ops()
        loop = harness.LoopResult()
        if tracer is None:
            harness.run_closed_loop(ops, args.seconds, wl.setup, wl.release, result=loop)
            rounds = loop.round_seconds
        else:
            # Half the time untraced, half traced: the overhead is their difference.
            harness.run_closed_loop(ops, args.seconds / 2, wl.setup, wl.release, result=loop)
            untraced = list(loop.round_seconds)
            layers.install(tracer)
            harness.run_closed_loop(ops, args.seconds / 2, wl.setup, wl.release,
                                    tracer=tracer, result=loop)
            rounds = loop.round_seconds[len(untraced):]
            tracer.op = "probe"
            wl.probe()
            tracer.uninstall()
        for failure in loop.failures:
            print(f"FAILED {failure}", file=sys.stderr)

        summaries = {}
        if tracer is None:
            summaries["setup_s"] = harness.summarize(loop.setup_seconds)
            summaries["round_s"] = harness.summarize(rounds)
            summaries["peak_rss_mb"] = harness.summarize([harness.peak_rss_mb()])
            units = END_TO_END
        else:
            overhead = (harness.summarize(rounds)["median"]
                        / harness.summarize(untraced)["median"] - 1.0) * 100.0
            summaries = layers.layer_metrics(tracer.spans, overhead)
            units = layers.PER_LAYER
        rates = {unit: amount / seconds for unit, (amount, seconds) in loop.work.items()
                 if seconds > 0}

        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              f"{loop.attempted} operations attempted, {loop.failed} failed")
        for name, s in summaries.items():
            print(f"  {name:30s} {fmt_summary(s)} {units[name]}")
        for unit, rate in rates.items():
            print(f"  {unit + ' per second':30s} {rate:.6g}")
        if tracer is not None and summaries["shred.batch_ms"]["n"]:
            batch = summaries["shred.batch_ms"]["median"]
            split = ", ".join(
                f"{key.split('.')[1][:-3]} {summaries[key]['median']:.2f} "
                f"({100 * summaries[key]['median'] / batch:.0f}%)"
                for key in ("nets.encode_ms", "nets.decode_ms", "sindy.dynamics_ms",
                            "diffcore.backward_ms", "diffcore.adamw_ms",
                            "shred.batch_remainder_ms"))
            print(f"  training batch split (median ms): {split} of {batch:.2f}")
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "attempted": loop.attempted, "failed": loop.failed,
                  "summaries": summaries, "units": units, "rates_per_s": rates,
                  "setup_s_samples": loop.setup_seconds,
                  "round_s_samples": loop.round_seconds,
                  "failures": loop.failures,
                  "environment": harness.environment(ROOT, args.seed)}
        if tracer is not None:
            by_layer = layers.self_time_by_layer(tracer.spans)
            print("  self time by layer (ms, summed over the run):")
            for op_kind, per_layer in sorted(by_layer.items()):
                row = ", ".join(f"{k} {v:.1f}" for k, v in sorted(per_layer.items()))
                print(f"    {op_kind}: {row}")
            record["self_ms_by_op_and_layer"] = by_layer
            record["spans"] = [[s.id, s.parent, s.layer, s.name, s.op, s.start_ns, s.end_ns,
                                s.count] for s in tracer.spans]
            record["span_columns"] = ["id", "parent", "layer", "name", "op", "start_ns",
                                      "end_ns", "count"]
        harness.write_json(RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
                           f".json", record)
        return {"correct": loop.wrong == 0,
                "attempted": loop.attempted, "failed": loop.failed,
                "metrics": {k: {"value": s["median"], "unit": units[k]}
                            for k, s in summaries.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in turn, each in its own process so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             stdout=subprocess.PIPE, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {out.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shredkit" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'shredkit'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
