"""Command-line entry point: generate / train / forecast / landscape / validate-theory.

Exit codes: 0 success, 2 usage or config error, 3 numerical abort during
training, 4 acceptance-threshold failure in a validation suite. Every command
writes a run manifest (full config and seeds) next to its outputs so a run can
be replayed exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, data, evaluation, shred, sindy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


class UsageError(ValueError):
    pass


def _write_manifest(out_dir: Path, command: str, payload: dict) -> None:
    manifest = {"tool": "shredkit", "version": __version__, "command": command}
    manifest.update(payload)
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _ensure_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.frames < 1:
        raise UsageError(f"--frames must be >= 1, got {args.frames}")
    if not 0 <= args.noise < math.inf:
        raise UsageError(f"--noise must be finite and >= 0, got {args.noise}")
    out = _ensure_out(args.out)
    if args.kind == "modal":
        modes = json.loads(args.modes)
        if not (isinstance(modes, list) and modes):
            raise UsageError(f"--modes must be a non-empty JSON list of [pattern, amplitude, "
                             f"omega, phase], got {args.modes!r}")
        fld, meta = data.gen_modal_field(grid=tuple(args.grid), modes=[tuple(m) for m in modes],
                                         n_frames=args.frames, dt=args.dt,
                                         noise=args.noise, seed=args.seed)
        data.save_field(fld, out / "field.fld")
        data.save_metadata(meta, out / "truth.json")
    elif args.kind == "pendulum":
        coeffs = data.PendulumCoeffs()
        fld, traj, meta = data.gen_pendulum(theta0=args.theta0, omega0=args.omega0,
                                            n_frames=args.frames, dt=args.dt,
                                            grid=tuple(args.grid), coeffs=coeffs,
                                            seed=args.seed)
        meta["angle_trajectory"] = traj.tolist()
        data.save_field(fld, out / "field.fld")
        data.save_metadata(meta, out / "truth.json")
    else:  # sine
        traj = data.gen_sine_ode(args.theta0, args.omega0, args.frames - 1, args.dt)
        fld = data.Field(data=traj.astype(np.float32).astype(np.float64), dt_physical=args.dt)
        data.save_field(fld, out / "field.fld")
        data.save_metadata({"kind": "sine", "x0": args.theta0, "v0": args.omega0,
                            "dt": args.dt}, out / "truth.json")
    _write_manifest(out, "generate", {"args": {k: v for k, v in vars(args).items()
                                               if k != "func"}})
    print(f"wrote {out / 'field.fld'} and {out / 'truth.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_RUN_KEYS = {"field", "sensors", "splits", "duplicate_tail_fraction", "standardize",
             "out_dir", "train"}
_SENSOR_KEYS = {"count", "seed", "drop_constant", "file"}


def load_run_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    _check_keys(cfg, _RUN_KEYS, "run config")
    for key in ("field", "train", "out_dir"):
        if key not in cfg:
            raise UsageError(f"run config missing required key {key!r}")
    sensors = cfg.get("sensors", {})
    _check_keys(sensors, _SENSOR_KEYS, "sensors config")
    count = sensors.get("count")
    if "sensors" in cfg and "file" not in sensors and not (type(count) is int and count >= 1):
        raise UsageError(f"sensors.count must be an integer >= 1, got {count!r}")
    if not Path(cfg["field"]).exists():
        raise UsageError(f"field file not found: {cfg['field']}")
    return cfg


def _prepare_dataset(cfg: dict, train_cfg: shred.ShredConfig):
    fld = data.load_field(cfg["field"])
    if not math.isclose(train_cfg.dt, fld.dt_physical, rel_tol=1e-9):
        raise UsageError(f"train.dt {train_cfg.dt!r} does not match the field's frame "
                         f"interval dt_physical {fld.dt_physical!r}")
    if cfg.get("standardize", True) and fld.scale is None:
        fld = data.standardize(fld)
    sensors_cfg = cfg.get("sensors", {"count": min(32, fld.n_space), "seed": train_cfg.seed})
    if "file" in sensors_cfg:
        sensors = data.load_sensor_csv(sensors_cfg["file"])
    else:
        sensors = data.select_sensors(fld, count=sensors_cfg["count"],
                                      seed=int(sensors_cfg.get("seed", train_cfg.seed)),
                                      drop_constant=bool(sensors_cfg.get("drop_constant", False)))
    splits = tuple(cfg.get("splits", (0.7, 0.1, 0.2)))
    dataset = data.make_windows(fld, sensors, train_cfg.lag, splits=splits,
                                duplicate_tail_fraction=float(cfg.get("duplicate_tail_fraction", 0.0)))
    return fld, sensors, dataset


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    train_cfg = shred.ShredConfig.from_dict(cfg["train"])
    if args.mode:
        train_cfg.mode = args.mode
        train_cfg.validate()
    fld, sensors, dataset = _prepare_dataset(cfg, train_cfg)
    out = _ensure_out(cfg["out_dir"])

    model, log = shred.train(dataset, train_cfg, resume_from=args.resume)
    model.extra = {"sensors": list(sensors.indices), "scale": list(fld.scale or ()),
                   "grid": list(fld.grid_shape or ()), "field": str(cfg["field"])}
    shred.write_log_jsonl(log, out / "log.jsonl")
    shred.save_checkpoint(model, model.optimizer, train_cfg.epochs, out / "model.shrd")

    summary = {"final_loss": log[-1]["loss"] if log else None}
    try:
        selected = model.selected_model()
        (out / "equations.txt").write_text(sindy.equations_text(selected) + "\n")
        (out / "model.json").write_text(selected.to_json() + "\n")
        summary["selected_nnz"] = selected.nnz
        try:
            analysis = sindy.analyze_linear_system(selected.linear_generator())
            summary["frequencies"] = analysis.oscillation_frequencies()
        except (sindy.DimensionMismatchError, sindy.EigenAnalysisError):
            pass
        if model.mode == "sindy":
            summary["selected_index"] = model.selected_index
            summary["nnz"] = [model.member(i).nnz for i in range(len(model.xi))]
    except shred.SelectionError as exc:
        summary["selection"] = f"unavailable: {exc}"
    _write_manifest(out, "train", {"run_config": cfg, "train_config": train_cfg.to_dict()})
    print(json.dumps(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def _parse_windows(spec: str) -> list[tuple[int, int]]:
    try:
        out = [(int(lo), int(hi)) for lo, hi in (part.split(":") for part in spec.split(","))]
    except ValueError:
        out = []
    if not out or not all(0 <= lo < hi for lo, hi in out):
        raise UsageError(f"--windows expects lo:hi pairs with 0 <= lo < hi, got {spec!r}")
    return out


def _checkpoint_field(model: shred.ShredModel, path) -> tuple[data.Field, list[int]]:
    """The field at ``path`` in the checkpoint's scale, and the checkpoint's sensor indices."""
    fld = data.load_field(path)
    extra = model.extra
    # The header is JSON, so a number is exactly an int or a float here.
    scale = extra.get("scale", [])
    if scale != [] and not (isinstance(scale, list) and len(scale) == 2
                            and all(type(v) in (int, float) and math.isfinite(v) for v in scale)
                            and scale[0] < scale[1]):
        raise UsageError(f"checkpoint scale {scale!r} is not two finite numbers lo < hi")
    if scale:
        lo, hi = scale
        fld = data.Field(data=(fld.data - lo) / (hi - lo), grid_shape=fld.grid_shape,
                         scale=(lo, hi), dt_physical=fld.dt_physical)
    elif fld.scale is None:
        fld = data.standardize(fld)
    sensors = extra.get("sensors")
    if not (sensors and isinstance(sensors, list) and all(type(i) is int for i in sensors)):
        raise UsageError(f"checkpoint carries no integer sensor indices: {sensors!r}")
    data.SensorSet(indices=tuple(sensors), seed=-1)  # as trained: increasing, none negative
    if sensors[-1] >= fld.n_space:
        raise UsageError(f"checkpoint sensors outside field size {fld.n_space}")
    return fld, sensors


def cmd_forecast(args) -> int:
    for flag, value in (("--horizon", args.horizon), ("--start", args.start)):
        if value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    model, _, _ = shred.load_checkpoint(args.checkpoint)
    fld, sensors = _checkpoint_field(model, args.field)
    lag = model.config.lag
    start = args.start
    if start + lag > fld.n_frames:
        raise UsageError(f"--start {start} + lag {lag} exceeds {fld.n_frames} frames")
    init_window = fld.data[start:start + lag][:, sensors]

    report = evaluation.forecast(model, init_window, args.horizon)
    t0 = start + lag - 1
    avail = fld.n_frames - t0
    n_eval = min(report.predictions.shape[0], avail)
    truncated = n_eval < report.predictions.shape[0]
    windows = _parse_windows(args.windows) if args.windows else [(0, n_eval)]
    clipped = [(lo, min(hi, n_eval)) for lo, hi in windows if lo < n_eval]
    if not clipped:
        raise UsageError(f"--windows {args.windows}: no window starts within the "
                         f"{n_eval} forecast frames")
    truth = fld.data[t0:t0 + n_eval]
    rows, total = evaluation.horizon_mse(report.predictions[:n_eval], truth, clipped)
    report.mse_rows, report.total_mse = rows, total

    out = _ensure_out(args.out)
    if args.held_out_sensors:
        held = [int(x) for x in Path(args.held_out_sensors).read_text().split()]
        for i in held:
            if not 0 <= i < fld.n_space:
                raise UsageError(f"held-out sensor {i} outside field size {fld.n_space}")
        report.traces = evaluation.sensor_traces(report.predictions[:n_eval], truth,
                                                 held, tuple(sensors))
        with open(out / "traces.csv", "w") as f:
            f.write("step," + ",".join(f"pred_{i},true_{i}" for i in report.traces) + "\n")
            for t in range(n_eval):
                cells = []
                for i in report.traces:
                    p, tr = report.traces[i]
                    cells.append(f"{p[t]:.9g},{tr[t]:.9g}")
                f.write(f"{t}," + ",".join(cells) + "\n")

    payload = report.to_dict()
    payload["truncated_truth"] = truncated
    payload["latent_fft_frequencies"] = evaluation.latent_frequencies(
        report.latents, model.config.dt)
    if truncated:
        print(f"warning: truth has only {n_eval} frames; MSE rows truncated", file=sys.stderr)
    with open(out / "forecast.json", "w") as f:
        # json.dumps takes the C encoder; json.dump streams through the Python one.
        f.write(json.dumps(payload, separators=(",", ":")) + "\n")
    pred_field = data.Field(data=report.predictions.astype(np.float32).astype(np.float64),
                            grid_shape=fld.grid_shape, dt_physical=fld.dt_physical)
    data.save_field(pred_field, out / "predictions.fld")
    _write_manifest(out, "forecast", {"args": {k: v for k, v in vars(args).items()
                                               if k != "func"}})
    print(json.dumps({"total_mse": total, "rows": rows}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def cmd_landscape(args) -> int:
    if args.segments < 1:
        raise UsageError(f"--segments must be >= 1, got {args.segments}")
    if not 0 <= args.alpha < math.inf:
        raise UsageError(f"--alpha must be finite and >= 0, got {args.alpha}")
    if not 0 <= args.tolerance < math.inf:
        raise UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    model, _, _ = shred.load_checkpoint(args.checkpoint)
    fld, sensors = _checkpoint_field(model, args.field)
    dataset = data.make_windows(fld, data.SensorSet(indices=tuple(sensors), seed=-1),
                                model.config.lag)
    loss_fn = evaluation.batch_loss_fn(model, dataset)

    seeds = tuple(int(s) for s in args.seeds.split(","))
    if len(seeds) != 2:
        raise UsageError("--seeds expects two comma-separated integers")
    grid = evaluation.landscape_scan(model, loss_fn, alpha=args.alpha,
                                     grid_n=args.grid, seeds=seeds)
    out = _ensure_out(args.out)
    with open(out / "landscape.csv", "w") as f:
        f.write("t_x,t_y,loss\n")
        for tx, ty, v in grid.rows():
            f.write(f"{tx:.9g},{ty:.9g},{v:.17g}\n")

    segs = evaluation.landscape_segments(model, loss_fn, alpha=args.alpha, seeds=seeds,
                                         n_segments=args.segments, n_points=9,
                                         seed=seeds[0])
    passed, violations = evaluation.convexity_check(segs, tolerance=args.tolerance)
    frac = (len(segs) - len({v[0] for v in violations})) / len(segs)
    verdict = {"convex": bool(passed), "segment_pass_fraction": frac,
               "violations": len(violations), "tolerance": args.tolerance,
               "base_loss": grid.base_loss}
    with open(out / "convexity.json", "w") as f:
        json.dump(verdict, f, indent=2)
        f.write("\n")
    _write_manifest(out, "landscape", {"args": {k: v for k, v in vars(args).items()
                                                if k != "func"}})
    print(json.dumps(verdict))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate-theory
# ---------------------------------------------------------------------------

def cmd_validate_theory(args) -> int:
    out = _ensure_out(args.out)
    if args.suite == "thm1":
        t0 = time.perf_counter()
        report = evaluation.theory_scaling_experiment(trials=args.trials, seed=args.seed)
        wall = time.perf_counter() - t0
        payload = report.to_dict()
        slope_ok = -0.6 <= report.slope_n <= -0.4
        lo, hi = report.s_ratio_ci
        ratio_ok = lo <= 2.0 <= hi
        payload["slope_ok"] = slope_ok
        payload["noise_linearity_ok"] = ratio_ok
        _dump(out / "thm1.json", payload)
        print(json.dumps({"slope_n": report.slope_n, "slope_ok": slope_ok,
                          "s_ratio": report.s_ratio, "noise_linearity_ok": ratio_ok}))
        _write_manifest(out, "validate-theory", {"suite": "thm1", "seed": args.seed,
                                                 "trials": args.trials,
                                                 "workers": evaluation.worker_count(),
                                                 "wall_time_s": wall})
        return EXIT_OK if (slope_ok and ratio_ok) else EXIT_ACCEPTANCE
    if args.gru_epochs < 1:
        raise UsageError(f"--gru-epochs must be >= 1, got {args.gru_epochs}")
    if args.suite == "sine":
        report = evaluation.sine_comparison(
            evaluation.SineComparisonConfig(seed=args.seed, gru_epochs=args.gru_epochs))
        payload = report.to_dict()
        coeff_ok = abs(report.sin_coefficient + 1.0) < 1e-3
        order_ok = report.sindy_mse < report.gru_mse
        payload["sin_coefficient_ok"] = coeff_ok
        payload["ordering_ok"] = order_ok
        _dump(out / "sine.json", payload)
        print(json.dumps(payload))
        _write_manifest(out, "validate-theory", {"suite": "sine", "seed": args.seed})
        return EXIT_OK if (coeff_ok and order_ok) else EXIT_ACCEPTANCE
    # thm2-qual: recurrent-net extrapolation error must compound with horizon.
    short, long = evaluation.sine_horizons(evaluation.SineComparisonConfig(
        seed=args.seed, n_test=2000, gru_epochs=args.gru_epochs), (1000, 2000))
    payload = {"short": short.to_dict(), "long": long.to_dict()}
    ok = (short.sindy_mse < short.gru_mse and long.sindy_mse < long.gru_mse
          and long.gru_mse >= short.gru_mse)
    payload["qualitative_ok"] = ok
    _dump(out / "thm2_qual.json", payload)
    print(json.dumps(payload))
    _write_manifest(out, "validate-theory", {"suite": "thm2-qual", "seed": args.seed})
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def _null_non_finite(obj):
    """The JSON payload with NaN and infinite floats replaced by None (written as null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    return obj


def _dump(path: Path, payload: dict) -> None:
    """Write a report as strict JSON: a non-finite number becomes null."""
    with open(path, "w") as f:
        json.dump(_null_non_finite(payload), f, indent=2, allow_nan=False)
        f.write("\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shredkit", description=__doc__, allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic field + ground-truth sidecar",
                       allow_abbrev=False)
    g.add_argument("kind", choices=["modal", "pendulum", "sine"])
    g.add_argument("--out", required=True)
    g.add_argument("--grid", type=int, nargs=2, default=[16, 16])
    g.add_argument("--frames", type=int, default=1000)
    g.add_argument("--dt", type=float, default=0.02)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--modes", default='[[0, 1.0, 6.283185307179586, 0.0]]',
                   help="JSON list of [pattern, amplitude, omega, phase]")
    g.add_argument("--theta0", type=float, default=2.0)
    g.add_argument("--omega0", type=float, default=0.0)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train from a JSON run config", allow_abbrev=False)
    t.add_argument("config")
    t.add_argument("--mode", choices=["sindy", "koopman"], default=None)
    t.add_argument("--resume", default=None)
    t.set_defaults(func=cmd_train)

    f = sub.add_parser("forecast", help="latent rollout + decode from a checkpoint",
                       allow_abbrev=False)
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--field", required=True)
    f.add_argument("--horizon", type=int, required=True)
    f.add_argument("--start", type=int, default=0)
    f.add_argument("--windows", default=None, help="e.g. 0:100,100:200,200:275")
    f.add_argument("--held-out-sensors", default=None)
    f.add_argument("--out", default=".")
    f.set_defaults(func=cmd_forecast)

    l = sub.add_parser("landscape", help="2-D loss landscape scan + convexity verdict",
                       allow_abbrev=False)
    l.add_argument("--checkpoint", required=True)
    l.add_argument("--field", required=True)
    l.add_argument("--alpha", type=float, default=1.0)
    l.add_argument("--grid", type=int, default=21)
    l.add_argument("--seeds", default="0,1")
    l.add_argument("--segments", type=int, default=100)
    l.add_argument("--tolerance", type=float, default=1e-7)
    l.add_argument("--out", default=".")
    l.set_defaults(func=cmd_landscape)

    v = sub.add_parser("validate-theory", help="run a theory-validation suite",
                       allow_abbrev=False)
    v.add_argument("--suite", choices=["thm1", "thm2-qual", "sine"], required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--gru-epochs", type=int,
                   default=evaluation.SineComparisonConfig.gru_epochs,
                   help="the baseline's training epochs (sine suites)")
    v.add_argument("--out", default=".")
    v.set_defaults(func=cmd_validate_theory)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (shred.NumericalAbortError, sindy.RolloutDivergenceError, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, shred.ConfigError, shred.CheckpointError, shred.SelectionError,
            data.FieldFormatError, data.SensorSelectionError, data.DegenerateScaleError,
            evaluation.EvaluationError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
