"""The benchmark's workloads: inputs made from a seed, operations, and their checks.

Each workload has a ``setup`` that builds its inputs from the seed, a list of
operations that make up one round, and checks that compare every output with
the references in ``reference.py`` or with properties the method must have.
Only the package's public API is called.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

import reference as ref
from shredkit import cli, data, evaluation, shred, sindy
from shredkit import diffcore as dc

# Acceptance criterion 4's field: two modes of a 16x16 grid, 3000 frames.
MODAL_GRID = (16, 16)
MODAL_MODES = [(0, 1.0, 2 * math.pi, 0.3), (1, 0.6, 4 * math.pi, 1.1)]
MODAL_FRAMES = 3000
DT = 0.02
LAG = 26
SENSORS = 25
FORECAST_HORIZON = 500
FORECAST_STARTS = 4
LANDSCAPE_GRID = 21
LANDSCAPE_SEGMENTS = 20
THM1_TRIALS = 20
THM1_CELLS = 8            # 4 sample counts x 2 noise levels in the default sweep

# Relative agreement required between the program's loss and the reference.
LOSS_RTOL = 1e-10
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def discovery_config(seed: int, **over) -> shred.ShredConfig:
    """Acceptance criterion 4's discovery config on a short schedule.

    Warm-up 1 epoch, then 4 joint epochs with a prune event (and refit) every
    2, then the final refit and member selection.
    """
    base = dict(lag=LAG, latent_dim=4, epochs=5, warmup_epochs=1, batch_size=128, dt=DT,
                ministeps=1, threshold_interval=2, threshold_low=0.05, threshold_high=5.0,
                ensemble_size=8, poly_degree=1, decoder_widths=(64, 64), dropout=0.1,
                seed=seed, sindy_loss_weight=0.1, refit_on_prune=True)
    base.update(over)
    return shred.ShredConfig(**base)


def koopman_config(seed: int, **over) -> shred.ShredConfig:
    """Acceptance criterion 5's Koopman config: the discovery config with d=5, m_max=1."""
    base = dict(latent_dim=5, epochs=2, mode="koopman", koopman_m_max=1)
    base.update(over)
    return discovery_config(seed, **base)


def modal_field(seed: int) -> data.Field:
    fld, _ = data.gen_modal_field(MODAL_GRID, MODAL_MODES, n_frames=MODAL_FRAMES, dt=DT,
                                  noise=0.01, seed=seed)
    return fld


def windows_for(raw: data.Field, seed: int):
    fld = data.standardize(raw)
    sensors = data.select_sensors(fld, SENSORS, seed=seed)
    return fld, sensors, data.make_windows(fld, sensors, lag=LAG)


# ---------------------------------------------------------------------------
# Shared check helpers
# ---------------------------------------------------------------------------

def param_arrays(model: shred.ShredModel) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.named_parameters().items()}


def reference_config(model: shred.ShredModel) -> dict:
    c = model.config
    return {"mode": c.mode, "dt": c.dt, "ministeps": c.ministeps,
            "koopman_m_max": c.koopman_m_max, "sindy_loss_weight": c.sindy_loss_weight,
            "latent_dim": model.spec.dim, "poly_degree": model.spec.poly_degree,
            "include_constant": model.spec.include_constant, "trig": model.spec.trig}


def reference_library(model: shred.ShredModel):
    s = model.spec
    return lambda Z: ref.library(Z, s.dim, s.poly_degree, s.include_constant, s.trig)


def fixed_batch(dataset, model: shred.ShredModel, size: int):
    """The first ``size`` training starts that have all their partner windows."""
    horizon = model.config.koopman_m_max if model.mode == "koopman" else 1
    pool = dataset.train_idx[dataset.train_idx <= dataset.train_idx.max() - horizon]
    starts = pool[:size]
    windows = [dataset.inputs[starts + m] for m in range(horizon + 1)]
    targets = [dataset.targets[starts + m] for m in range(horizon + 1)]
    return starts, horizon, windows, targets


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_loss_and_gradient(model, dataset, rng) -> str | None:
    """Eval-mode combined_loss equals the reference; autodiff matches central differences."""
    starts, horizon, windows, targets = fixed_batch(dataset, model, 32)
    params = model.named_parameters()
    arrays = param_arrays(model)
    cfg = reference_config(model)
    masks = [m.copy() for m in model.masks]
    for p in params.values():
        p.grad = None
    loss, _ = shred.combined_loss(shred.make_batch(dataset, starts, horizon), model,
                                  train_mode=False)
    want = ref.combined_loss(arrays, masks, windows, targets, cfg)
    if rel_gap(float(loss.data), want) > LOSS_RTOL:
        return f"combined_loss {float(loss.data)!r} != reference {want!r}"
    dc.backward(loss)
    grads = {n: (p.grad.copy() if p.grad is not None else np.zeros(p.shape))
             for n, p in params.items()}
    for p in params.values():
        p.grad = None

    # One coordinate in the encoder, one in the decoder, one in the dynamics
    # (an active term of a member, or K), and one anywhere.
    dyn = sorted(model.dynamics_param_names())
    choices = [rng.choice([n for n in params if n.startswith("gru")]),
               rng.choice([n for n in params if n.startswith("dec")]),
               rng.choice(dyn), rng.choice(sorted(params))]
    for name in choices:
        if name.startswith("xi"):
            active = np.flatnonzero(model.masks[int(name[2:])])
            if active.size == 0:
                continue
            flat = int(rng.choice(active))
        else:
            flat = int(rng.integers(arrays[name].size))
        base = arrays[name].reshape(-1)[flat]
        ad = grads[name].reshape(-1)[flat]
        fds = []
        # The small step seldom straddles a ReLU kink of the decoder; the
        # larger one is the fallback where rounding noise swamps a tiny
        # gradient. Absolute steps suit coefficients of any size.
        for h in (1e-7, 1e-5):
            vals = []
            for sign in (1.0, -1.0):
                moved = dict(arrays)
                moved[name] = arrays[name].copy()
                moved[name].reshape(-1)[flat] = base + sign * h
                vals.append(ref.combined_loss(moved, masks, windows, targets, cfg))
            fds.append((vals[0] - vals[1]) / (2 * h))
            if abs(ad - fds[-1]) <= GRAD_ATOL + GRAD_RTOL * abs(fds[-1]):
                break
        else:
            return f"gradient of {name}[{flat}]: autodiff {ad!r} vs central differences {fds}"
    return None


def check_training(model, log, dataset, rng) -> str | None:
    losses = [r[k] for r in log for k in ("loss", "recon", "dynamics")]
    if not all(math.isfinite(v) for v in losses):
        return "non-finite logged loss"
    if not log[-1]["recon"] < log[0]["recon"]:
        return f"reconstruction loss did not fall: {log[0]['recon']} -> {log[-1]['recon']}"
    if model.mode == "sindy":
        nnz = np.array([r["nnz"] for r in log])
        if np.any(np.diff(nnz, axis=0) > 0):
            return "an active-term count rose across epochs"
        for i, (xi, mask) in enumerate(zip(model.xi, model.masks)):
            if np.any(xi.data[~mask] != 0.0):
                return f"member {i} has a non-zero pruned coefficient"
        problem = check_selection(model, dataset)
        if problem:
            return problem
    else:
        G = model.koopman_generator()
        K_col = model.K.data.T
        gap = np.max(np.abs(scipy.linalg.expm(model.config.dt * G) - K_col))
        if gap > 1e-8 * max(1.0, np.max(np.abs(K_col))):
            return f"expm(dt G) differs from K by {gap:.3e}"
    return check_loss_and_gradient(model, dataset, rng)


def check_selection(model, dataset) -> str | None:
    """Recompute the member choice with the reference encoder and Euler step."""
    idx = dataset.val_idx if dataset.val_idx.size >= 3 else np.unique(dataset.train_idx)
    arrays = param_arrays(model)
    latents = ref.encode(dataset.inputs[idx], arrays)
    lib = reference_library(model)
    Xis = [np.where(mask, arrays[f"xi{i}"], 0.0) for i, mask in enumerate(model.masks)]
    mses = ref.euler_rollout_mses(latents, Xis, lib, model.config.dt, model.config.ministeps)
    nnz = [int(mask.sum()) for mask in model.masks]
    want = ref.select_member(mses, nnz)
    if want != model.selected_index:
        return f"selected member {model.selected_index}, reference rule picks {want} ({mses})"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """What a workload's set-up leaves for its operations and probes."""
    raw: data.Field
    fld: data.Field
    sensors: data.SensorSet
    dataset: data.WindowedDataset
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.state: Prepared | None = None
        self.models: dict[str, shred.ShredModel] = {}

    def setup(self) -> None:
        """Build the workload's inputs from the seed into ``self.state``."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the inputs and models of the previous round."""
        self.state = None
        self.models.clear()
        gc.collect()

    def round_ops(self) -> list:
        raise NotImplementedError

    def probe(self) -> None:
        """Calls the traced run times for the per-layer table that no operation makes.

        thm1 runs its fits in pool workers, out of the tracer's sight, so its
        largest cell (n = 100,000) and its RK4 inner library call are timed
        here on the same design.
        """
        rng = np.random.default_rng(self.seed)
        X = rng.uniform(-1.0, 1.0, size=(100_000, 2))
        G = np.array([[-0.1, 1.0], [-1.0, -0.1]])
        dZ = X @ G.T + 0.1 * rng.standard_normal(X.shape)
        spec = sindy.LibrarySpec(dim=2, poly_degree=3)
        for _ in range(3):
            sindy.fit_stlsq(X, dZ, spec, threshold=0.0, iters=1, ridge=0.0)
        for z in X[:200]:
            sindy.evaluate_library(z[None], spec)


class ModalDiscovery(Workload):
    name = "modal-discovery"

    def setup(self) -> None:
        raw = modal_field(self.seed)
        fld, sensors, dataset = windows_for(raw, self.seed)
        self.state = Prepared(raw, fld, sensors, dataset)

    def _train(self, cfg):
        dataset = self.state.dataset
        model, log = shred.train(dataset, cfg)
        self.models[cfg.mode] = model
        return "epochs", len(log), lambda: check_training(model, log, dataset, self.rng)

    def round_ops(self):
        return [("train-sindy", lambda: self._train(discovery_config(self.seed))),
                ("train-koopman", lambda: self._train(koopman_config(self.seed)))]

    def probe(self) -> None:
        """Also checkpoint, forecast and landscape calls on the trained SINDy model."""
        super().probe()
        model = self.models["sindy"]
        path = save_run_files(model, self.state, self.workdir, "probe.shrd")
        try:
            quiet_cli(["forecast", "--checkpoint", path,
                       "--field", os.path.join(self.workdir, "field.fld"),
                       "--horizon", str(FORECAST_HORIZON),
                       "--out", os.path.join(self.workdir, "probe-forecast")])
        except sindy.RolloutDivergenceError:
            pass  # the call was still timed; a diverging model is the model's property
        model.decode_np(np.zeros((FORECAST_HORIZON + 1, model.config.latent_dim)))
        loss_fn = evaluation.batch_loss_fn(model, self.state.dataset)
        evaluation.landscape_scan(model, loss_fn, alpha=1.0, grid_n=3)
        evaluation.worker_count()


def save_run_files(model, prepared: Prepared, directory: str, name: str) -> str:
    """Checkpoint plus the raw field, with the sidecar data ``shredkit train`` records."""
    os.makedirs(directory, exist_ok=True)
    field_path = os.path.join(directory, "field.fld")
    data.save_field(prepared.raw, field_path)
    model.extra = {"sensors": list(prepared.sensors.indices), "scale": list(prepared.fld.scale),
                   "grid": list(prepared.fld.grid_shape), "field": field_path}
    path = os.path.join(directory, name)
    shred.save_checkpoint(model, model.optimizer, model.config.epochs, path)
    return path


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Evaluate(Workload):
    """Forecast, landscape and thm1 on SINDy and Koopman checkpoints made in set-up."""

    name = "evaluate"

    def setup(self) -> None:
        raw = modal_field(self.seed)
        fld, sensors, dataset = windows_for(raw, self.seed)
        prepared = Prepared(raw, fld, sensors, dataset)
        for mode, cfg in (("sindy", discovery_config(self.seed, epochs=2, threshold_interval=1)),
                          ("koopman", koopman_config(self.seed, epochs=1, warmup_epochs=0))):
            model, _ = shred.train(dataset, cfg)
            path = save_run_files(model, prepared, self.workdir, f"{mode}.shrd")
            prepared.extra[mode] = (model, path, param_arrays(model))
        self.state = prepared

    def round_ops(self):
        rng = np.random.default_rng(self.seed)
        latest = MODAL_FRAMES - LAG - FORECAST_HORIZON
        starts = sorted(int(s) for s in rng.choice(latest + 1, FORECAST_STARTS, replace=False))
        ops = [(f"forecast-{mode}", self._forecast_op(mode, s))
               for mode in ("sindy", "koopman") for s in starts]
        ops.append(("landscape", self._landscape))
        ops.append(("thm1", self._thm1))
        return ops

    def _forecast_op(self, mode: str, start: int):
        def op():
            model, path, arrays = self.state.extra[mode]
            out = os.path.join(self.workdir, f"forecast-{mode}-{start}")
            code = quiet_cli(["forecast", "--checkpoint", path,
                              "--field", os.path.join(self.workdir, "field.fld"),
                              "--horizon", str(FORECAST_HORIZON), "--start", str(start),
                              "--out", out])
            return "steps", FORECAST_HORIZON, lambda: (
                f"exit {code}" if code else self._check_forecast(model, arrays, start, out))
        return op

    def _check_forecast(self, model, arrays, start, out) -> str | None:
        with open(os.path.join(out, "forecast.json")) as f:
            latents = np.asarray(json.load(f)["latents"])
        window = self.state.fld.data[start:start + LAG][:, list(self.state.sensors.indices)]
        z = ref.encode(window[None], arrays)
        want = [z[0]]
        if model.mode == "koopman":
            want.extend(ref.koopman_power(z, arrays["K"], t)[0]
                        for t in range(1, FORECAST_HORIZON + 1))
        else:
            i = model.selected_index
            Xi = np.where(model.masks[i], arrays[f"xi{i}"], 0.0)
            lib = reference_library(model)
            for _ in range(FORECAST_HORIZON):
                z = ref.euler_advance(z, Xi, lib, model.config.dt, model.config.ministeps)
                want.append(z[0])
        want = np.array(want)
        gap = np.max(np.abs(latents - want)) / max(1.0, np.max(np.abs(want)))
        if not gap <= 1e-9:
            return f"start {start}: latents differ from the reference by {gap:.3e}"
        pred = read_fld(os.path.join(out, "predictions.fld"))
        want_pred = ref.decode(want, arrays).astype(np.float32).astype(np.float64)
        pgap = np.max(np.abs(pred - want_pred)) / max(1.0, np.max(np.abs(want_pred)))
        if not pgap <= 1e-6:
            return f"start {start}: predictions differ from the reference by {pgap:.3e}"
        return None

    def _landscape(self):
        model, path, arrays = self.state.extra["sindy"]
        out = os.path.join(self.workdir, "landscape")
        with capture_returns(shred, "load_checkpoint") as loaded:
            code = quiet_cli(["landscape", "--checkpoint", path,
                              "--field", os.path.join(self.workdir, "field.fld"),
                              "--grid", str(LANDSCAPE_GRID),
                              "--segments", str(LANDSCAPE_SEGMENTS), "--out", out])
        evals = LANDSCAPE_GRID ** 2 + 9 * LANDSCAPE_SEGMENTS
        return "loss evaluations", evals, lambda: (
            f"exit {code}" if code else self._check_landscape(model, arrays, loaded, out))

    def _check_landscape(self, model, arrays, loaded, out) -> str | None:
        scanned = loaded[0][0]
        for name, t in scanned.named_parameters().items():
            if not np.array_equal(t.data, arrays[name]):
                return f"parameter {name} changed by the scan"
        with open(os.path.join(out, "convexity.json")) as f:
            verdict = json.load(f)
        with open(os.path.join(out, "landscape.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        values = [float(r[2]) for r in rows]
        if len(values) != LANDSCAPE_GRID ** 2:
            return f"{len(values)} landscape cells"
        if not all(math.isfinite(v) or v == math.inf for v in values):
            return "a landscape cell is neither finite nor +inf"
        centre = [float(r[2]) for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        if centre != [verdict["base_loss"]]:
            return f"centre cell {centre} != base loss {verdict['base_loss']}"
        ds = self.state.dataset
        _, _, windows, targets = fixed_batch(ds, model, 128)
        want = ref.combined_loss(arrays, [m.copy() for m in model.masks], windows, targets,
                                 reference_config(model))
        if rel_gap(verdict["base_loss"], want) > LOSS_RTOL:
            return f"base loss {verdict['base_loss']!r} != reference {want!r}"
        return None

    def _thm1(self):
        out = os.path.join(self.workdir, "thm1")
        code = quiet_cli(["validate-theory", "--suite", "thm1", "--trials", str(THM1_TRIALS),
                          "--seed", str(self.seed), "--out", out])
        return "trials", THM1_TRIALS * THM1_CELLS, lambda: self._check_thm1(code, out)

    @staticmethod
    def _check_thm1(code, out) -> str | None:
        with open(os.path.join(out, "thm1.json")) as f:
            payload = json.load(f)
        lo, hi = payload["s_ratio_ci"]
        if code != 0 or not -0.6 <= payload["slope_n"] <= -0.4 or not lo <= 2.0 <= hi:
            return f"thm1 exit {code}, slope {payload['slope_n']}, ratio CI ({lo}, {hi})"
        if len(payload["cells"]) != THM1_CELLS:
            return f"thm1 swept {len(payload['cells'])} cells"
        return None


WORKLOADS = {w.name: w for w in (ModalDiscovery, Evaluate)}


@contextlib.contextmanager
def capture_returns(owner, attr: str):
    """Record what ``owner.attr`` returns while the block runs."""
    original = getattr(owner, attr)
    seen = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(owner, attr, recording)
    try:
        yield seen
    finally:
        setattr(owner, attr, original)


def read_fld(path) -> np.ndarray:
    """Payload of an FLD1 file, read from the documented layout."""
    with open(path, "rb") as f:
        raw = f.read()
    ndims = raw[8]
    off = 9 + 8 * ndims
    t, n = np.frombuffer(raw[off:off + 16], dtype="<u8")
    off += 16 + 8 + 1 + 16
    return np.frombuffer(raw[off:off + 4 * int(t) * int(n)], dtype="<f4").reshape(
        int(t), int(n)).astype(np.float64)
