"""Forecasting, error tables, loss-landscape scans, and theory validation harnesses."""

from __future__ import annotations

import copy
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import diffcore as dc
from . import nets, sindy
from .data import WindowedDataset, _rk4, gen_sine_ode
from .diffcore import Tensor
from .shred import ShredModel, combined_loss, loss_terms, make_batch

STACK_POINTS = 8  # landscape points per stacked forward pass: bounds its buffers


class EvaluationError(ValueError):
    pass


def worker_count() -> int:
    """Worker cap from SHRED_THREADS, an integer >= 1; unset or empty, the CPU count."""
    env = os.environ.get("SHRED_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise EvaluationError(f"SHRED_THREADS must be an integer >= 1, got {env!r}")
    return workers


# The function _pmap's forked workers call; set only while a pool runs.
_pool_fn = None


def _pool_call(args: tuple):
    return _pool_fn(*args)


def _pmap(fn, items: list[tuple]):
    """Order-preserving ``fn(*args)`` per argument tuple, over processes when it pays off.

    The workers are forked, so ``fn`` and whatever it refers to reach them by
    inheritance; only the argument tuples and the results are pickled.
    """
    global _pool_fn
    workers = worker_count()
    if workers <= 1 or len(items) < 2 * workers:
        return [fn(*args) for args in items]
    _pool_fn = fn
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_pool_call, items))
    finally:
        _pool_fn = None


# ---------------------------------------------------------------------------
# Forecasting
# ---------------------------------------------------------------------------

def forecast(model: ShredModel, init_window: np.ndarray,
             horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Pure latent rollout: encode once, integrate the discovered dynamics, decode.

    Returns the predictions (horizon + 1, N) and the latents (horizon + 1, d).
    No sensor feedback after initialization. Row t aligns with the frame t
    steps after the init window's final frame; row 0 is the init window's decode.
    """
    init_window = np.asarray(init_window, dtype=np.float64)
    if init_window.ndim != 2 or init_window.shape[0] != model.config.lag:
        raise EvaluationError(
            f"init window must be (lag={model.config.lag}, sensors), got {init_window.shape}")
    latents = model.rollout_np(model.encode_np(init_window[None])[0], horizon)
    return model.decode_np(latents), latents


def horizon_mse(pred: np.ndarray, truth: np.ndarray,
                windows: list[tuple[int, int]]) -> tuple[list[dict], float]:
    """Per-window and total MSE in the units of the supplied fields."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise EvaluationError(f"prediction {pred.shape} and truth {truth.shape} differ")
    rows = []
    for lo, hi in windows:
        if not (0 <= lo < hi <= pred.shape[0]):
            raise EvaluationError(f"window [{lo}, {hi}) outside [0, {pred.shape[0]})")
        rows.append({"window": [int(lo), int(hi)],
                     "mse": float(np.mean((pred[lo:hi] - truth[lo:hi]) ** 2))})
    covered = sorted((lo, hi) for lo, hi in windows)
    total = float(np.mean(np.concatenate(
        [((pred[lo:hi] - truth[lo:hi]) ** 2).reshape(-1) for lo, hi in covered])))
    return rows, total


def sensor_traces(pred: np.ndarray, truth: np.ndarray, held_out: list[int],
                  training_sensors: tuple[int, ...] = ()) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Predicted vs. true series at held-out locations (disjoint from training sensors)."""
    overlap = set(held_out) & set(training_sensors)
    if overlap:
        raise EvaluationError(f"held-out sensors overlap training sensors: {sorted(overlap)}")
    return {int(i): (pred[:, i].copy(), truth[:, i].copy()) for i in held_out}


def latent_frequencies(traj: np.ndarray, dt: float) -> list[float]:
    """Dominant angular frequency of each latent coordinate via an interpolated FFT peak."""
    traj = np.atleast_2d(np.asarray(traj, dtype=np.float64))
    n = traj.shape[0]
    freqs = np.fft.rfftfreq(n, d=dt)
    out = []
    for j in range(traj.shape[1]):
        x = traj[:, j] - traj[:, j].mean()
        spec = np.abs(np.fft.rfft(x * np.hanning(n)))
        if spec.size < 3:
            out.append(0.0)
            continue
        k = int(np.argmax(spec[1:]) + 1)
        if 1 <= k < spec.size - 1:
            a, b, c = spec[k - 1], spec[k], spec[k + 1]
            denom = a - 2 * b + c
            shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
        else:
            shift = 0.0
        out.append(2.0 * math.pi * (freqs[k] + shift * (freqs[1] - freqs[0])))
    return out


# ---------------------------------------------------------------------------
# Loss landscape
# ---------------------------------------------------------------------------

@dataclass
class LandscapeGrid:
    alpha: float
    seeds: tuple[int, int]
    ts: np.ndarray             # grid coordinates in [-1, 1]
    values: np.ndarray         # (n, n) loss at (t_x, t_y)
    base_loss: float


def _directions(params: dict[str, Tensor], seed: int) -> dict[str, np.ndarray]:
    """Per-tensor Gaussian directions, normalized and rescaled to the tensor's norm.

    This mirrors the filter-wise normalization of the visualization method the
    scan follows: each tensor is displaced relative to its own scale, so t = 1
    at alpha = 1 moves a tensor by its own Frobenius norm.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = {}
    for name in sorted(params):
        r = rng.standard_normal(params[name].shape)
        norm = np.linalg.norm(r)
        scale = np.linalg.norm(params[name].data)
        out[name] = (r / norm) * scale if norm > 0 else r
    return out


def batch_loss_fn(model: ShredModel, dataset: WindowedDataset):
    """Deterministic eval-mode loss over the leading 128 training pairs, in two forms.

    ``loss_fn()`` is the model's loss as its parameters stand, through
    ``combined_loss``. ``loss_fn(stack)`` scores K parameter sets at once:
    ``stack`` maps every ``named_parameters()`` name to a (K, *shape) array,
    and the result is K float64 losses, each bit-identical to writing that
    row into the model and calling ``loss_fn()``. The stacked form leaves the
    model alone: a private copy of it runs the encoder and the decoder once
    for all K sets, then each set's loss terms from that set's rows.
    """
    horizon = model.config.horizon
    max_start = int(dataset.train_idx.max()) - horizon
    pool = dataset.train_idx[dataset.train_idx <= max_start]
    if pool.size == 0:
        raise EvaluationError(
            f"training split has no window with {horizon} later window(s) after it; "
            f"the field has {dataset.n_windows} window(s) at lag {dataset.lag}")
    starts = pool[:128]
    batch = make_batch(dataset, starts, horizon)
    rows = batch.rows.reshape(-1)
    # The model with tensors of its own for the stacked form to fill; the
    # configuration, library and masks stay the model's.
    twin = replace(model, gru=copy.deepcopy(model.gru), decoder=copy.deepcopy(model.decoder),
                   xi=copy.deepcopy(model.xi), K=copy.deepcopy(model.K), optimizer=None)
    params = twin.named_parameters()
    dynamics = twin.dynamics_param_names()

    def loss_fn(stack: dict[str, np.ndarray] | None = None):
        with dc.no_grad():
            if stack is None:
                total, _ = combined_loss(batch, model, train_mode=False)
                return float(total.data)
            for name, p in params.items():
                # A stacked bias (K, n) becomes (K, 1, n), to broadcast over rows.
                p.data = stack[name] if stack[name].ndim > 2 else stack[name][:, None]
            encoded = nets.encode_window(batch.distinct, twin.gru).data
            decoded = nets.decode(Tensor(encoded), twin.decoder).data
            losses = np.empty(len(encoded))
            for k in range(len(losses)):
                for name in dynamics:
                    params[name].data = stack[name][k]
                total, _ = loss_terms(batch, twin, Tensor(encoded[k][rows]),
                                      Tensor(decoded[k][rows]))
                losses[k] = total.data
            return losses

    return loss_fn


def _perturbed_losses(model: ShredModel, loss_fn, alpha: float, seeds: tuple[int, int],
                      points: np.ndarray) -> np.ndarray:
    """Loss at each (t_x, t_y) row of ``points`` in the alpha-scaled direction plane.

    Non-finite losses are recorded as +inf, silently. The points are split into
    contiguous chunks that ``_pmap`` spreads over its workers, and each chunk
    is scored STACK_POINTS points per ``loss_fn(stack)`` call; each point gets the
    same arithmetic wherever it runs. The model's parameters are never written.
    """
    if not 0 <= alpha < math.inf:
        raise EvaluationError(f"alpha must be finite and >= 0, got {alpha}")
    params = model.named_parameters()
    base = {name: p.data for name, p in params.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        rx = _directions(params, seeds[0])
        ry = _directions(params, seeds[1])

    def losses(chunk: np.ndarray) -> np.ndarray:
        values = np.empty(len(chunk))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, len(chunk), STACK_POINTS):
                moves = chunk[s:s + STACK_POINTS] * alpha   # (k, 2): t_x * alpha, t_y * alpha
                stack = {}
                for name, b in base.items():
                    cx, cy = moves.T.reshape(2, -1, *(1,) * b.ndim)
                    # Perturbation summed first: IEEE commutativity then makes
                    # the grid exactly transpose under direction swap.
                    stack[name] = b + (cx * rx[name] + cy * ry[name])
                v = loss_fn(stack)
                values[s:s + STACK_POINTS] = np.where(np.isfinite(v), v, np.inf)
        return values

    # Two chunks per worker, so that _pmap takes its pool whenever there is
    # more than one worker and a worker that finishes early takes a spare.
    chunks = np.array_split(points, 2 * worker_count())
    return np.concatenate(_pmap(losses, [(c,) for c in chunks]))


def landscape_scan(model: ShredModel, loss_fn, alpha: float, grid_n: int,
                   seeds: tuple[int, int] = (0, 1)) -> LandscapeGrid:
    """Loss over a 2-D grid of weight perturbations along two random directions.

    Non-finite losses are recorded as +inf cells. The model's parameters are
    restored exactly afterwards, and the grid center reproduces the base loss.
    """
    if grid_n < 3 or grid_n % 2 == 0:
        raise EvaluationError("grid size must be odd and >= 3")
    ts = np.linspace(-1.0, 1.0, grid_n)
    tx, ty = np.meshgrid(ts, ts, indexing="ij")
    moved = (tx != 0.0) | (ty != 0.0)   # the center is the base loss, unperturbed
    values = np.empty((grid_n, grid_n))
    values[moved] = _perturbed_losses(model, loss_fn, alpha, seeds,
                                      np.stack([tx[moved], ty[moved]], axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        base_loss = float(loss_fn())
    values[~moved] = base_loss
    return LandscapeGrid(alpha=alpha, seeds=tuple(seeds), ts=ts, values=values,
                         base_loss=base_loss)


def landscape_segments(model: ShredModel, loss_fn, alpha: float, seeds: tuple[int, int],
                       n_segments: int, n_points: int, seed: int = 0) -> np.ndarray:
    """Loss samples along segments from the scan center toward random endpoints.

    Segments move from the unperturbed parameters outward to uniformly drawn
    points of the alpha-scaled 2-direction plane, sampled at uniform fractions;
    convexity checking runs on these collinear values. Every segment starts at
    the unperturbed model, so the fraction-0 column is one ``loss_fn()`` call.
    """
    if n_points < 3:
        raise EvaluationError("segments need at least 3 samples")
    rng = np.random.default_rng(seed)
    ends = rng.uniform(-1.0, 1.0, size=(n_segments, 2))
    fractions = np.linspace(0.0, 1.0, n_points)[1:]
    points = fractions[None, :, None] * ends[:, None, :]   # (segment, sample, [t_x, t_y])
    out = np.empty((n_segments, n_points))
    out[:, 1:] = _perturbed_losses(model, loss_fn, alpha, seeds,
                                   points.reshape(-1, 2)).reshape(n_segments, n_points - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        base = loss_fn()
    out[:, 0] = base if np.isfinite(base) else np.inf
    return out


def convexity_check(segments: np.ndarray, tolerance: float = 1e-7) -> tuple[bool, list[tuple]]:
    """Midpoint inequality f((a+b)/2) <= (f(a)+f(b))/2 + tol on every sampled triple.

    ``segments`` is (n_segments, n_points) of losses at uniformly spaced
    collinear points. Returns overall pass/fail plus the violation list
    (segment, i, j, excess). A triple with a non-finite sample cannot be
    checked and counts as a violation with excess +inf.
    """
    if not 0 <= tolerance < math.inf:
        raise EvaluationError(f"tolerance must be finite and >= 0, got {tolerance}")
    segments = np.atleast_2d(np.asarray(segments, dtype=np.float64))
    if segments.shape[1] < 3:
        raise EvaluationError("need >= 3 collinear samples per segment")
    violations = []
    for s in range(segments.shape[0]):
        f = segments[s]
        finite = np.isfinite(f)
        m = f.size
        for i in range(m - 2):
            for j in range(i + 2, m, 2):
                mid = (i + j) // 2
                if finite[i] and finite[mid] and finite[j]:
                    excess = f[mid] - 0.5 * (f[i] + f[j]) - tolerance
                else:
                    excess = math.inf
                if excess > 0:
                    violations.append((s, i, j, float(excess)))
    return len(violations) == 0, violations


# ---------------------------------------------------------------------------
# Coefficient-error scaling harness
# ---------------------------------------------------------------------------

@dataclass
class ScalingCell:
    n: int
    noise: float
    horizon: float
    coef_err_mean: float
    coef_err_std: float
    rollout_err_mean: float
    lambda_min_ratio: float
    excluded: bool


@dataclass
class ScalingReport:
    cells: list[ScalingCell]
    slope_n: float
    slope_n_ci: tuple[float, float]
    s_ratio: float               # coef error ratio for doubled noise (expect ~2)
    s_ratio_ci: tuple[float, float]
    lambda_min_overall: float


def _default_scaling_system() -> tuple[np.ndarray, sindy.LibrarySpec]:
    G = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    spec = sindy.LibrarySpec(dim=2, poly_degree=3, include_constant=True)
    return G, spec


def _scaling_fit(n: int, noise: float, seed: int) -> tuple[float, np.ndarray, float]:
    """One Monte-Carlo fit: returns (coef error, fitted Xi, lambda_min/n).

    The fit is the Cholesky solve of the normal equations on the Gram matrix
    theta^T theta whose smallest eigenvalue it reports. A Gram that fails
    ``sindy._solve_ridge``'s ridge-free check (lambda_min <= 0 or
    lambda_max / lambda_min > 1e12) gives NaN coefficients instead of a fit.
    """
    G, spec = _default_scaling_system()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    theta = sindy.evaluate_library(X, spec)
    xi_true = np.zeros((spec.term_count, 2))
    xi_true[spec.linear_slice, :] = G.T
    targets = X @ G.T + noise * rng.standard_normal((n, 2))
    gram = theta.T @ theta
    lam = np.linalg.eigvalsh(gram)
    if lam[0] > 0 and lam[-1] <= 1e12 * lam[0]:
        Xi = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), theta.T @ targets)
    else:
        Xi = np.full_like(xi_true, np.nan)
    return float(np.linalg.norm(Xi - xi_true)), Xi, float(lam[0]) / n


def _rollout_errors(Xis: np.ndarray, horizon: float) -> list[float]:
    """Distance at ``horizon`` between each fitted model's RK4 path from (1, 0) and the truth.

    ``Xis`` stacks the fitted (p, d) coefficient matrices as (m, p, d); all m
    models advance together as one (m, d) state, and each row gets the same
    arithmetic as integrating that model alone.
    """
    G, spec = _default_scaling_system()
    x0 = np.array([1.0, 0.0])
    truth = scipy.linalg.expm(horizon * G) @ x0
    dt = 0.01

    def deriv(Z: np.ndarray) -> np.ndarray:
        # Row-major, so each stacked product sums as a one-model run does.
        theta = np.ascontiguousarray(sindy.evaluate_library(Z, spec))
        return np.matmul(theta[:, None, :], Xis)[:, 0, :]

    final = _rk4(deriv, np.tile(x0, (Xis.shape[0], 1)), dt, int(round(horizon / dt)))[-1]
    return [float(np.linalg.norm(z - truth)) for z in final]


def theory_scaling_experiment(n_values: list[int] | None = None,
                              noise_values: list[float] | None = None,
                              horizon: float = 2.0, trials: int = 20,
                              seed: int = 0) -> ScalingReport:
    """Monte-Carlo sweep of least-squares coefficient error against sample count and noise.

    States are drawn iid from the sampling box (matching the regression model
    the error bound is stated for), noise is added to the derivative targets,
    and thresholding is off. Each fit solves the normal equations on the Gram
    matrix whose lambda_min/n the cell reports. A cell with an ill-conditioned
    fit is flagged ``excluded`` and left out of the slope and the noise ratio.

    Every fit of the sweep goes through one worker pool, and the parent then
    integrates all fitted models in one stacked RK4 run.
    """
    n_values = n_values or [100, 1000, 10_000, 100_000]
    noise_values = noise_values or [0.1, 0.2]
    if trials < 20:
        raise EvaluationError("need >= 20 Monte-Carlo trials per cell")
    if len(set(n_values)) < 2:
        raise EvaluationError(f"need >= 2 distinct sample counts, got {n_values}")
    grid = [(noise, n) for noise in noise_values for n in n_values]
    args = [(n, noise, seed * 1_000_003 + cell * 1009 + t)
            for cell, (noise, n) in enumerate(grid) for t in range(trials)]
    fits = _pmap(_scaling_fit, args)
    rollouts = _rollout_errors(np.stack([f[1] for f in fits]), horizon)
    cells = []
    for cell, (noise, n) in enumerate(grid):
        span = slice(cell * trials, (cell + 1) * trials)
        coef = np.array([f[0] for f in fits[span]])
        roll = np.array(rollouts[span])
        lam = np.array([f[2] for f in fits[span]])
        excluded = bool(np.isnan(coef).any())
        cells.append(ScalingCell(n=n, noise=noise, horizon=horizon,
                                 coef_err_mean=float(coef.mean()),
                                 coef_err_std=float(coef.std(ddof=1)),
                                 rollout_err_mean=float(roll.mean()),
                                 lambda_min_ratio=float(lam.min()),
                                 excluded=excluded))

    # Slope of log coef error vs log n at the first noise level.
    s0 = noise_values[0]
    pts = [(math.log(c.n), math.log(c.coef_err_mean), c.coef_err_std / (c.coef_err_mean * math.sqrt(trials)))
           for c in cells if c.noise == s0 and not c.excluded]
    if len({p[0] for p in pts}) < 2:
        raise EvaluationError(f"fewer than 2 well-conditioned sample counts at noise {s0}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coefs, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(coefs[0])
    dof = max(1, xs.size - 2)
    resid_var = float(res[0]) / dof if res.size else 0.0
    cov = resid_var * np.linalg.inv(A.T @ A)
    se = math.sqrt(max(cov[0, 0], 1e-30))
    slope_ci = (slope - 1.96 * se, slope + 1.96 * se)

    # Ratio of coefficient error when noise doubles (paired by n).
    ratios = []
    ratio_ses = []
    if len(noise_values) >= 2 and abs(noise_values[1] - 2 * noise_values[0]) < 1e-12:
        for n in n_values:
            lo = next(c for c in cells if c.n == n and c.noise == noise_values[0])
            hi = next(c for c in cells if c.n == n and c.noise == noise_values[1])
            if lo.excluded or hi.excluded:
                continue
            r = hi.coef_err_mean / lo.coef_err_mean
            rel = math.sqrt((lo.coef_err_std / lo.coef_err_mean) ** 2
                            + (hi.coef_err_std / hi.coef_err_mean) ** 2) / math.sqrt(trials)
            ratios.append(r)
            ratio_ses.append(r * rel)
    if ratios:
        s_ratio = float(np.mean(ratios))
        spread = 1.96 * float(np.linalg.norm(ratio_ses)) / len(ratios)
        s_ratio_ci = (s_ratio - spread, s_ratio + spread)
    else:
        s_ratio, s_ratio_ci = float("nan"), (float("nan"), float("nan"))

    return ScalingReport(cells=cells, slope_n=slope, slope_n_ci=slope_ci,
                         s_ratio=s_ratio, s_ratio_ci=s_ratio_ci,
                         lambda_min_overall=float(min(c.lambda_min_ratio for c in cells
                                                      if not c.excluded)))


# ---------------------------------------------------------------------------
# Sine-system comparison: sparse regression vs. a recurrent baseline
# ---------------------------------------------------------------------------

@dataclass
class SineComparisonConfig:
    x0: float = 2.0
    v0: float = 0.0
    dt: float = 0.02
    n_train: int = 1000
    n_test: int = 2000          # 2x the training horizon
    gru_hidden: int = 32
    gru_layers: int = 2
    gru_window: int = 10
    gru_epochs: int = 150
    gru_lr: float = 1e-3
    threshold: float = 0.1
    seed: int = 0


@dataclass
class SineComparisonReport:
    sindy_mse: float
    gru_mse: float
    sin_coefficient: float


def sine_comparison(config: SineComparisonConfig | None = None) -> SineComparisonReport:
    """Extrapolation shoot-out on xdd = -sin(x): library regression vs. a GRU predictor.

    Both models see the first half of the trajectory; the report compares MSE
    over the following 2x horizon, extrapolated autoregressively with no
    corrections.
    """
    cfg = config or SineComparisonConfig()
    return sine_horizons(cfg, (cfg.n_test,))[0]


def sine_horizons(cfg: SineComparisonConfig,
                  horizons: tuple[int, ...]) -> list[SineComparisonReport]:
    """One ``sine_comparison`` per increasing horizon h <= n_test, scored on the first h
    test steps of one fit, one GRU training and one rollout of each model. A
    non-finite sparse-model state within a horizon's first h steps scores it inf."""
    traj = gen_sine_ode(cfg.x0, cfg.v0, cfg.n_train + cfg.n_test, cfg.dt)
    train = traj[:cfg.n_train + 1]
    test = traj[cfg.n_train:]

    # Route (a): sparse regression with a trig-capable library.
    spec = sindy.LibrarySpec(dim=2, poly_degree=1, include_constant=True,
                             trig=(("sin", 1.0),))
    dZ = sindy.finite_differences(train, cfg.dt)
    fit = sindy.fit_stlsq(train, dZ, spec, threshold=cfg.threshold,
                          dt=cfg.dt, k=40)
    names = spec.term_names(var="x")
    sin_coeff = float(fit.effective_Xi()[names.index("sin(x1)"), 1])
    pred = sindy.rollout(fit, train[-1], horizons[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        sindy_mses = [float(np.mean((pred[:h + 1] - test[:h + 1]) ** 2)) for h in horizons]
    sindy_mses = [m if math.isfinite(m) else math.inf for m in sindy_mses]

    # Route (b): stacked GRU, inputs min-max normalized over the training half,
    # teacher-forced one-step training, autoregressive rollout.
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    norm = lambda x: (x - lo) / span
    denorm = lambda x: x * span + lo
    train_n = norm(train)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(7,)))
    gru = nets.init_gru(rng, input_size=2,
                        hidden_sizes=[cfg.gru_hidden] * cfg.gru_layers)
    head_W = Tensor(rng.uniform(-0.25, 0.25, (cfg.gru_hidden, 2)), requires_grad=True)
    head_b = Tensor(np.zeros(2), requires_grad=True)
    params = dict(gru.tensors())
    params["head.W"] = head_W
    params["head.b"] = head_b
    opt = dc.AdamW(params, lr=cfg.gru_lr, weight_decay=0.0)

    w = cfg.gru_window
    starts = np.arange(0, train_n.shape[0] - w)
    windows = np.stack([train_n[s:s + w] for s in starts])
    targets = train_n[starts + w]

    def predict(batch_windows: np.ndarray) -> Tensor:
        latent = nets.encode_window(batch_windows, gru)
        return latent @ head_W + head_b

    batch = 64
    for epoch in range(cfg.gru_epochs):
        erng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(8, epoch)))
        order = erng.permutation(starts.size)
        for s in range(0, order.size, batch):
            sel = order[s:s + batch]
            loss = dc.mse(predict(windows[sel]), Tensor(targets[sel]))
            dc.backward(loss)
            opt.step()

    history = train_n[-w:].copy()
    preds = [train_n[-1].copy()]
    with dc.no_grad():
        for _ in range(horizons[-1]):
            nxt = predict(history[None]).data[0]
            preds.append(nxt)
            history = np.vstack([history[1:], nxt])
    gru_pred = denorm(np.array(preds))

    return [SineComparisonReport(sindy_mse=sindy_mse, sin_coefficient=sin_coeff,
                                 gru_mse=float(np.mean((gru_pred[:h + 1] - test[:h + 1]) ** 2)))
            for h, sindy_mse in zip(horizons, sindy_mses)]
