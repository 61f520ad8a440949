"""Joint training of the sensor encoder, decoder, and latent dynamics.

The loop optimizes reconstruction plus a latent-dynamics penalty (ensemble
one-step rollouts, or m-step linear prediction in koopman mode), pruning each
ensemble member at its own threshold on a fixed epoch cadence. All randomness
derives from the config seed through counter-keyed streams, so runs and
resumed runs are bit-reproducible on one platform.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import struct
import sys
import time
import warnings
import zlib
from dataclasses import dataclass, field, fields, asdict

import numpy as np
import scipy.linalg

from . import diffcore as dc
from . import nets, sindy
from .data import WindowedDataset, _is_real
from .diffcore import Tensor
from .nets import DecoderParams, GruParams
from .sindy import LibrarySpec, SindyModel

CKPT_MAGIC = b"SHRD"
CKPT_VERSION = 1
ENCODE_CHUNK = 512  # windows per evaluation-mode encode: bounds the gather and GRU buffers


class ConfigError(ValueError):
    pass


class NumericalAbortError(RuntimeError):
    """A non-finite ``what`` ("loss" or "gradient") stopped training before the step."""

    def __init__(self, what: str, epoch: int, batch: int, breakdown: dict):
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}: {breakdown}")
        self.epoch = epoch
        self.batch = batch
        self.breakdown = breakdown


class SelectionError(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Accepted values per ShredConfig field annotation (kept as strings by the
# postponed annotations); an int is accepted where a float is declared.
_FIELD_CHECKS = {
    "int": _is_int,
    "float": _is_real,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "float | None": lambda v: v is None or _is_real(v),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
    "tuple[tuple[str, float], ...]": lambda v: isinstance(v, tuple) and all(
        isinstance(t, tuple) and len(t) == 2 and isinstance(t[0], str) and _is_real(t[1])
        for t in v),
}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Counter-keyed stream so every consumer of randomness is independently derived."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class ShredConfig:
    lag: int = 52
    latent_dim: int = 3
    epochs: int = 1000
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    dropout: float = 0.1
    dt: float = 1.0 / 52.0
    ministeps: int = 10
    threshold_interval: int = 100
    threshold_low: float = 0.1
    threshold_high: float = 1.0
    ensemble_size: int = 10
    poly_degree: int = 3
    include_constant: bool = True
    trig: tuple[tuple[str, float], ...] = ()
    mode: str = "sindy"
    seed: int = 0
    koopman_m_max: int = 1
    gru_layers: int = 2
    decoder_widths: tuple[int, ...] = (350, 400)
    sindy_loss_weight: float = 1.0
    grad_clip: float | None = None
    warmup_epochs: int = 0             # reconstruction-only epochs before the joint phase
    refit_on_prune: bool = False       # least-squares refit of active terms at each event

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _FIELD_CHECKS[f.type](value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # JSON admits NaN, Infinity and ints beyond float range; a real field
        # must hold a finite float.
        reals = [(f.name, getattr(self, f.name)) for f in fields(self)
                 if f.type in ("float", "float | None")]
        for name, value in reals + [("trig", freq) for _, freq in self.trig]:
            if value is not None and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be null or > 0, got {self.grad_clip}")
        positive = {"lag": self.lag, "latent_dim": self.latent_dim,
                    "batch_size": self.batch_size, "learning_rate": self.learning_rate,
                    "dt": self.dt, "ministeps": self.ministeps,
                    "threshold_interval": self.threshold_interval,
                    "ensemble_size": self.ensemble_size, "koopman_m_max": self.koopman_m_max,
                    "gru_layers": self.gru_layers}
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        non_negative = {"epochs": self.epochs, "warmup_epochs": self.warmup_epochs,
                        "seed": self.seed, "weight_decay": self.weight_decay,
                        "sindy_loss_weight": self.sindy_loss_weight}
        for name, value in non_negative.items():
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if any(width < 1 for width in self.decoder_widths):
            raise ConfigError(f"decoder_widths must each be >= 1, got {list(self.decoder_widths)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.threshold_low > self.threshold_high:
            raise ConfigError("threshold_low must be <= threshold_high")
        if self.threshold_low < 0:
            raise ConfigError("thresholds must be >= 0")
        if self.mode not in ("sindy", "koopman"):
            raise ConfigError(f"mode must be 'sindy' or 'koopman', got {self.mode!r}")
        if self.poly_degree < 1:
            raise ConfigError("poly_degree must be >= 1 (latent dynamics need linear terms)")

    def library(self) -> LibrarySpec:
        spec = LibrarySpec(dim=self.latent_dim, poly_degree=self.poly_degree,
                           include_constant=self.include_constant,
                           trig=tuple((k, float(f)) for k, f in self.trig))
        return sindy.koopman_restrict(spec) if self.mode == "koopman" else spec

    @property
    def horizon(self) -> int:
        """Frames after the first that a training sample spans: m_max for koopman, else 1."""
        return self.koopman_m_max if self.mode == "koopman" else 1

    @staticmethod
    def from_dict(d: dict) -> "ShredConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        kwargs = dict(d)
        # Configs and checkpoints from before the GRU had one width carry
        # "gru_hidden": null.
        if kwargs.pop("gru_hidden", None) is not None:
            raise ConfigError(f"gru_hidden must be null (every GRU layer is latent_dim "
                              f"wide), got {d['gru_hidden']!r}")
        unknown = set(kwargs) - set(ShredConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("trig", "decoder_widths"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(tuple(v) if isinstance(v, list) else v for v in kwargs[key])
        cfg = ShredConfig(**kwargs)
        cfg.validate()
        cfg.trig = tuple((k, float(f)) for k, f in cfg.trig)
        return cfg


@dataclass
class ShredModel:
    config: ShredConfig
    gru: GruParams
    decoder: DecoderParams
    spec: LibrarySpec
    masks: np.ndarray                               # (E, p, d) bool; E = 0 in koopman mode
    xi: list[Tensor] = field(default_factory=list)  # member e's coefficients, masked by masks[e]
    thresholds: list[float] = field(default_factory=list)
    K: Tensor | None = None
    selected_index: int | None = None
    extra: dict = field(default_factory=dict)       # sensors, scale, provenance
    optimizer: "dc.AdamW | None" = None             # set by train(); not serialized here

    @property
    def mode(self) -> str:
        return self.config.mode

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        params.update(self.gru.tensors())
        params.update(self.decoder.tensors())
        for i, xi in enumerate(self.xi):
            params[f"xi{i}"] = xi
        if self.K is not None:
            params["K"] = self.K
        return params

    def dynamics_param_names(self) -> set[str]:
        names = {f"xi{i}" for i in range(len(self.xi))}
        if self.K is not None:
            names.add("K")
        return names

    def dynamics_live(self) -> bool:
        """Whether the dynamics still act: a Koopman map, or any unpruned term."""
        return self.K is not None or bool(self.masks.any())

    def ensemble(self) -> SindyModel:
        """Every member as one masked (E, p, d) model."""
        Xi = np.where(self.masks, np.stack([xi.data for xi in self.xi]), 0.0)
        return SindyModel(spec=self.spec, Xi=Xi, mask=self.masks.copy(),
                          dt=self.config.dt, k=self.config.ministeps)

    def koopman_generator(self) -> np.ndarray:
        """Continuous column-convention generator from the learned one-frame map."""
        if self.K is None:
            raise SelectionError("model has no linear dynamics matrix")
        K_col = self.K.data.T
        G = scipy.linalg.logm(K_col) / self.config.dt
        if np.abs(G.imag).max() > 1e-6:
            warnings.warn("matrix log has a notable imaginary part; taking the real part",
                          stacklevel=2)
        return np.real(G)

    def selected_model(self) -> SindyModel:
        if self.mode == "koopman":
            Xi = self.koopman_generator().T
            return SindyModel(spec=self.spec, Xi=Xi, mask=np.abs(Xi) > 0,
                              dt=self.config.dt, k=self.config.ministeps)
        if self.selected_index is None:
            raise SelectionError("no ensemble member selected yet")
        return self.ensemble()[self.selected_index]

    def rollout_np(self, z0: np.ndarray, steps: int) -> np.ndarray:
        """Latent trajectory (steps + 1, d) from z0 under the learned dynamics.

        Koopman mode applies ``z @ K`` per frame; sindy mode rolls out the
        selected member. The finished trajectory raises RolloutDivergenceError
        at its first non-finite frame t >= 1.
        """
        if self.mode != "koopman":
            out = sindy.rollout(self.selected_model(), z0, steps)
        else:
            out = np.empty((steps + 1, z0.shape[-1]))
            out[0] = z0
            with np.errstate(over="ignore", invalid="ignore"):
                for t in range(steps):
                    out[t + 1] = out[t] @ self.K.data
        bad = ~np.isfinite(out[1:]).all(axis=1)
        if bad.any():
            raise sindy.RolloutDivergenceError(int(bad.argmax()) + 1)
        return out

    def encode_np(self, windows: np.ndarray) -> np.ndarray:
        """Evaluation-mode latents for a (n, L, S) stack of windows, ENCODE_CHUNK at a time."""
        windows = np.asarray(windows, dtype=np.float64)
        outs = []
        with dc.no_grad():
            for s in range(0, windows.shape[0], ENCODE_CHUNK):
                outs.append(nets.encode_window(windows[s:s + ENCODE_CHUNK], self.gru).data)
        return np.concatenate(outs, axis=0)

    def decode_np(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        with dc.no_grad():
            return nets.decode(Tensor(z), self.decoder, train_mode=False).data


def init_model(config: ShredConfig, n_sensors: int, n_space: int) -> ShredModel:
    config.validate()
    spec = config.library()
    gru, decoder = nets.init_params(config.seed, n_sensors,
                                    [config.latent_dim] * config.gru_layers,
                                    list(config.decoder_widths), n_space, config.dropout)
    members = config.ensemble_size if config.mode == "sindy" else 0
    shape = (spec.term_count, config.latent_dim)
    K = Tensor(np.eye(config.latent_dim), requires_grad=True) if config.mode == "koopman" else None
    return ShredModel(config=config, gru=gru, decoder=decoder, spec=spec, K=K,
                      masks=np.ones((members,) + shape, dtype=bool),
                      xi=[Tensor(np.zeros(shape), requires_grad=True) for _ in range(members)],
                      thresholds=sindy.threshold_ladder(config.threshold_low,
                                                        config.threshold_high, members))


def _latents(model: ShredModel, dataset: WindowedDataset,
             idx: np.ndarray) -> np.ndarray | None:
    """Evaluation-mode latents of the windows at ``idx``; None for fewer than three.

    Windows are gathered from the strided view one ENCODE_CHUNK at a time,
    so no copy of all the windows is ever held.
    """
    if idx.size < 3:
        return None
    return np.concatenate([model.encode_np(dataset.inputs[idx[s:s + ENCODE_CHUNK]])
                           for s in range(0, idx.size, ENCODE_CHUNK)])


def _initial_xi_estimate(model: ShredModel, dataset: WindowedDataset) -> None:
    """Seed every member's coefficients with a ridge fit to the first 2048 latents.

    Untrained-encoder latents are nearly constant, so the fit uses a ridge
    scaled to the feature gram and is discarded entirely if the implied
    one-frame Euler step would be unstable.
    """
    latents = _latents(model, dataset, np.unique(dataset.train_idx)[:2048])
    if latents is None:
        return
    dZ = sindy.finite_differences(latents, model.config.dt)
    # Row-major, so the column sums and products below keep their rounding.
    theta = np.ascontiguousarray(sindy.evaluate_library(latents, model.spec))
    ridge = max(1e-3 * float(np.mean(np.sum(theta * theta, axis=0))), 1e-9)
    try:
        estimate = sindy._solve_ridge(theta, dZ, ridge)
    except np.linalg.LinAlgError:
        return
    if float(np.abs(estimate).max()) * model.config.dt > 1.0:
        return
    for xi in model.xi:
        xi.data = estimate.copy()


class Batch:
    """G groups of nb windows, group m + 1 being group m one frame later.

    Each distinct window is stored once: ``distinct`` is (U, L, S) and
    ``rows[m, i]`` is the row of ``distinct`` that is window i of group m.
    ``targets`` is (G, nb, N), one target per window of every group.
    ``Batch(windows, targets)`` from G per-group (nb, L, S) window arrays and
    (nb, N) target arrays counts every row as distinct.
    """

    def __init__(self, windows, targets, rows: np.ndarray | None = None):
        if rows is None:
            groups = len(windows)
            windows = np.concatenate(windows, axis=0)
            rows = np.arange(windows.shape[0]).reshape(groups, -1)
        self.distinct = windows
        self.rows = rows
        self.targets = np.asarray(targets)

    @property
    def windows(self) -> list[np.ndarray]:
        """The G groups of windows, each (nb, L, S), gathered from ``distinct``."""
        return [self.distinct[r] for r in self.rows]


def make_batch(dataset: WindowedDataset, starts: np.ndarray, horizon: int) -> Batch:
    """The windows at ``starts + m`` for m = 0..horizon, each distinct one gathered once."""
    idx = np.asarray(starts) + np.arange(horizon + 1)[:, None]     # (G, nb)
    distinct, rows = np.unique(idx, return_inverse=True)
    return Batch(dataset.inputs[distinct], dataset.targets[idx], rows=rows.reshape(idx.shape))


def combined_loss(batch: Batch, model: ShredModel, train_mode: bool = False,
                  rng: np.random.Generator | None = None,
                  dynamics_enabled: bool = True) -> tuple[Tensor, dict]:
    """Reconstruction MSE plus the latent-dynamics penalty, with a per-term breakdown.

    The GRU encodes each of the batch's distinct windows once; one row gather
    then lays the latents out group by group (G·nb rows), and its backward
    sums the gradients of a window that several groups share. In evaluation
    mode no dropout tells a window's copies apart, so each distinct window is
    decoded once too and its reconstruction gathered the same way. Sparsity
    is enforced by the scheduled thresholding events, not by a differentiable
    term.
    """
    if batch.rows.shape[0] < 2:
        raise ConfigError("batch must contain adjacent window groups")
    encoded = nets.encode_window(batch.distinct, model.gru)
    rows = batch.rows.reshape(-1)
    latents = dc.gather_rows(encoded, rows)
    if train_mode:
        recon = nets.decode(latents, model.decoder, train_mode=True, rng=rng)
    else:
        recon = dc.gather_rows(nets.decode(encoded, model.decoder), rows)
    return loss_terms(batch, model, latents, recon, dynamics_enabled)


def loss_terms(batch: Batch, model: ShredModel, latents: Tensor, recon: Tensor,
               dynamics_enabled: bool = True) -> tuple[Tensor, dict]:
    """``combined_loss`` from the batch's (G·nb, d) latents and (G·nb, N) reconstructions."""
    groups, nb = batch.rows.shape
    recon_loss = dc.mse(recon, Tensor(batch.targets.reshape(groups * nb, -1)))

    parts = {"recon": float(recon_loss.data)}
    total = recon_loss
    if dynamics_enabled and model.config.sindy_loss_weight > 0:
        zs = [dc.slice_axis(latents, 0, m * nb, (m + 1) * nb) for m in range(groups)]
        if model.mode == "koopman":
            dyn = sindy.koopman_loss(zs, model.K, model.config.koopman_m_max)
        else:
            dyn = sindy.ensemble_sindy_loss(zs[0], zs[1], model.xi, model.masks,
                                            model.spec, model.config.dt,
                                            model.config.ministeps)
        parts["dynamics"] = float(dyn.data)
        total = total + dc.scale(dyn, model.config.sindy_loss_weight)
    else:
        parts["dynamics"] = 0.0
    parts["total"] = float(total.data)
    return total, parts


def _apply_masks(model: ShredModel) -> None:
    for xi, mask in zip(model.xi, model.masks):
        xi.data[~mask] = 0.0


def _prune_members(model: ShredModel) -> list[int]:
    pruned = sindy.threshold_prune(model.ensemble(), np.array(model.thresholds)[:, None, None])
    model.masks = pruned.mask
    for xi, Xi in zip(model.xi, pruned.Xi):
        xi.data = Xi
    return model.masks.sum(axis=(1, 2)).tolist()


def _refit(model: ShredModel, dataset: WindowedDataset) -> None:
    """Snap the dynamics to the one-frame least-squares optimum on the first 4096 latents.

    Koopman mode fits the linear map from each latent to the next. Sindy mode
    fits each member's active coefficients to forward differences of the
    latent trajectory, i.e. the exact optimum of the one-mini-step rollout
    loss; for k > 1 this is a second-order-accurate approximation that the
    gradient phase keeps polishing. Masks are untouched.
    """
    latents = _latents(model, dataset, np.unique(dataset.train_idx)[:4096])
    if latents is None:
        return
    if model.mode == "koopman":
        K, *_ = np.linalg.lstsq(latents[:-1], latents[1:], rcond=None)
        model.K.data = K
        return
    theta = sindy.evaluate_library(latents[:-1], model.spec)
    targets = (latents[1:] - latents[:-1]) / model.config.dt
    for xi, mask in zip(model.xi, model.masks):
        xi.data = sindy.polish(theta, targets, mask)


def _optimizer(model: ShredModel) -> dc.AdamW:
    """AdamW over every parameter, with no weight decay on the dynamics."""
    cfg = model.config
    return dc.AdamW(model.named_parameters(), lr=cfg.learning_rate,
                    weight_decay=cfg.weight_decay, grad_clip=cfg.grad_clip,
                    no_decay=model.dynamics_param_names())


def train(dataset: WindowedDataset, config: ShredConfig,
          resume_from=None) -> tuple[ShredModel, list[dict]]:
    """Run the full training schedule and return the model plus per-epoch log.

    The log records epoch, mean loss terms, per-member active-term counts, and
    wall time. With ``resume_from`` pointing at a checkpoint, training
    continues from the stored epoch and reproduces an uninterrupted run
    exactly, also after a prune that left every member null: whether the
    dynamics still act is read from the stored masks. The one exception:
    under ``refit_on_prune`` a run ends with a refit, which its checkpoint
    keeps, so only a checkpoint saved at a prune epoch resumes exactly.
    Koopman runs never prune.
    """
    config.validate()
    if dataset.n_windows < 2:
        raise ConfigError("dataset must contain at least two windows")
    n_sensors = dataset.inputs.shape[2]
    n_space = dataset.targets.shape[1]

    if resume_from is not None:
        model, optimizer, start_epoch = load_checkpoint(resume_from)
        # The stored config snapshot wins; only the target epoch count may move.
        model.config.epochs = config.epochs
        config = model.config
    else:
        model = init_model(config, n_sensors, n_space)
        optimizer = _optimizer(model)
        start_epoch = 0

    max_start = int(dataset.train_idx.max()) - config.horizon if dataset.train_idx.size else -1
    starts_pool = dataset.train_idx[dataset.train_idx <= max_start]
    if config.epochs > 0 and starts_pool.size == 0:
        raise ConfigError("training split has no adjacent window pairs")

    log: list[dict] = []
    for epoch in range(start_epoch + 1, config.epochs + 1):
        t0 = time.perf_counter()
        in_warmup = epoch <= config.warmup_epochs
        if config.mode == "sindy" and epoch == config.warmup_epochs + 1:
            _initial_xi_estimate(model, dataset)
        use_dynamics = (model.dynamics_live() and not in_warmup
                        and config.sindy_loss_weight > 0)
        shuffle_rng = rng_for(config.seed, 1, epoch)
        order = shuffle_rng.permutation(starts_pool)
        sums = {"total": 0.0, "recon": 0.0, "dynamics": 0.0}
        n_batches = 0
        for bi, s in enumerate(range(0, order.size, config.batch_size)):
            starts = order[s:s + config.batch_size]
            batch = make_batch(dataset, starts, config.horizon)
            drop_rng = rng_for(config.seed, 2, epoch, bi)
            loss, parts = combined_loss(batch, model, train_mode=True, rng=drop_rng,
                                        dynamics_enabled=use_dynamics)
            if not np.isfinite(parts["total"]):
                raise NumericalAbortError("loss", epoch, bi, parts)
            dc.backward(loss)
            if not use_dynamics:
                # Dynamics params sit outside the graph during warmup and once
                # every member prunes to null; freeze them explicitly.
                for name in model.dynamics_param_names():
                    p = optimizer.params[name]
                    if p.grad is None:
                        p.grad = np.zeros(p.shape)
            # One sum over all gradients: any NaN or inf in them makes it non-finite.
            if not math.isfinite(sum(float(p.grad.sum()) for p in optimizer.params.values()
                                     if p.grad is not None)):
                bad = [name for name, p in optimizer.params.items()
                       if p.grad is not None and not np.all(np.isfinite(p.grad))]
                raise NumericalAbortError("gradient", epoch, bi, {"parameters": bad})
            optimizer.step()
            _apply_masks(model)
            for k in sums:
                sums[k] += parts[k]
            n_batches += 1

        record = {"epoch": epoch,
                  "loss": sums["total"] / n_batches,
                  "recon": sums["recon"] / n_batches,
                  "dynamics": sums["dynamics"] / n_batches}
        joint_epoch = epoch - config.warmup_epochs
        if config.mode == "sindy":
            if joint_epoch > 0 and joint_epoch % config.threshold_interval == 0:
                was_live = model.dynamics_live()
                record["nnz"] = _prune_members(model)
                record["pruned"] = True
                if was_live and not model.dynamics_live():
                    warnings.warn("every ensemble member pruned to the null model; "
                                  "continuing with reconstruction loss only", stacklevel=2)
            else:
                record["nnz"] = model.masks.sum(axis=(1, 2)).tolist()
        if (config.refit_on_prune and ("pruned" in record or epoch == config.epochs)
                and model.dynamics_live()):
            _refit(model, dataset)
        record["wall_time"] = time.perf_counter() - t0
        log.append(record)

    if config.epochs > 0 and model.xi:
        latents = _selection_latents(model, dataset)
        if latents is not None:
            try:
                model.selected_index, _, _ = select_discovered_model(model, latents)
            except SelectionError:
                model.selected_index = None
    model.optimizer = optimizer
    return model, log


def _selection_latents(model: ShredModel, dataset: WindowedDataset) -> np.ndarray | None:
    idx = dataset.val_idx if dataset.val_idx.size >= 3 else np.unique(dataset.train_idx)
    return _latents(model, dataset, idx)


def _rollout_mses(ensemble: SindyModel, latents: np.ndarray) -> list[float]:
    """Each member's MSE on one stacked rollout from ``latents[0]``; inf where non-finite."""
    members = ensemble.Xi.shape[0]
    traj = sindy.rollout(ensemble, np.tile(latents[0], (members, 1)), len(latents) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        mses = [float(np.mean((traj[:, e] - latents) ** 2)) for e in range(members)]
    return [m if math.isfinite(m) else math.inf for m in mses]


def select_discovered_model(model: ShredModel,
                            latents: np.ndarray) -> tuple[int, SindyModel, str]:
    """Pick the sparsest member whose validation rollout MSE is within 10% of the best.

    Every member starts from the first validation latent and runs for the
    whole span with no corrections, all members in one stacked rollout; a
    member whose trajectory goes non-finite scores inf.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[0] < 2:
        raise SelectionError("need a latent trajectory with at least 2 rows")
    ensemble = model.ensemble()
    mses = _rollout_mses(ensemble, latents)
    best = min(mses)
    if not math.isfinite(best):
        raise SelectionError(f"all ensemble members diverge on validation rollout: {mses}")
    candidates = [i for i, m in enumerate(mses) if m <= best * 1.1]
    nnz = model.masks.sum(axis=(1, 2))
    chosen = min(candidates, key=lambda i: (nnz[i], i))
    return chosen, ensemble[chosen], sindy.equations_text(ensemble[chosen])


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

def _write_section(f, name: str, array: np.ndarray) -> None:
    name_b = name.encode()
    arr = np.ascontiguousarray(array, dtype="<f8")
    dims = arr.shape
    head = struct.pack("<H", len(name_b)) + name_b + struct.pack("<B", arr.ndim)
    head += b"".join(struct.pack("<Q", d) for d in dims)
    payload = arr.tobytes()
    crc = zlib.crc32(name_b + payload) & 0xFFFFFFFF
    f.write(head)
    f.write(payload)
    f.write(struct.pack("<I", crc))


def _read_sections(raw: bytes, off: int) -> dict[str, np.ndarray]:
    out = {}
    n = len(raw)
    while off < n:
        name = "<unknown>"
        start = off
        try:
            (name_len,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off:off + name_len].decode()
            off += name_len
            (ndims,) = struct.unpack_from("<B", raw, off)
            off += 1
            if ndims > 64:
                raise CheckpointError(f"section {name!r}: {ndims} dimensions; "
                                      f"numpy arrays have at most 64")
            dims = struct.unpack_from(f"<{ndims}Q", raw, off)
            off += 8 * ndims
            count = math.prod(dims)
            payload = raw[off:off + 8 * count]
            if len(payload) < 8 * count:
                raise CheckpointError(f"section {name!r}: truncated payload")
            off += 8 * count
            (crc,) = struct.unpack_from("<I", raw, off)
            off += 4
        except struct.error:
            raise CheckpointError(f"section {name!r}: truncated container") from None
        except UnicodeDecodeError:
            raise CheckpointError(f"section at byte {start}: name is not UTF-8") from None
        if zlib.crc32(name.encode() + payload) & 0xFFFFFFFF != crc:
            raise CheckpointError(f"section {name!r}: checksum mismatch")
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return out


def save_checkpoint(model: ShredModel, optimizer: dc.AdamW, epoch: int, path) -> None:
    header = {"config": asdict(model.config), "epoch": int(epoch),
              "adam_step": int(optimizer.step_count),
              "selected_index": model.selected_index,
              "thresholds": list(model.thresholds),
              "extra": model.extra}
    header_b = json.dumps(header).encode()
    # Write beside the target and rename over it, so a write that fails
    # midway leaves the previous checkpoint at ``path`` intact.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<I", CKPT_VERSION))
            f.write(struct.pack("<I", len(header_b)))
            f.write(header_b)
            for name, tensor in model.named_parameters().items():
                _write_section(f, name, tensor.data)
            for i, mask in enumerate(model.masks):
                _write_section(f, f"mask{i}", mask.astype(np.float64))
            for name, arr in optimizer.state_arrays().items():
                _write_section(f, name, arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# Header keys every checkpoint carries, and the values each one accepts.
_HEADER_CHECKS = {
    "config": lambda v: isinstance(v, dict),
    "epoch": lambda v: _is_int(v) and v >= 0,
    "adam_step": lambda v: _is_int(v) and v >= 0,
    "selected_index": lambda v: v is None or (_is_int(v) and v >= 0),
    "thresholds": lambda v: isinstance(v, list) and all(_is_real(t) and t >= 0 for t in v),
}


def load_checkpoint(path) -> tuple[ShredModel, dc.AdamW, int]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CKPT_MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}; expected {CKPT_MAGIC.decode()}")
    if len(raw) < 12:
        raise CheckpointError(f"truncated header at byte {len(raw)}: the fixed header has 12 bytes")
    version, hlen = struct.unpack_from("<II", raw, 4)
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if len(raw) < 12 + hlen:
        raise CheckpointError(f"truncated header at byte {len(raw)}: "
                              f"the JSON header ends at byte {12 + hlen}")
    try:
        header = json.loads(raw[12:12 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"header at byte 12 is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    for key, check in _HEADER_CHECKS.items():
        if key not in header:
            raise CheckpointError(f"header lacks key {key!r}")
        if not check(header[key]):
            raise CheckpointError(f"header key {key!r} has an invalid value {header[key]!r}")
    if not isinstance(header.get("extra", {}), dict):
        raise CheckpointError("header key 'extra' is not a JSON object")
    sections = _read_sections(raw, 12 + hlen)

    def section(name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        if name not in sections:
            raise CheckpointError(f"missing section {name!r}")
        if shape is not None and sections[name].shape != shape:
            raise CheckpointError(f"section {name!r} has shape {sections[name].shape}; "
                                  f"the header's config needs {shape}")
        return sections[name]

    try:
        config = ShredConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointError(f"header config: {exc}") from None
    # The sensor and pixel counts that every other section is checked against.
    W_in, W_out = section("gru0.W_u"), section("dec_out.W")
    if W_in.ndim != 2 or W_out.ndim != 2 or W_in.shape[0] == 0:
        raise CheckpointError(f"sections 'gru0.W_u' {W_in.shape} and 'dec_out.W' "
                              f"{W_out.shape} must be matrices, with at least one sensor")
    model = init_model(config, W_in.shape[0], W_out.shape[1])
    if header["selected_index"] is not None and header["selected_index"] >= len(model.xi):
        raise CheckpointError(f"selected_index {header['selected_index']} out of range "
                              f"for {len(model.xi)} ensemble members")
    if header["thresholds"] and len(header["thresholds"]) != len(model.xi):
        raise CheckpointError(f"{len(header['thresholds'])} thresholds "
                              f"for {len(model.xi)} ensemble members")
    for name, tensor in model.named_parameters().items():
        tensor.data = section(name, tensor.shape).astype(np.float64)
    for i in range(len(model.masks)):
        model.masks[i] = section(f"mask{i}", model.masks.shape[1:]).astype(bool)
    if header["thresholds"]:
        model.thresholds = [float(t) for t in header["thresholds"]]
    model.selected_index = header["selected_index"]
    model.extra = header.get("extra", {})
    optimizer = _optimizer(model)
    optimizer.load_state_arrays({name: section(name, arr.shape)
                                 for name, arr in optimizer.state_arrays().items()},
                                header["adam_step"])
    model.optimizer = optimizer
    return model, optimizer, int(header["epoch"])
