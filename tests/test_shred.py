"""Training loop, combined loss, selection, and checkpoint container."""

import json
import struct
import warnings
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from shredkit import data, diffcore as dc, evaluation, nets, shred, sindy
from shredkit.diffcore import Tensor
from shredkit.shred import Batch, ShredConfig, ShredModel


def _tiny_dataset(seed=0, t=300, grid=(8, 8), n_sensors=10, lag=10, omega=2 * np.pi,
                  duplicate_tail_fraction=0.0):
    fld, _ = data.gen_modal_field(grid, [(0, 1.0, omega, 0.3)], n_frames=t,
                                  dt=0.02, noise=0.01, seed=seed)
    fld = data.standardize(fld)
    sensors = data.select_sensors(fld, n_sensors, seed=seed + 1)
    return data.make_windows(fld, sensors, lag=lag,
                             duplicate_tail_fraction=duplicate_tail_fraction)


def _tiny_config(**over):
    base = dict(lag=10, latent_dim=2, epochs=5, batch_size=64, dt=0.02, ministeps=3,
                threshold_interval=2, threshold_low=0.2, threshold_high=2.0,
                ensemble_size=3, poly_degree=2, decoder_widths=(16,), dropout=0.1,
                seed=0)
    base.update(over)
    return ShredConfig(**base)


def _strip(log):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in log]


# ---------------------------------------------------------------------------
# combined_loss
# ---------------------------------------------------------------------------

def test_combined_loss_zero_decoder_gives_target_variance():
    ds = _tiny_dataset()
    cfg = _tiny_config()
    model = shred.init_model(cfg, n_sensors=10, n_space=64)
    for name, p in model.decoder.tensors().items():
        p.data[:] = 0.0
    starts = ds.train_idx[:32]
    batch = shred.make_batch(ds, starts, horizon=1)
    targets = np.concatenate(batch.targets, axis=0)
    targets -= targets.mean()
    batch = Batch(windows=batch.windows, targets=[targets[:32], targets[32:]])
    _, parts = shred.combined_loss(batch, model)
    assert abs(parts["recon"] - np.mean(targets ** 2)) < 1e-12


def test_combined_loss_zero_xi_constant_latents():
    cfg = _tiny_config(dropout=0.0)
    model = shred.init_model(cfg, n_sensors=4, n_space=6)
    for p in model.gru.tensors().values():
        p.data[:] = 0.0  # zero GRU -> identically zero latents
    for xi in model.xi:
        xi.data[:] = 0.0
    windows = np.random.default_rng(0).standard_normal((8, cfg.lag, 4))
    batch = Batch(windows=[windows, windows], targets=[np.zeros((8, 6))] * 2)
    _, parts = shred.combined_loss(batch, model)
    assert parts["dynamics"] == 0.0


def test_combined_loss_koopman_identity_constant_latents():
    cfg = _tiny_config(mode="koopman", dropout=0.0)
    model = shred.init_model(cfg, n_sensors=4, n_space=6)
    for p in model.gru.tensors().values():
        p.data[:] = 0.0
    windows = np.random.default_rng(1).standard_normal((8, cfg.lag, 4))
    batch = Batch(windows=[windows, windows], targets=[np.zeros((8, 6))] * 2)
    _, parts = shred.combined_loss(batch, model)
    assert parts["dynamics"] == 0.0


def test_combined_loss_requires_adjacent_groups():
    cfg = _tiny_config()
    model = shred.init_model(cfg, n_sensors=4, n_space=6)
    batch = Batch(windows=[np.zeros((2, cfg.lag, 4))], targets=[np.zeros((2, 6))])
    with pytest.raises(shred.ConfigError):
        shred.combined_loss(batch, model)


def test_gradient_flow_through_all_components():
    ds = _tiny_dataset()
    cfg = _tiny_config(dropout=0.0)
    model = shred.init_model(cfg, ds.inputs.shape[2], ds.targets.shape[1])
    shred._initial_xi_estimate(model, ds)
    batch = shred.make_batch(ds, ds.train_idx[:16], horizon=1)
    loss, _ = shred.combined_loss(batch, model)
    dc.backward(loss)
    for name, p in model.gru.tensors().items():
        assert p.grad is not None and np.any(p.grad != 0), name
    for name, p in model.decoder.tensors().items():
        assert p.grad is not None and np.any(p.grad != 0), name
    for i, xi in enumerate(model.xi):
        active = model.masks[i]
        assert xi.grad is not None and np.all(xi.grad[active] != 0), f"xi{i}"


def _dedup_case(case):
    """A dataset, a model and starts whose windows overlap across the batch's groups."""
    if case == "duplicate_tail":
        ds = _tiny_dataset(duplicate_tail_fraction=0.2)
        starts = ds.train_idx[-60:]
        assert np.unique(starts).size < starts.size
    else:
        ds = _tiny_dataset()
        starts = ds.train_idx[10:74]
    cfg = _tiny_config(mode="koopman", koopman_m_max=3) if case == "koopman" else _tiny_config()
    model = shred.init_model(cfg, ds.inputs.shape[2], ds.targets.shape[1])
    if cfg.mode == "sindy":
        shred._initial_xi_estimate(model, ds)
    return ds, model, starts


def _all_distinct_batch(ds, starts, horizon):
    return Batch([ds.inputs[starts + m] for m in range(horizon + 1)],
                 [ds.targets[starts + m] for m in range(horizon + 1)])


@pytest.mark.parametrize("case", ["sindy", "koopman", "duplicate_tail"])
def test_make_batch_loss_equals_all_distinct_batch(case):
    ds, model, starts = _dedup_case(case)
    horizon = model.config.horizon
    batch = shred.make_batch(ds, starts, horizon)
    assert batch.distinct.shape[0] < batch.rows.size
    with dc.no_grad():
        got, got_parts = shred.combined_loss(batch, model)
        want, want_parts = shred.combined_loss(_all_distinct_batch(ds, starts, horizon), model)
    assert got.data == want.data and got_parts == want_parts
    assert got_parts["dynamics"] > 0.0


@pytest.mark.parametrize("case", ["sindy", "koopman", "duplicate_tail"])
def test_make_batch_train_mode_matches_all_distinct_batch(case):
    ds, model, starts = _dedup_case(case)
    horizon = model.config.horizon
    params = model.named_parameters()
    results = []
    for batch in (shred.make_batch(ds, starts, horizon), _all_distinct_batch(ds, starts, horizon)):
        for p in params.values():
            p.zero_grad()
        loss, parts = shred.combined_loss(batch, model, train_mode=True,
                                          rng=shred.rng_for(0, 2, 1, 0))
        dc.backward(loss)
        results.append((parts, {n: p.grad.copy() for n, p in params.items()}))
    (got_parts, got), (want_parts, want) = results
    assert got_parts == want_parts
    for name in want:
        scale = max(float(np.abs(want[name]).max()), 1e-300)
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("mode, rows", [("sindy", 129), ("koopman", 128 + 3)])
def test_landscape_loss_encodes_each_distinct_window_once(monkeypatch, mode, rows):
    ds = _tiny_dataset()
    model = shred.init_model(_tiny_config(mode=mode, koopman_m_max=3),
                             ds.inputs.shape[2], ds.targets.shape[1])
    encoded = []
    encode = nets.encode_window

    def record(window, params):
        encoded.append(window.shape[0])
        return encode(window, params)

    monkeypatch.setattr(nets, "encode_window", record)
    evaluation.batch_loss_fn(model, ds)()
    assert encoded == [rows]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_epochs_returns_initialized_model():
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=0)
    model, log = shred.train(ds, cfg)
    assert log == []
    fresh_gru, _ = nets.init_params(cfg.seed, ds.inputs.shape[2], [cfg.latent_dim] * cfg.gru_layers,
                                    list(cfg.decoder_widths), ds.targets.shape[1])
    for a, b in zip(model.gru.tensors().values(), fresh_gru.tensors().values()):
        assert np.array_equal(a.data, b.data)
    assert all(np.all(xi.data == 0.0) for xi in model.xi)  # no joint epoch, no estimate


@pytest.mark.parametrize("warmup", [0, 2])
def test_train_applies_initial_estimate_once_at_first_joint_epoch(monkeypatch, warmup):
    events = []
    estimate, loss, rng_for = shred._initial_xi_estimate, shred.combined_loss, shred.rng_for

    def record_estimate(model, dataset):
        events.append("estimate")
        estimate(model, dataset)

    def record_loss(batch, model, **kw):
        events.append("joint" if kw["dynamics_enabled"] else "warmup")
        return loss(batch, model, **kw)

    def record_epoch(seed, *key):
        if key[0] == 1:  # the per-epoch shuffle stream
            events.append(f"epoch {key[1]}")
        return rng_for(seed, *key)

    monkeypatch.setattr(shred, "_initial_xi_estimate", record_estimate)
    monkeypatch.setattr(shred, "combined_loss", record_loss)
    monkeypatch.setattr(shred, "rng_for", record_epoch)
    cfg = _tiny_config(epochs=4, warmup_epochs=warmup, threshold_interval=10)
    shred.train(_tiny_dataset(), cfg)
    assert events.count("estimate") == 1
    at = events.index("estimate")
    assert events[at + 1] == f"epoch {warmup + 1}"
    assert set(events[:at]) <= {"warmup"} | {f"epoch {e}" for e in range(1, warmup + 1)}
    assert ("warmup" in events) == bool(warmup)
    assert "warmup" not in events[at:]


def test_config_horizon_is_m_max_in_koopman_mode_only():
    assert _tiny_config(koopman_m_max=3).horizon == 1
    assert _tiny_config(mode="koopman", koopman_m_max=3).horizon == 3


def test_train_smoke_loss_drops():
    fld, _ = data.gen_modal_field((8, 8), [(0, 1.0, 2 * np.pi, 0.0)], n_frames=2000,
                                  dt=0.02, noise=0.01, seed=3)
    fld = data.standardize(fld)
    sensors = data.select_sensors(fld, 20, seed=4)
    ds = data.make_windows(fld, sensors, lag=10)
    cfg = _tiny_config(epochs=50, threshold_interval=20, threshold_low=0.05,
                       threshold_high=0.5, decoder_widths=(32,), seed=5)
    model, log = shred.train(ds, cfg)
    assert log[-1]["loss"] < 0.25 * log[0]["loss"]


def test_train_thresholding_event_count():
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=10, threshold_interval=2)
    _, log = shred.train(ds, cfg)
    events = [r for r in log if r.get("pruned")]
    assert len(events) == 5
    assert [r["epoch"] for r in events] == [2, 4, 6, 8, 10]


def test_train_nnz_monotone_across_events():
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=10, threshold_interval=2, threshold_low=0.05,
                       threshold_high=0.5)
    _, log = shred.train(ds, cfg)
    events = [r["nnz"] for r in log if r.get("pruned")]
    for earlier, later in zip(events, events[1:]):
        assert all(l <= e for e, l in zip(earlier, later))


def test_prune_members_thresholds_each_member_at_its_own_level():
    model = shred.init_model(_tiny_config(ensemble_size=2, poly_degree=1, threshold_low=0.1,
                                          threshold_high=0.5), n_sensors=2, n_space=3)
    coeffs = np.array([[0.05, 0.3], [0.6, -0.2], [0.1, 0.0]])  # terms 1, z1, z2
    for xi in model.xi:
        xi.data = coeffs.copy()
    assert shred._prune_members(model) == [4, 1]
    for mask, xi, thr in zip(model.masks, model.xi, (0.1, 0.5)):
        assert np.array_equal(mask, np.abs(coeffs) >= thr)
        assert np.array_equal(xi.data, np.where(mask, coeffs, 0.0))


def test_refit_equals_the_member_by_member_column_loop():
    ds = _tiny_dataset()
    model = shred.init_model(_tiny_config(), n_sensors=10, n_space=64)
    rng = np.random.default_rng(4)
    model.masks = rng.random(model.masks.shape) < 0.6
    model.masks[1, :, 0] = False
    shred._refit(model, ds)
    latents = shred._latents(model, ds, np.unique(ds.train_idx)[:4096])
    theta = sindy.evaluate_library(latents[:-1], model.spec)
    targets = (latents[1:] - latents[:-1]) / model.config.dt
    for xi, mask in zip(model.xi, model.masks):
        want = np.zeros(mask.shape)
        for j in range(mask.shape[1]):
            if mask[:, j].any():
                want[mask[:, j], j] = np.linalg.lstsq(theta[:, mask[:, j]], targets[:, j],
                                                      rcond=None)[0]
        assert np.array_equal(xi.data, want)


def test_train_null_guard_warns_and_continues():
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=4, threshold_interval=1, threshold_low=50.0,
                       threshold_high=100.0)
    with pytest.warns(UserWarning, match="null model"):
        model, log = shred.train(ds, cfg)
    assert len(log) == 4
    assert all(np.isfinite(r["loss"]) for r in log)


@pytest.mark.parametrize("grad_clip", [None, 1.0])
def test_train_aborts_on_non_finite_gradient_before_the_step(nan_relu_gradient, monkeypatch,
                                                             grad_clip):
    steps = []
    step = dc.AdamW.step
    monkeypatch.setattr(dc.AdamW, "step", lambda self: steps.append(1) or step(self))
    with pytest.raises(shred.NumericalAbortError,
                       match=r"^non-finite gradient at epoch 1, batch 0: ") as info:
        shred.train(_tiny_dataset(), _tiny_config(epochs=2, grad_clip=grad_clip))
    assert steps == []
    assert (info.value.epoch, info.value.batch) == (1, 0)
    bad = info.value.breakdown["parameters"]
    assert "dec0.W" in bad and "gru0.W_u" in bad
    assert "dec_out.W" not in bad


def test_train_deterministic_logs_and_params():
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=6)
    m1, l1 = shred.train(ds, cfg)
    m2, l2 = shred.train(ds, cfg)
    assert json.dumps(_strip(l1)) == json.dumps(_strip(l2))
    for a, b in zip(m1.named_parameters().values(), m2.named_parameters().values()):
        assert np.array_equal(a.data, b.data)


def test_default_config_is_reference_protocol():
    cfg = ShredConfig()
    cfg.validate()
    assert cfg.lag == 52 and cfg.latent_dim == 3
    assert cfg.epochs == 1000 and cfg.batch_size == 128
    assert (cfg.threshold_low, cfg.threshold_high) == (0.1, 1.0)
    assert cfg.threshold_interval == 100 and cfg.ensemble_size == 10
    assert cfg.learning_rate == 1e-3 and cfg.weight_decay == 1e-2
    assert cfg.dropout == 0.1 and cfg.poly_degree == 3
    assert cfg.gru_layers == 2 and cfg.decoder_widths == (350, 400)
    assert cfg.dt == 1.0 / 52.0 and cfg.ministeps == 10


def test_train_rejects_invalid_config():
    ds = _tiny_dataset()
    with pytest.raises(shred.ConfigError):
        shred.train(ds, _tiny_config(threshold_low=2.0, threshold_high=1.0))
    with pytest.raises(shred.ConfigError):
        shred.train(ds, _tiny_config(mode="other"))
    with pytest.raises(shred.ConfigError):
        shred.train(ds, _tiny_config(dropout=1.0))


@pytest.mark.parametrize("epochs", [4, 5])
def test_refit_once_per_prune_event_and_once_at_the_end(monkeypatch, epochs):
    refit = shred._refit
    calls = []
    monkeypatch.setattr(shred, "_refit", lambda model, ds: calls.append(1) or refit(model, ds))
    _, log = shred.train(_tiny_dataset(), _tiny_config(epochs=epochs, refit_on_prune=True))
    events = [r["epoch"] for r in log if r.get("pruned")]
    assert events == [2, 4] and all(any(r["nnz"]) for r in log)
    # The refit after the loop serves a prune event at the final epoch too.
    assert len(calls) == sum(e < epochs for e in events) + 1


_INT_FIELDS = ["lag", "latent_dim", "epochs", "batch_size", "ministeps", "threshold_interval",
               "ensemble_size", "poly_degree", "seed", "koopman_m_max", "gru_layers",
               "warmup_epochs", "gru_hidden"]
_FLOAT_FIELDS = ["learning_rate", "weight_decay", "dropout", "dt", "threshold_low",
                 "threshold_high", "sindy_loss_weight", "grad_clip"]


@pytest.mark.parametrize("name", _INT_FIELDS)
@pytest.mark.parametrize("value", ["26", 26.0, True, [26]])
def test_config_rejects_non_integer(name, value):
    with pytest.raises(shred.ConfigError, match=name):
        ShredConfig.from_dict({name: value})


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", ["0.1", False, [0.1]])
def test_config_rejects_non_number(name, value):
    with pytest.raises(shred.ConfigError, match=name):
        ShredConfig.from_dict({name: value})


@pytest.mark.parametrize("name, value", [
    ("include_constant", 1), ("refit_on_prune", "yes"), ("mode", 1),
    ("decoder_widths", [12.5]), ("decoder_widths", "12"), ("decoder_widths", 12),
    ("trig", [["sin"]]), ("trig", [["sin", "1"]]), ("trig", [[1, 1.0]]), ("trig", 5),
])
def test_config_rejects_wrong_types(name, value):
    with pytest.raises(shred.ConfigError, match=name):
        ShredConfig.from_dict({name: value})


def test_config_json_is_the_old_to_dict_json():
    cfg = ShredConfig.from_dict({"trig": [["sin", 1], ["cos", 0.5]], "decoder_widths": [12, 8],
                                 "grad_clip": 2.5})
    assert json.dumps(asdict(cfg)) == (
        '{"lag": 52, "latent_dim": 3, "epochs": 1000, "batch_size": 128, "learning_rate": 0.001, '
        '"weight_decay": 0.01, "dropout": 0.1, "dt": 0.019230769230769232, "ministeps": 10, '
        '"threshold_interval": 100, "threshold_low": 0.1, "threshold_high": 1.0, '
        '"ensemble_size": 10, "poly_degree": 3, "include_constant": true, '
        '"trig": [["sin", 1.0], ["cos", 0.5]], "mode": "sindy", "seed": 0, "koopman_m_max": 1, '
        '"gru_layers": 2, "decoder_widths": [12, 8], "sindy_loss_weight": 1.0, '
        '"grad_clip": 2.5, "warmup_epochs": 0, "refit_on_prune": false}')


def test_config_accepts_ints_for_floats_and_lists_for_tuples():
    cfg = ShredConfig.from_dict({"dt": 1, "grad_clip": 5, "sindy_loss_weight": 0,
                                 "gru_hidden": None, "decoder_widths": [12, 8],
                                 "trig": [["sin", 1]]})
    assert cfg.decoder_widths == (12, 8)
    assert cfg.trig == (("sin", 1.0),) and isinstance(cfg.trig[0][1], float)
    assert ShredConfig.from_dict(asdict(cfg)) == cfg


@pytest.mark.parametrize("name, value", [
    ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", 0), ("grad_clip", float("nan")),
    ("grad_clip", float("inf")), ("sindy_loss_weight", -1.0),
    ("sindy_loss_weight", float("inf")), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("weight_decay", float("nan")),
    ("threshold_low", float("nan")), ("threshold_high", float("inf")),
    ("dt", float("nan")), ("dropout", float("nan")),
    pytest.param("learning_rate", 10 ** 400, id="learning_rate-int-beyond-float"),
    ("trig", [["sin", float("nan")]]), ("trig", [["cos", float("-inf")]]),
])
def test_config_rejects_values_that_give_wrong_answers(name, value):
    with pytest.raises(shred.ConfigError, match=name):
        ShredConfig.from_dict({name: value})


def test_config_from_dict_rejects_non_object():
    with pytest.raises(shred.ConfigError, match="object"):
        ShredConfig.from_dict([["lag", 8]])


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def _selection_model(xis, masks, dt=0.05, k=4, d=2):
    spec = sindy.LibrarySpec(dim=d, poly_degree=1, include_constant=False)
    cfg = _tiny_config(latent_dim=d, poly_degree=1, include_constant=False,
                       ensemble_size=len(xis), dt=dt, ministeps=k, dropout=0.0)
    model = shred.init_model(cfg, n_sensors=3, n_space=4)
    model.spec = spec
    model.xi = [Tensor(np.asarray(x, float), requires_grad=True) for x in xis]
    model.masks = np.array(masks, bool)
    model.thresholds = list(np.linspace(0.1, 1.0, len(xis)))
    return model


def _oscillator_latents(n=60, dt=0.05):
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    import scipy.linalg
    E = scipy.linalg.expm(dt * G)
    Z = np.empty((n, 2))
    Z[0] = [1.0, 0.0]
    for t in range(n - 1):
        Z[t + 1] = E @ Z[t]
    return Z, G


def test_select_singleton_ensemble():
    Z, G = _oscillator_latents()
    model = _selection_model([G.T], [np.ones((2, 2), bool)])
    idx, member, text = shred.select_discovered_model(model, Z)
    assert idx == 0
    assert "dz1/dt" in text


def test_select_parsimony_tiebreak():
    Z, G = _oscillator_latents()
    xi = G.T
    loose_mask = np.ones((2, 2), bool)          # nnz 4, same rollout
    tight_mask = np.abs(xi) > 0                 # nnz 2, same rollout
    model = _selection_model([xi, xi.copy()], [loose_mask, tight_mask])
    idx, member, _ = shred.select_discovered_model(model, Z)
    assert idx == 1
    assert member.nnz == 2


def test_select_rejects_sparse_but_bad_member():
    Z, G = _oscillator_latents()
    bad = np.zeros((2, 2))                       # null model: frozen latent
    bad_mask = np.zeros((2, 2), bool)
    bad_mask[0, 0] = True                        # nnz 1 but poor rollout
    model = _selection_model([G.T, bad], [np.ones((2, 2), bool), bad_mask])
    idx, _, _ = shred.select_discovered_model(model, Z)
    assert idx == 0


def test_select_mses_match_one_member_rollouts_and_divergence_scores_inf():
    rng = np.random.default_rng(5)
    Z, G = _oscillator_latents()
    xis = [G.T + 0.05 * rng.standard_normal((2, 2)) for _ in range(4)]
    xis[2] = 1e200 * xis[2]
    masks = [np.ones((2, 2), bool), np.abs(xis[1]) > 0.5, np.ones((2, 2), bool),
             np.eye(2, dtype=bool)]
    model = _selection_model(xis, masks, k=3)
    ensemble = model.ensemble()
    members = [ensemble[i] for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mses = shred._rollout_mses(ensemble, Z)
    assert mses[2] == np.inf
    for e in (0, 1, 3):
        own = float(np.mean((sindy.rollout(members[e], Z[0], Z.shape[0] - 1) - Z) ** 2))
        assert np.isfinite(own) and mses[e] == own


def test_rollout_np_reports_first_non_finite_frame():
    # zdot = z^3 from z = 2 overflows after several frames; the trajectory
    # carries the non-finite state, and rollout_np raises at its first frame.
    xi = np.array([[0.0], [0.0], [1.0]])
    model = _selection_model([xi], [xi != 0], dt=0.1, k=5, d=1)
    model.spec = sindy.LibrarySpec(dim=1, poly_degree=3, include_constant=False)
    model.selected_index = 0
    member = model.selected_model()
    z, frame = np.array([2.0]), None
    for t in range(1, 100):
        z = sindy.sindy_cell(z, member)
        if not np.isfinite(z).all():
            frame = t
            break
    assert frame is not None and frame > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sindy.RolloutDivergenceError) as info:
            model.rollout_np(np.array([2.0]), 99)
    assert info.value.frame == frame
    assert str(info.value) == f"non-finite state at frame {frame}"
    assert info.value.__cause__ is None


def test_select_all_divergent_raises():
    Z, _ = _oscillator_latents()
    blow = np.array([[50.0, 0.0], [0.0, 50.0]])
    model = _selection_model([blow], [np.ones((2, 2), bool)], dt=5.0, k=200)
    with pytest.raises(shred.SelectionError, match="diverge"):
        shred.select_discovered_model(model, Z)


# ---------------------------------------------------------------------------
# koopman / sindy equivalence
# ---------------------------------------------------------------------------

def test_koopman_matches_linear_sindy_on_frozen_latents():
    rng = np.random.default_rng(7)
    d, n, dt, k = 3, 40, 0.05, 6
    Z = rng.standard_normal((n, d))
    spec = sindy.LibrarySpec(dim=d, poly_degree=1, include_constant=False)
    xi = rng.standard_normal((d, d)) * 0.4
    h = dt / k
    K_row = np.linalg.matrix_power(np.eye(d) + h * xi, k)
    s_loss = sindy.ensemble_sindy_loss(Tensor(Z[:-1]), Tensor(Z[1:]), [Tensor(xi)],
                                       [np.ones((d, d), bool)], spec, dt, k)
    k_loss = sindy.koopman_loss([Tensor(Z[:-1]), Tensor(Z[1:])], Tensor(K_row), m_max=1)
    assert abs(float(s_loss.data) - float(k_loss.data)) < 1e-10


def test_koopman_training_moves_K_toward_transition():
    ds = _tiny_dataset(t=400)
    cfg = _tiny_config(mode="koopman", epochs=8, dropout=0.0)
    model, log = shred.train(ds, cfg)
    assert log[-1]["loss"] < log[0]["loss"]
    assert model.K is not None and np.all(np.isfinite(model.K.data))


@pytest.mark.parametrize("order", ["unique", "duplicated-tail", "shuffled"])
def test_latents_gathered_in_chunks_equal_one_gather(order):
    ds = _tiny_dataset(t=1600, duplicate_tail_fraction=0.3)
    model = shred.init_model(_tiny_config(), ds.inputs.shape[2], ds.targets.shape[1])
    idx = {"unique": np.unique(ds.train_idx), "duplicated-tail": ds.train_idx,
           "shuffled": np.random.default_rng(0).permutation(ds.train_idx)}[order]
    assert idx.size > 2 * shred.ENCODE_CHUNK
    one_gather = model.encode_np(np.stack([ds.inputs[i] for i in idx]))
    assert np.array_equal(shred._latents(model, ds, idx), one_gather)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_preserves_forward(tmp_path):
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=3)
    model, _ = shred.train(ds, cfg)
    windows = ds.inputs[:8]
    before = model.decode_np(model.encode_np(windows))
    path = tmp_path / "m.shrd"
    shred.save_checkpoint(model, model.optimizer, 3, path)
    loaded, _, epoch = shred.load_checkpoint(path)
    after = loaded.decode_np(loaded.encode_np(windows))
    assert epoch == 3
    assert np.array_equal(before, after)
    assert loaded.selected_index == model.selected_index
    for i in range(len(model.masks)):
        assert np.array_equal(loaded.masks[i], model.masks[i])


def test_checkpoint_truncation_names_section(tmp_path):
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=1)
    model, _ = shred.train(ds, cfg)
    path = tmp_path / "m.shrd"
    shred.save_checkpoint(model, model.optimizer, 1, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(shred.CheckpointError, match="section"):
        shred.load_checkpoint(path)


def _small_checkpoint(path, mode="sindy"):
    cfg = _tiny_config(latent_dim=2, decoder_widths=(3,), ensemble_size=2, poly_degree=1,
                       mode=mode)
    model = shred.init_model(cfg, n_sensors=2, n_space=3)
    optimizer = dc.AdamW(model.named_parameters())
    shred.save_checkpoint(model, optimizer, 0, path)
    return path.read_bytes()


@pytest.mark.parametrize("mode", ["sindy", "koopman"])
def test_checkpoint_every_strict_prefix_raises_checkpoint_error(tmp_path, mode):
    path = tmp_path / "m.shrd"
    blob = _small_checkpoint(path, mode)
    shred.load_checkpoint(path)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(shred.CheckpointError):
            shred.load_checkpoint(path)


def _with_header(blob: bytes, edit) -> bytes:
    """The checkpoint with its JSON header replaced by ``edit(header)``."""
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = edit(json.loads(blob[12:12 + hlen]))
    new = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:]


@pytest.mark.parametrize("mode", ["sindy", "koopman"])
@pytest.mark.parametrize("key", ["config", "thresholds", "selected_index", "adam_step", "epoch"])
def test_checkpoint_header_missing_key_raises(tmp_path, mode, key):
    path = tmp_path / "m.shrd"
    blob = _small_checkpoint(path, mode)
    path.write_bytes(_with_header(blob, lambda h: {k: v for k, v in h.items() if k != key}))
    with pytest.raises(shred.CheckpointError, match=key):
        shred.load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("config", "lag=8"), ("config", {"lag": "8"}), ("thresholds", 0.2),
    ("thresholds", ["0.2", 2.0]), ("thresholds", [0.2]), ("selected_index", "0"),
    ("selected_index", True), ("selected_index", 2), ("selected_index", -1),
    ("adam_step", 1.5), ("adam_step", -1), ("epoch", "0"), ("epoch", None), ("extra", [1]),
    ("thresholds", [-0.2, 2.0]), ("thresholds", [float("nan"), 2.0]),
    ("config", {"grad_clip": -1.0}), ("config", {"learning_rate": float("nan")}),
])
def test_checkpoint_header_bad_value_raises(tmp_path, key, value):
    path = tmp_path / "m.shrd"
    blob = _small_checkpoint(path)
    path.write_bytes(_with_header(blob, lambda h: {**h, key: value}))
    with pytest.raises(shred.CheckpointError, match=key):
        shred.load_checkpoint(path)


def test_checkpoint_header_not_an_object_raises(tmp_path):
    path = tmp_path / "m.shrd"
    path.write_bytes(_with_header(_small_checkpoint(path), lambda h: list(h)))
    with pytest.raises(shred.CheckpointError, match="object"):
        shred.load_checkpoint(path)


def test_checkpoint_truncated_fixed_header_names_offset(tmp_path):
    path = tmp_path / "m.shrd"
    path.write_bytes(b"SHRD\x01\x00")
    with pytest.raises(shred.CheckpointError, match="truncated header at byte 6"):
        shred.load_checkpoint(path)


def test_checkpoint_section_name_not_utf8_names_offset(tmp_path):
    path = tmp_path / "m.shrd"
    blob = bytearray(_small_checkpoint(path))
    (hlen,) = struct.unpack_from("<I", blob, 8)
    start = 12 + hlen  # the first section: u16 name length, then the name
    blob[start + 2] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(shred.CheckpointError, match=f"section at byte {start}: name is not UTF-8"):
        shred.load_checkpoint(path)


def test_checkpoint_section_beyond_numpy_dimensions_raises():
    # Sixty-five unit dims hold one value, so only the dimension count is wrong.
    payload = struct.pack("<d", 1.0)
    raw = (struct.pack("<H", 1) + b"x" + struct.pack("<B", 65) + struct.pack("<65Q", *[1] * 65)
           + payload + struct.pack("<I", zlib.crc32(b"x" + payload)))
    with pytest.raises(shred.CheckpointError, match="65 dimensions"):
        shred._read_sections(raw, 0)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    ds = _tiny_dataset()
    model, _ = shred.train(ds, _tiny_config(epochs=1))
    path = tmp_path / "m.shrd"
    shred.save_checkpoint(model, model.optimizer, 1, path)
    before = path.read_bytes()

    real_write = shred._write_section
    calls = []

    def failing_write(f, name, array):
        calls.append(name)
        if len(calls) == 5:
            raise OSError("disk full")
        real_write(f, name, array)

    monkeypatch.setattr(shred, "_write_section", failing_write)
    with pytest.raises(OSError, match="disk full"):
        shred.save_checkpoint(model, model.optimizer, 2, path)
    assert len(calls) == 5
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.shrd"]
    _, _, epoch = shred.load_checkpoint(path)
    assert epoch == 1


def test_checkpoint_corrupt_payload_checksum(tmp_path):
    ds = _tiny_dataset()
    cfg = _tiny_config(epochs=1)
    model, _ = shred.train(ds, cfg)
    path = tmp_path / "m.shrd"
    shred.save_checkpoint(model, model.optimizer, 1, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(shred.CheckpointError, match="checksum|truncated"):
        shred.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.shrd"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(shred.CheckpointError, match="magic"):
        shred.load_checkpoint(path)


def _assert_resume_equals_uninterrupted(tmp_path, stop, epochs=6, **over):
    ds = _tiny_dataset()
    m_full, l_full = shred.train(ds, _tiny_config(epochs=epochs, **over))

    m_half, l_half = shred.train(ds, _tiny_config(epochs=stop, **over))
    path = tmp_path / "half.shrd"
    shred.save_checkpoint(m_half, m_half.optimizer, stop, path)
    m_res, l_res = shred.train(ds, _tiny_config(epochs=epochs, **over), resume_from=path)

    assert json.dumps(_strip(l_half + l_res)) == json.dumps(_strip(l_full))
    for (n1, a), (n2, b) in zip(sorted(m_full.named_parameters().items()),
                                sorted(m_res.named_parameters().items())):
        assert n1 == n2
        assert np.array_equal(a.data, b.data), n1


def test_resume_equals_uninterrupted(tmp_path):
    _assert_resume_equals_uninterrupted(tmp_path, stop=3)


def test_resume_from_prune_epoch_with_refit_equals_uninterrupted(tmp_path):
    # Epoch 4 is a prune epoch, so the stopped run's closing refit is the refit
    # the uninterrupted run makes after that prune.
    _assert_resume_equals_uninterrupted(tmp_path, stop=4, refit_on_prune=True)


def test_resume_after_all_null_prune_equals_uninterrupted(tmp_path):
    # Epoch 1 prunes every member to null; the resumed run must keep the
    # dynamics off, as the stored masks say, and not warn again.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_resume_equals_uninterrupted(tmp_path, stop=2, epochs=4, threshold_interval=1,
                                            threshold_low=50.0, threshold_high=100.0)
    null = [w for w in caught if "null model" in str(w.message)]
    assert len(null) == 2  # the uninterrupted run and the stopped run, not the resume


def test_resume_inside_warmup_equals_uninterrupted(tmp_path, monkeypatch):
    # The initial estimate at the first joint epoch runs after the resume, and
    # the prune at epoch 4 leaves every member some terms.
    estimate = shred._initial_xi_estimate
    calls = []
    monkeypatch.setattr(shred, "_initial_xi_estimate",
                        lambda model, ds: calls.append(1) or estimate(model, ds))
    _assert_resume_equals_uninterrupted(tmp_path, stop=1, warmup_epochs=2,
                                        threshold_low=0.01, threshold_high=0.1)
    assert len(calls) == 2  # the uninterrupted run and the resumed one
