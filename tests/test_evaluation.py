"""Forecasting, error tables, landscape scanning, convexity, scaling harness."""

import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg

from shredkit import cli, data, evaluation, shred, sindy
from shredkit.diffcore import Tensor
from shredkit.evaluation import (SineComparisonConfig, convexity_check, forecast,
                                 horizon_mse, landscape_scan, latent_frequencies,
                                 sensor_traces)


def _trained_tiny_model(epochs=3, mode="sindy"):
    fld, _ = data.gen_modal_field((6, 6), [(0, 1.0, 2 * np.pi, 0.3)], n_frames=260,
                                  dt=0.02, noise=0.01, seed=1)
    fld = data.standardize(fld)
    sensors = data.select_sensors(fld, 8, seed=2)
    ds = data.make_windows(fld, sensors, lag=8)
    cfg = shred.ShredConfig(lag=8, latent_dim=2, epochs=epochs, batch_size=64, dt=0.02,
                            ministeps=3, threshold_interval=max(1, epochs),
                            threshold_low=0.05, threshold_high=0.5, ensemble_size=2,
                            poly_degree=2, decoder_widths=(12,), dropout=0.1, seed=3,
                            mode=mode)
    model, _ = shred.train(ds, cfg)
    return model, ds, fld, sensors


def test_forecast_zero_horizon_single_frame():
    model, ds, fld, sensors = _trained_tiny_model()
    init = fld.data[:8][:, sensors.indices]
    predictions, latents = forecast(model, init, horizon=0)
    assert predictions.shape == (1, fld.n_space)
    assert latents.shape == (1, model.config.latent_dim)


def test_forecast_identity_dynamics_frozen_latent():
    model, ds, fld, sensors = _trained_tiny_model()
    for xi, mask in zip(model.xi, model.masks):
        xi.data[:] = 0.0
        mask[:] = True
    model.selected_index = 0
    init = fld.data[:8][:, sensors.indices]
    predictions, _ = forecast(model, init, horizon=5)
    for t in range(6):
        assert np.array_equal(predictions[t], predictions[0])


def test_forecast_requires_lag_rows():
    model, ds, fld, sensors = _trained_tiny_model()
    with pytest.raises(evaluation.EvaluationError):
        forecast(model, fld.data[:5][:, sensors.indices], horizon=1)


def test_forecast_koopman_mode_uses_linear_map():
    model, ds, fld, sensors = _trained_tiny_model(mode="koopman")
    init = fld.data[:8][:, sensors.indices]
    _, z = forecast(model, init, horizon=4)
    for t in range(4):
        assert np.allclose(z[t + 1], z[t] @ model.K.data, atol=1e-12)


def test_forecast_reports_divergence_step():
    model, ds, fld, sensors = _trained_tiny_model()
    spec = model.spec
    xi = np.zeros((spec.term_count, 2))
    names = spec.term_names()
    xi[names.index("z1^2"), 0] = 80.0
    xi[names.index("z2^2"), 1] = 80.0
    model.xi[0].data = xi
    model.masks[0][:] = xi != 0
    model.selected_index = 0
    model.config.ministeps = 200
    model.config.dt = 50.0
    init = fld.data[:8][:, sensors.indices]
    member = model.selected_model()
    z, frame = model.encode_np(init[None])[0], None
    for t in range(1, 2001):
        z = sindy.sindy_cell(z, member)
        if not np.all(np.isfinite(z)):
            frame = t
            break
    assert frame is not None
    with pytest.raises(sindy.RolloutDivergenceError) as info:
        forecast(model, init, horizon=2000)
    assert info.value.frame == frame


def test_forecast_koopman_reports_first_non_finite_frame():
    model, ds, fld, sensors = _trained_tiny_model(mode="koopman")
    model.K.data = 1e120 * np.eye(2)
    init = fld.data[:8][:, sensors.indices]
    z, frame = model.encode_np(init[None])[0], None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, 50):
            z = z @ model.K.data
            if not np.all(np.isfinite(z)):
                frame = t
                break
        assert frame is not None and frame > 1
        with pytest.raises(sindy.RolloutDivergenceError) as info:
            forecast(model, init, horizon=50)
    assert info.value.frame == frame


def test_forecast_linear_member_matches_matrix_exponential():
    # Latent rollout through forecast() tracks the closed-form evolution of the
    # selected linear system within the Euler truncation envelope.
    model, ds, fld, sensors = _trained_tiny_model()
    omega = 2.0
    G = np.array([[0.0, omega], [-omega, 0.0]])
    spec = sindy.koopman_restrict(model.spec)
    model.spec = spec
    model.xi = [Tensor(G.T, requires_grad=True)]
    model.masks = np.ones((1, 2, 2), bool)
    model.thresholds = [0.1]
    model.selected_index = 0
    model.config.ministeps = 20
    init = fld.data[:8][:, sensors.indices]
    horizon = 60
    _, latents = forecast(model, init, horizon=horizon)
    z0 = latents[0]
    h = model.config.dt / model.config.ministeps
    worst = 0.0
    for t in range(horizon + 1):
        truth = scipy.linalg.expm(G * model.config.dt * t) @ z0
        worst = max(worst, float(np.linalg.norm(latents[t] - truth)))
    # Per-step truncation ~ h*|G|^2*dt/2 accumulated over the horizon.
    bound = horizon * h * model.config.dt * (omega ** 2) * float(np.linalg.norm(z0))
    assert worst <= bound


def test_latent_rollout_frequency_matches_generator():
    # Oscillator member rolled out from a synthetic latent start.
    spec = sindy.LibrarySpec(dim=2, poly_degree=1, include_constant=False)
    omega = 2 * np.pi
    G = np.array([[0.0, omega], [-omega, 0.0]])
    member = sindy.SindyModel(spec=spec, Xi=G.T, mask=np.ones((2, 2), bool),
                              dt=0.02, k=40)
    traj = sindy.rollout(member, np.array([1.0, 0.0]), 500)
    freqs = latent_frequencies(traj, dt=0.02)
    for f in freqs:
        assert abs(f - omega) / omega < 0.05


def test_horizon_mse_exact_match_zero():
    pred = np.random.default_rng(0).standard_normal((50, 4))
    rows, total = horizon_mse(pred, pred.copy(), [(0, 25), (25, 50)])
    assert all(r["mse"] == 0.0 for r in rows)
    assert total == 0.0


def test_horizon_mse_constant_offset():
    truth = np.zeros((30, 3))
    pred = truth + 0.1
    rows, total = horizon_mse(pred, truth, [(0, 10), (10, 30)])
    for r in rows:
        assert abs(r["mse"] - 0.01) < 1e-15
    assert abs(total - 0.01) < 1e-15


def test_horizon_mse_three_window_layout():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((275, 2))
    truth = rng.standard_normal((275, 2))
    rows, total = horizon_mse(pred, truth, [(0, 100), (100, 200), (200, 275)])
    assert [r["window"] for r in rows] == [[0, 100], [100, 200], [200, 275]]
    weighted = (100 * rows[0]["mse"] + 100 * rows[1]["mse"] + 75 * rows[2]["mse"]) / 275
    assert abs(total - weighted) < 1e-12


def test_horizon_mse_length_mismatch():
    with pytest.raises(evaluation.EvaluationError):
        horizon_mse(np.zeros((5, 2)), np.zeros((6, 2)), [(0, 5)])


def test_sensor_traces_counts_and_residuals():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((40, 30))
    held = list(range(18))
    traces = sensor_traces(truth.copy(), truth, held, training_sensors=(20, 25))
    assert len(traces) == 18
    for p, t in traces.values():
        assert np.array_equal(p, t)
    assert sensor_traces(truth, truth, [], ()) == {}


def test_sensor_traces_rejects_overlap():
    with pytest.raises(evaluation.EvaluationError):
        sensor_traces(np.zeros((5, 10)), np.zeros((5, 10)), [3], training_sensors=(3, 4))


# ---------------------------------------------------------------------------
# Landscape
# ---------------------------------------------------------------------------

def test_landscape_alpha_zero_constant_grid():
    model, ds, _, _ = _trained_tiny_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    grid = landscape_scan(model, loss_fn, alpha=0.0, grid_n=3)
    assert np.all(grid.values == grid.base_loss)


def test_landscape_center_equals_base_loss_exactly():
    model, ds, _, _ = _trained_tiny_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    grid = landscape_scan(model, loss_fn, alpha=0.5, grid_n=5)
    assert grid.values[2, 2] == grid.base_loss


def test_landscape_deterministic_and_restores_params():
    model, ds, _, _ = _trained_tiny_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    g1 = landscape_scan(model, loss_fn, alpha=0.5, grid_n=5, seeds=(4, 9))
    g2 = landscape_scan(model, loss_fn, alpha=0.5, grid_n=5, seeds=(4, 9))
    assert np.array_equal(g1.values, g2.values)
    for k, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[k])


def test_landscape_swap_seeds_transposes():
    model, ds, _, _ = _trained_tiny_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    g_ab = landscape_scan(model, loss_fn, alpha=0.5, grid_n=5, seeds=(4, 9))
    g_ba = landscape_scan(model, loss_fn, alpha=0.5, grid_n=5, seeds=(9, 4))
    assert np.array_equal(g_ab.values, g_ba.values.T)


@pytest.mark.parametrize("mode, frames", [("sindy", 9), ("koopman", 12)])
def test_landscape_loss_without_a_window_run_in_training_split(mode, frames):
    # Lag 8: 9 frames leave one training window; 12 frames leave three,
    # one short of the four adjacent windows a koopman_m_max = 3 loss needs.
    fld, _ = data.gen_modal_field((6, 6), [(0, 1.0, 2 * np.pi, 0.3)], n_frames=frames,
                                  dt=0.02, noise=0.01, seed=1)
    ds = data.make_windows(fld, data.select_sensors(fld, 8, seed=2), lag=8)
    cfg = shred.ShredConfig(lag=8, latent_dim=2, dt=0.02, mode=mode, koopman_m_max=3)
    model = shred.init_model(cfg, 8, 36)
    with pytest.raises(evaluation.EvaluationError,
                       match=f"no window with {cfg.horizon} later window"):
        evaluation.batch_loss_fn(model, ds)


def test_landscape_rejects_even_or_tiny_grid():
    model, ds, _, _ = _trained_tiny_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    with pytest.raises(evaluation.EvaluationError):
        landscape_scan(model, loss_fn, alpha=1.0, grid_n=4)
    with pytest.raises(evaluation.EvaluationError):
        landscape_scan(model, loss_fn, alpha=1.0, grid_n=1)


def test_landscape_nonfinite_becomes_inf(monkeypatch):
    # The NaN is keyed to the perturbed point (t_x, t_y) = (-1, 0), so it shows
    # in the same cell however the points are spread over pool workers.
    model, ds, _, _ = _trained_tiny_model()
    alpha, seeds = 0.5, (0, 1)
    params = model.named_parameters()
    name = sorted(params)[0]
    rx = evaluation._directions(params, seeds[0])
    target = params[name].data + (-1.0 * alpha) * rx[name]
    base_fn = evaluation.batch_loss_fn(model, ds)

    def flaky(stack=None):
        if stack is None:
            if np.allclose(params[name].data, target, rtol=1e-12, atol=0.0):
                return float("nan")
            return base_fn()
        hit = [np.allclose(row, target, rtol=1e-12, atol=0.0) for row in stack[name]]
        return np.where(hit, np.nan, base_fn(stack))

    expected = np.zeros((3, 3), bool)
    expected[0, 1] = True
    for workers in ("1", "2"):
        monkeypatch.setenv("SHRED_THREADS", workers)
        grid = landscape_scan(model, flaky, alpha=alpha, grid_n=3, seeds=seeds)
        assert grid.ts[0] == -1.0 and grid.ts[1] == 0.0
        assert np.array_equal(grid.values == np.inf, expected)
        assert np.all(np.isfinite(grid.values[~expected]))


def _scan_and_segments(model, ds):
    loss_fn = evaluation.batch_loss_fn(model, ds)
    grid = landscape_scan(model, loss_fn, alpha=0.5, grid_n=5, seeds=(4, 9))
    segs = evaluation.landscape_segments(model, loss_fn, 0.5, (4, 9), n_segments=5,
                                         n_points=5, seed=2)
    return grid.values, segs


def test_landscape_identical_for_one_and_two_workers(monkeypatch):
    model, ds, _, _ = _trained_tiny_model()
    monkeypatch.setenv("SHRED_THREADS", "1")
    serial = _scan_and_segments(model, ds)
    monkeypatch.setenv("SHRED_THREADS", "2")
    pooled = _scan_and_segments(model, ds)
    assert np.array_equal(serial[0], pooled[0])
    assert np.array_equal(serial[1], pooled[1])


def test_pooled_landscape_leaves_parent_parameters_untouched(monkeypatch):
    monkeypatch.setenv("SHRED_THREADS", "2")
    model, ds, _, _ = _trained_tiny_model()
    params = model.named_parameters()
    before = {k: (p.data, p.data.copy()) for k, p in params.items()}
    _scan_and_segments(model, ds)
    for k, p in model.named_parameters().items():
        assert p.data is before[k][0]
        assert np.array_equal(p.data, before[k][1])


def test_landscape_segments_evaluate_the_center_once(monkeypatch):
    monkeypatch.setenv("SHRED_THREADS", "1")   # every loss_fn call runs in this process
    model, ds, _, _ = _trained_tiny_model()
    base_fn = evaluation.batch_loss_fn(model, ds)
    calls = []   # the number of points each loss_fn call scores

    def counted(stack=None):
        calls.append(1 if stack is None else len(stack["dec_out.b"]))
        return base_fn() if stack is None else base_fn(stack)

    n_segments, n_points, alpha, seeds = 6, 5, 0.5, (4, 9)
    segs = evaluation.landscape_segments(model, counted, alpha, seeds, n_segments=n_segments,
                                         n_points=n_points, seed=2)
    assert sum(calls) == n_segments * (n_points - 1) + 1
    # Every sample, the fraction-0 ones included, through the perturbed-loss path.
    ends = np.random.default_rng(2).uniform(-1.0, 1.0, size=(n_segments, 2))
    points = np.linspace(0.0, 1.0, n_points)[None, :, None] * ends[:, None, :]
    all_points = evaluation._perturbed_losses(model, base_fn, alpha, seeds,
                                              points.reshape(-1, 2))
    assert np.array_equal(segs, all_points.reshape(n_segments, n_points))
    assert np.all(segs[:, 0] == base_fn())


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
def test_landscape_rejects_unusable_alpha(alpha):
    model, ds, _, _ = _trained_tiny_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    with pytest.raises(evaluation.EvaluationError, match="alpha"):
        landscape_scan(model, loss_fn, alpha=alpha, grid_n=3)
    with pytest.raises(evaluation.EvaluationError, match="alpha"):
        evaluation.landscape_segments(model, loss_fn, alpha, (0, 1), n_segments=2, n_points=3)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_landscape_loss_exception_reaches_caller(monkeypatch, workers):
    monkeypatch.setenv("SHRED_THREADS", workers)
    model, ds, _, _ = _trained_tiny_model()
    params = model.named_parameters()
    name = sorted(params)[0]
    base = params[name].data.copy()
    base_fn = evaluation.batch_loss_fn(model, ds)

    def broken(stack=None):
        if stack is None:
            if not np.array_equal(params[name].data, base):
                raise ZeroDivisionError("loss blew up")
            return base_fn()
        if any(not np.array_equal(row, base) for row in stack[name]):
            raise ZeroDivisionError("loss blew up")
        return base_fn(stack)

    with pytest.raises(ZeroDivisionError, match="loss blew up"):
        landscape_scan(model, broken, alpha=0.5, grid_n=5)
    assert np.array_equal(params[name].data, base)


def _untrained_model(**over):
    fld, _ = data.gen_modal_field((6, 6), [(0, 1.0, 2 * np.pi, 0.3)], n_frames=120,
                                  dt=0.02, noise=0.01, seed=1)
    ds = data.make_windows(data.standardize(fld), data.select_sensors(fld, 8, seed=2), lag=8)
    cfg = dict(lag=8, latent_dim=2, dt=0.02, ministeps=3, ensemble_size=3, poly_degree=2,
               decoder_widths=(12,), dropout=0.1, seed=3)
    cfg.update(over)
    return shred.init_model(shred.ShredConfig(**cfg), 8, 36), ds


def _stack_around(model, rows: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {name: p.data + 0.3 * rng.standard_normal((rows,) + p.shape)
            for name, p in model.named_parameters().items()}


def _row_by_row(model, loss_fn, stack) -> np.ndarray:
    """``loss_fn()`` with each row of ``stack`` written into the model in turn."""
    params = model.named_parameters()
    saved = {name: p.data for name, p in params.items()}
    out = []
    try:
        for k in range(len(stack["dec_out.b"])):
            for name, p in params.items():
                p.data = stack[name][k]
            out.append(loss_fn())
    finally:
        for name, p in params.items():
            p.data = saved[name]
    return np.array(out)


@pytest.mark.parametrize("over", [
    {}, {"ministeps": 1}, {"gru_layers": 1}, {"gru_layers": 3},
    {"decoder_widths": ()}, {"decoder_widths": (8, 8)}, {"sindy_loss_weight": 0.0},
    {"mode": "koopman"}, {"mode": "koopman", "koopman_m_max": 3},
    {"mode": "koopman", "sindy_loss_weight": 0.0},
], ids=repr)
def test_stacked_loss_is_each_point_loss_bit_for_bit(over):
    model, ds = _untrained_model(**over)
    loss_fn = evaluation.batch_loss_fn(model, ds)
    stack = _stack_around(model, 5)
    before = {name: p.data.copy() for name, p in model.named_parameters().items()}
    got = loss_fn(stack)
    assert got.shape == (5,) and got.dtype == np.float64 and np.all(np.isfinite(got))
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[name])
    assert np.array_equal(got, _row_by_row(model, loss_fn, stack))
    assert len(set(got.tolist())) == 5


def test_stacked_loss_with_an_all_null_member():
    model, ds = _untrained_model()
    model.masks[1] = False
    loss_fn = evaluation.batch_loss_fn(model, ds)
    stack = _stack_around(model, 3, seed=1)
    assert np.array_equal(loss_fn(stack), _row_by_row(model, loss_fn, stack))


def test_stacked_loss_overflowing_row_is_inf_alone():
    model, ds = _untrained_model()
    loss_fn = evaluation.batch_loss_fn(model, ds)
    stack = _stack_around(model, 4, seed=2)
    stack["dec_out.b"][2] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        got = loss_fn(stack)
        want = _row_by_row(model, loss_fn, stack)
    assert got[2] == np.inf and np.all(np.isfinite(np.delete(got, 2)))
    assert np.array_equal(got, want)


def test_pmap_runs_a_closure_in_order(monkeypatch):
    monkeypatch.setenv("SHRED_THREADS", "2")
    offset = np.arange(3.0)
    pids = []

    def shifted(i, j):
        return i * 10 + j + offset, os.getpid()

    out = evaluation._pmap(shifted, [(i, i % 3) for i in range(12)])
    for i, (value, pid) in enumerate(out):
        assert np.array_equal(value, i * 10 + i % 3 + offset)
        pids.append(pid)
    assert os.getpid() not in pids
    assert evaluation._pool_fn is None


def test_convexity_check_quadratic_passes():
    t = np.linspace(-1, 1, 9)
    ok, violations = convexity_check((t ** 2)[None, :])
    assert ok and violations == []


def test_convexity_check_concave_fails_with_triples():
    t = np.linspace(-1, 1, 9)
    ok, violations = convexity_check((-(t ** 2))[None, :], tolerance=1e-7)
    assert not ok
    assert all(len(v) == 4 for v in violations)


def test_convexity_default_tolerance_absorbs_float_noise():
    t = np.linspace(-1, 1, 9)
    vals = t ** 2 + 1e-9 * np.sin(31 * t)
    ok, _ = convexity_check(vals[None, :], tolerance=1e-7)
    assert ok


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("where", [0, 4, 8])
def test_convexity_check_counts_nonfinite_sample_as_violation(bad, where):
    t = np.linspace(-1, 1, 9)
    segs = np.stack([t ** 2, t ** 2])
    segs[1, where] = bad
    ok, violations = convexity_check(segs)
    assert not ok
    assert {v[0] for v in violations} == {1}
    assert all(v[3] == np.inf and where in (v[1], (v[1] + v[2]) // 2, v[2])
               for v in violations)
    # Every triple through the bad sample is a violation.
    assert len(violations) == sum(where in (i, (i + j) // 2, j)
                                  for i in range(7) for j in range(i + 2, 9, 2))


def test_convexity_check_all_inf_segment_is_not_convex():
    ok, _ = convexity_check(np.full((1, 9), np.inf))
    assert not ok


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_convexity_check_rejects_unusable_tolerance(tolerance):
    t = np.linspace(-1, 1, 9)
    with pytest.raises(evaluation.EvaluationError, match="tolerance"):
        convexity_check((t ** 2)[None, :], tolerance=tolerance)


def _pass_fraction_per_segment(segs: np.ndarray, tolerance: float) -> float:
    """Reference: the share of segments that convexity_check passes one at a time."""
    return sum(convexity_check(segs[s:s + 1], tolerance)[0] for s in range(len(segs))) / len(segs)


def test_segment_pass_fraction(tmp_path, monkeypatch):
    # `landscape` derives the fraction from the segments in its one violation list.
    model, ds, fld, sensors = _trained_tiny_model()
    model.extra = {"sensors": list(sensors.indices)}
    shred.save_checkpoint(model, model.optimizer, 3, tmp_path / "model.shrd")
    data.save_field(fld, tmp_path / "field.fld")
    t = np.linspace(-1, 1, 9)
    rng = np.random.default_rng(5)
    bumpy = t ** 2 + rng.uniform(0.0, 0.1, (40, 1)) * rng.standard_normal((40, 9))
    for segs, expected in [(np.stack([t ** 2, -(t ** 2)]), 0.5), (bumpy, None)]:
        monkeypatch.setattr(evaluation, "landscape_segments", lambda *a, **k: segs)
        assert cli.main(["landscape", "--checkpoint", str(tmp_path / "model.shrd"),
                         "--field", str(tmp_path / "field.fld"), "--grid", "3",
                         "--out", str(tmp_path)]) == 0
        frac = json.loads((tmp_path / "convexity.json").read_text())["segment_pass_fraction"]
        assert frac == _pass_fraction_per_segment(segs, 1e-7)
        assert 0.0 < frac < 1.0
        if expected is not None:
            assert frac == expected


# ---------------------------------------------------------------------------
# Scaling harness
# ---------------------------------------------------------------------------

def test_scaling_noiseless_exact_recovery():
    report = evaluation.theory_scaling_experiment(n_values=[200, 500],
                                                  noise_values=[0.0], trials=20, seed=1)
    for cell in report.cells:
        assert cell.coef_err_mean < 1e-8
        assert cell.lambda_min_ratio > 0


def test_scaling_requires_twenty_trials():
    with pytest.raises(evaluation.EvaluationError):
        evaluation.theory_scaling_experiment(trials=5)


def test_scaling_error_decays_with_n():
    report = evaluation.theory_scaling_experiment(n_values=[100, 1000, 10_000],
                                                  noise_values=[0.1], trials=20, seed=2)
    errs = [c.coef_err_mean for c in report.cells]
    assert errs[0] > errs[1] > errs[2]
    assert -0.8 < report.slope_n < -0.2  # smoke band; the tight band is acceptance-gated


def test_rollout_error_ratio_shows_exponential_horizon_factor():
    # Scalar system zdot = L z: err(2T)/err(T) = e^(L_hat T) + e^(L T) ~ 2 e^(LT).
    L, T = 0.5, 1.0
    rng = np.random.default_rng(3)
    spec = sindy.LibrarySpec(dim=1, poly_degree=1, include_constant=False)
    X = rng.uniform(0.5, 1.5, (4000, 1))
    targets = L * X + 0.01 * rng.standard_normal((4000, 1))
    fit = sindy.fit_stlsq(X, targets, spec, threshold=0.0, iters=1, ridge=0.0)
    L_hat = float(fit.Xi[0, 0])
    err_T = abs(np.exp(L_hat * T) - np.exp(L * T))
    err_2T = abs(np.exp(L_hat * 2 * T) - np.exp(L * 2 * T))
    assert abs(err_2T / err_T / 2.0 - np.exp(L * T)) / np.exp(L * T) < 0.05


def test_sine_comparison_deterministic():
    cfg = SineComparisonConfig(gru_epochs=3, n_train=300, n_test=300)
    a = evaluation.sine_comparison(cfg)
    b = evaluation.sine_comparison(cfg)
    assert a.sindy_mse == b.sindy_mse
    assert a.gru_mse == b.gru_mse
    assert a.sin_coefficient == b.sin_coefficient


def test_sine_comparison_recovers_sin_coefficient():
    cfg = SineComparisonConfig(gru_epochs=1, n_train=800, n_test=100)
    report = evaluation.sine_comparison(cfg)
    assert abs(report.sin_coefficient + 1.0) < 1e-3


_SCALING_G = np.array([[-0.1, 1.0], [-1.0, -0.1]])
_SCALING_SPEC = sindy.LibrarySpec(dim=2, poly_degree=3, include_constant=True)


def _scaling_trial_data(n, noise, seed):
    """One sweep trial's states and noisy derivative targets, drawn as the sweep draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    return X, X @ _SCALING_G.T + noise * rng.standard_normal((n, 2))


def _scalar_scaling_trial(n, noise, horizon, seed):
    """Per-trial reference: one fit, then a scalar RK4 rollout of that model alone."""
    G, spec = _SCALING_G, _SCALING_SPEC
    X, targets = _scaling_trial_data(n, noise, seed)
    theta = sindy.evaluate_library(X, spec)
    xi_true = np.zeros((spec.term_count, 2))
    xi_true[spec.linear_slice, :] = G.T
    gram = theta.T @ theta
    lam_min = float(np.linalg.eigvalsh(gram).min()) / n
    # Column-major, as the sweep's cho_solve returns its fits and np.stack keeps them:
    # the layout sets the summation order of the library-times-Xi product.
    Xi = np.asfortranarray(scipy.linalg.solve(gram, theta.T @ targets, assume_a="pos"))
    coef_err = float(np.linalg.norm(Xi - xi_true))
    x0 = np.array([1.0, 0.0])
    truth = scipy.linalg.expm(horizon * G) @ x0
    dt = 0.01
    z = x0.copy()
    for _ in range(int(round(horizon / dt))):
        k1 = (sindy.evaluate_library(z[None], spec) @ Xi)[0]
        k2 = (sindy.evaluate_library((z + 0.5 * dt * k1)[None], spec) @ Xi)[0]
        k3 = (sindy.evaluate_library((z + 0.5 * dt * k2)[None], spec) @ Xi)[0]
        k4 = (sindy.evaluate_library((z + dt * k3)[None], spec) @ Xi)[0]
        z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return coef_err, float(np.linalg.norm(z - truth)), lam_min


def test_scaling_sweep_matches_per_trial_scalar_rk4(monkeypatch):
    monkeypatch.setenv("SHRED_THREADS", "1")
    n_values, noise_values, trials, seed, horizon = [60, 300], [0.1, 0.2], 20, 5, 1.5
    report = evaluation.theory_scaling_experiment(n_values=n_values, noise_values=noise_values,
                                                  horizon=horizon, trials=trials, seed=seed)
    cell = 0
    for noise in noise_values:
        for n in n_values:
            got = report.cells[cell]
            rows = [_scalar_scaling_trial(n, noise, horizon, seed * 1_000_003 + cell * 1009 + t)
                    for t in range(trials)]
            coef, roll, lam = (np.array(col) for col in zip(*rows))
            assert (got.n, got.noise) == (n, noise)
            assert got.rollout_err_mean == float(roll.mean())
            assert got.coef_err_mean == float(coef.mean())
            assert got.coef_err_std == float(coef.std(ddof=1))
            assert got.lambda_min_ratio == float(lam.min())
            cell += 1


def test_scaling_fits_agree_with_least_squares_stlsq(monkeypatch):
    # The sweep's normal-equations fits against fit_stlsq's ridge-free lstsq route.
    n_values, noise_values, trials, seed = [100, 1000, 10_000], [0.1, 0.2], 20, 4
    captured = []
    rollout_errors = evaluation._rollout_errors
    monkeypatch.setattr(evaluation, "_rollout_errors",
                        lambda Xis, horizon: captured.append(Xis) or rollout_errors(Xis, horizon))
    evaluation.theory_scaling_experiment(n_values=n_values, noise_values=noise_values,
                                         trials=trials, seed=seed)
    (Xis,) = captured
    grid = [(noise, n) for noise in noise_values for n in n_values]
    assert Xis.shape == (len(grid) * trials, _SCALING_SPEC.term_count, 2)
    for cell, (noise, n) in enumerate(grid):
        for t in range(trials):
            X, targets = _scaling_trial_data(n, noise, seed * 1_000_003 + cell * 1009 + t)
            ref = sindy.fit_stlsq(X, targets, _SCALING_SPEC, threshold=0.0, iters=1, ridge=0.0).Xi
            got = Xis[cell * trials + t]
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_scaling_excludes_ill_conditioned_cells():
    # 8 samples cannot determine 10 library terms: those cells are excluded, not fatal.
    report = evaluation.theory_scaling_experiment(n_values=[8, 100, 1000],
                                                  noise_values=[0.1, 0.2], trials=20, seed=6)
    assert [c.excluded for c in report.cells] == [True, False, False] * 2
    for cell in report.cells[::3]:
        assert math.isnan(cell.coef_err_mean) and math.isnan(cell.rollout_err_mean)
    kept = [c for c in report.cells if not c.excluded]
    assert all(math.isfinite(c.coef_err_mean) for c in kept)
    first = [c for c in kept if c.noise == 0.1]
    slope = np.polyfit([math.log(c.n) for c in first],
                       [math.log(c.coef_err_mean) for c in first], 1)[0]
    assert report.slope_n == pytest.approx(slope, rel=1e-9)
    ratios = [hi.coef_err_mean / lo.coef_err_mean for lo, hi in zip(kept[:2], kept[2:])]
    assert report.s_ratio == pytest.approx(np.mean(ratios), rel=1e-12)
    # The excluded cells' singular Gram has a round-off lambda_min that no fit used.
    assert report.lambda_min_overall == min(c.lambda_min_ratio for c in kept) > 0


@pytest.mark.parametrize("n_values, match", [([1000], "distinct"), ([100, 100], "distinct"),
                                              ([8, 100], "well-conditioned")])
def test_scaling_needs_two_usable_sample_counts(n_values, match):
    with pytest.raises(evaluation.EvaluationError, match=match):
        evaluation.theory_scaling_experiment(n_values=n_values, noise_values=[0.1], trials=20)


def test_scaling_report_json_is_the_old_to_dict_json():
    cell = evaluation.ScalingCell(n=100, noise=0.1, horizon=2.0, coef_err_mean=0.5,
                                  coef_err_std=0.25, rollout_err_mean=math.nan,
                                  lambda_min_ratio=0.125, excluded=True)
    report = evaluation.ScalingReport(cells=[cell], slope_n=-0.5, slope_n_ci=(-0.75, -0.25),
                                      s_ratio=2.0, s_ratio_ci=(1.5, 2.5),
                                      lambda_min_overall=0.125)
    assert json.dumps(asdict(report)) == (
        '{"cells": [{"n": 100, "noise": 0.1, "horizon": 2.0, "coef_err_mean": 0.5, '
        '"coef_err_std": 0.25, "rollout_err_mean": NaN, "lambda_min_ratio": 0.125, '
        '"excluded": true}], "slope_n": -0.5, "slope_n_ci": [-0.75, -0.25], "s_ratio": 2.0, '
        '"s_ratio_ci": [1.5, 2.5], "lambda_min_overall": 0.125}')


def test_scaling_report_identical_for_one_and_two_workers(monkeypatch):
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SHRED_THREADS", workers)
        report = evaluation.theory_scaling_experiment(n_values=[100, 1000],
                                                      noise_values=[0.1, 0.2],
                                                      trials=20, seed=3)
        reports.append(json.dumps(asdict(report)))
    assert reports[0] == reports[1]
