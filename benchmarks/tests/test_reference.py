"""The benchmark's reference computations agree with shredkit, and lose agreement when mutated.

Run with ``python3 -m pytest benchmarks/tests``.
"""

import numpy as np
import pytest

import reference as ref
from shredkit import diffcore as dc
from shredkit import nets, shred, sindy
from shredkit.diffcore import Tensor


def arrays_of(tensors: dict) -> dict:
    return {k: t.data.copy() for k, t in tensors.items()}


@pytest.fixture
def gru():
    rng = np.random.default_rng(3)
    params = nets.init_gru(rng, input_size=5, hidden_sizes=[4, 3])
    return params, rng.standard_normal((6, 7, 5))


def test_encoder_agrees(gru):
    params, windows = gru
    got = nets.encode_window(windows, params).data
    assert np.allclose(ref.encode(windows, arrays_of(params.tensors())), got, rtol=0, atol=1e-14)


def flipped_update_gate(x, h, p):
    u = ref.sigmoid(x @ p["W_u"] + h @ p["U_u"] + p["b_u"])
    r = ref.sigmoid(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
    c = np.tanh(x @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
    return u * h + (1.0 - u) * c


def reset_after_matmul(x, h, p):
    u = ref.sigmoid(x @ p["W_u"] + h @ p["U_u"] + p["b_u"])
    r = ref.sigmoid(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
    c = np.tanh(x @ p["W_h"] + r * (h @ p["U_h"]) + p["b_h"])
    return (1.0 - u) * h + u * c


@pytest.mark.parametrize("mutant", [flipped_update_gate, reset_after_matmul])
def test_encoder_with_a_changed_gate_disagrees(gru, mutant, monkeypatch):
    params, windows = gru
    got = nets.encode_window(windows, params).data
    monkeypatch.setattr(ref, "gru_step", mutant)
    assert not np.allclose(ref.encode(windows, arrays_of(params.tensors())), got, atol=1e-6)


def test_decoder_agrees_and_relu_matters(monkeypatch):
    rng = np.random.default_rng(4)
    dec = nets.init_decoder(rng, latent_dim=3, widths=[8, 6], output_dim=5)
    z = rng.standard_normal((9, 3)) * 3
    got = nets.decode(Tensor(z), dec, train_mode=False).data
    arrays = arrays_of(dec.tensors())
    assert np.allclose(ref.decode(z, arrays), got, rtol=0, atol=1e-13)
    monkeypatch.setattr(ref.np, "maximum", lambda a, b: a)
    assert not np.allclose(ref.decode(z, arrays), got, atol=1e-6)


SPEC = sindy.LibrarySpec(dim=3, poly_degree=3, include_constant=True,
                         trig=(("sin", 1.0), ("cos", 2.0)))


def ref_lib(spec):
    return lambda Z: ref.library(Z, spec.dim, spec.poly_degree, spec.include_constant, spec.trig)


def test_library_agrees():
    Z = np.random.default_rng(5).standard_normal((11, 3))
    assert np.allclose(ref_lib(SPEC)(Z), sindy.evaluate_library(Z, SPEC), rtol=1e-15, atol=0)


@pytest.mark.parametrize("changed", [
    dict(trig=(("sin", 1.0),)),                      # a trig term dropped
    dict(trig=(("sin", 1.0), ("cos", 3.0))),         # a frequency changed
    dict(trig=(("cos", 2.0), ("sin", 1.0))),         # the term order changed
    dict(include_constant=False, poly_degree=3),
])
def test_library_with_a_changed_term_disagrees(changed):
    Z = np.random.default_rng(5).standard_normal((11, 3))
    want = sindy.evaluate_library(Z, SPEC)
    spec = dict(dim=3, poly_degree=3, include_constant=True, trig=SPEC.trig)
    spec.update(changed)
    got = ref.library(Z, spec["dim"], spec["poly_degree"], spec["include_constant"],
                      spec["trig"])
    assert got.shape != want.shape or not np.allclose(got, want)


def random_sindy_model(rng, k=4):
    p = SPEC.term_count
    Xi = rng.standard_normal((p, 3)) * 0.3
    mask = rng.random((p, 3)) < 0.6
    return sindy.SindyModel(spec=SPEC, Xi=np.where(mask, Xi, 0.0), mask=mask, dt=0.05, k=k)


def test_euler_ministeps_agree_and_k_matters():
    rng = np.random.default_rng(6)
    model = random_sindy_model(rng)
    z = rng.standard_normal((5, 3)) * 0.5
    got = sindy.sindy_cell(z, model)
    lib = ref_lib(SPEC)
    assert np.allclose(ref.euler_advance(z, model.effective_Xi(), lib, model.dt, model.k), got,
                       rtol=1e-13, atol=1e-14)
    for k in (model.k - 1, model.k + 1):
        assert not np.allclose(ref.euler_advance(z, model.effective_Xi(), lib, model.dt, k), got,
                               rtol=1e-9, atol=0)


def test_rollout_mses_match_program_rollouts():
    rng = np.random.default_rng(7)
    models = [random_sindy_model(rng, k=2) for _ in range(3)]
    latents = rng.standard_normal((12, 3)) * 0.3
    got = [float(np.mean((sindy.rollout(m, latents[0], 11) - latents) ** 2)) for m in models]
    want = ref.euler_rollout_mses(latents, [m.effective_Xi() for m in models], ref_lib(SPEC),
                                  0.05, 2)
    assert np.allclose(want, got, rtol=1e-12)


def test_koopman_power_agrees_and_power_matters():
    rng = np.random.default_rng(8)
    K = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    zs = [Tensor(rng.standard_normal((6, 4))) for _ in range(4)]
    got = float(sindy.koopman_loss(zs, Tensor(K), m_max=3).data)
    z0 = zs[0].data
    want = np.mean([np.mean((ref.koopman_power(z0, K, m) - zs[m].data) ** 2)
                    for m in (1, 2, 3)])
    assert abs(got - want) <= 1e-14 * abs(want)
    shifted = np.mean([np.mean((ref.koopman_power(z0, K, m + 1) - zs[m].data) ** 2)
                       for m in (1, 2, 3)])
    assert abs(got - shifted) > 1e-6 * abs(want)


def test_selection_rule():
    assert ref.select_member([1.0, 1.05, 2.0], [5, 3, 1]) == 1     # sparser, within 10%
    assert ref.select_member([1.0, 1.2, 2.0], [5, 3, 1]) == 0      # 20% worse is out
    assert ref.select_member([1.0, 1.0], [4, 4]) == 0              # ties to the lower index
    assert ref.select_member([float("inf")] * 2, [1, 2]) is None


def small_model(mode: str, seed: int) -> shred.ShredModel:
    cfg = shred.ShredConfig(lag=5, latent_dim=3, epochs=0, dt=0.05, ministeps=3,
                            poly_degree=2, trig=(("sin", 1.0),), ensemble_size=4,
                            decoder_widths=(7,), mode=mode, koopman_m_max=2, seed=seed,
                            sindy_loss_weight=0.7)
    model = shred.init_model(cfg, n_sensors=4, n_space=6)
    rng = np.random.default_rng(seed)
    for i, xi in enumerate(model.xi):
        model.masks[i] = rng.random(xi.shape) < 0.5 + 0.1 * i
        xi.data = np.where(model.masks[i], rng.standard_normal(xi.shape) * 0.5, 0.0)
    if model.K is not None:
        model.K.data = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    return model


def ref_cfg(model):
    c, s = model.config, model.spec
    return {"mode": c.mode, "dt": c.dt, "ministeps": c.ministeps,
            "koopman_m_max": c.koopman_m_max, "sindy_loss_weight": c.sindy_loss_weight,
            "latent_dim": s.dim, "poly_degree": s.poly_degree,
            "include_constant": s.include_constant, "trig": s.trig}


@pytest.mark.parametrize("mode", ["sindy", "koopman"])
def test_combined_loss_agrees(mode):
    model = small_model(mode, 9)
    rng = np.random.default_rng(10)
    groups = 3 if mode == "koopman" else 2
    windows = [rng.standard_normal((8, 5, 4)) for _ in range(groups)]
    targets = [rng.standard_normal((8, 6)) for _ in range(groups)]
    with dc.no_grad():
        got, _ = shred.combined_loss(shred.Batch(windows, targets), model, train_mode=False)
    want = ref.combined_loss(arrays_of(model.named_parameters()), model.masks, windows,
                             targets, ref_cfg(model))
    assert abs(float(got.data) - want) <= 1e-12 * abs(want)


def test_selection_agrees_with_program():
    for seed in range(5):
        model = small_model("sindy", seed)
        latents = np.random.default_rng(100 + seed).standard_normal((15, 3)) * 0.2
        chosen, _, _ = shred.select_discovered_model(model, latents)
        lib = ref_lib(model.spec)
        Xis = [np.where(m, xi.data, 0.0) for xi, m in zip(model.xi, model.masks)]
        mses = ref.euler_rollout_mses(latents, Xis, lib, model.config.dt,
                                      model.config.ministeps)
        assert ref.select_member(mses, [int(m.sum()) for m in model.masks]) == chosen
