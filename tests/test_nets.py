"""Encoder / decoder behavior against independent formula oracles."""

import numpy as np
import pytest

from shredkit import diffcore as dc
from shredkit import nets
from shredkit.diffcore import Tensor


def _zero_layer(in_w, width):
    z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return nets.GruLayerParams(W_u=z(in_w, width), U_u=z(width, width), b_u=z(width),
                               W_r=z(in_w, width), U_r=z(width, width), b_r=z(width),
                               W_h=z(in_w, width), U_h=z(width, width), b_h=z(width))


def test_gru_cell_zero_fixed_point(gru_cell):
    layer = _zero_layer(3, 4)
    out = gru_cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 4))), layer)
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_gru_cell_saturated_update_gate_carries_state(gru_cell):
    layer = _zero_layer(3, 4)
    layer.b_u.data[:] = -50.0  # u -> 0, so h_t ~ h_prev
    h_prev = np.array([[0.3, -0.2, 0.5, 0.1]])
    out = gru_cell(Tensor(np.ones((1, 3))), Tensor(h_prev), layer)
    assert np.allclose(out.data, h_prev, atol=1e-12)


def _oracle_gru_cell(x, h, L):
    """Straight transcription of the gate formulas with plain numpy."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    u = sig(x @ L.W_u.data + h @ L.U_u.data + L.b_u.data)
    r = sig(x @ L.W_r.data + h @ L.U_r.data + L.b_r.data)
    cand = np.tanh(x @ L.W_h.data + (r * h) @ L.U_h.data + L.b_h.data)
    return (1.0 - u) * h + u * cand


def test_gru_cell_matches_formula_oracle(gru_cell):
    rng = np.random.default_rng(17)
    gru = nets.init_gru(rng, input_size=5, hidden_sizes=[4])
    layer = gru.layers[0]
    x = rng.standard_normal((6, 5))
    h = rng.standard_normal((6, 4))
    out = gru_cell(Tensor(x), Tensor(h), layer)
    assert np.allclose(out.data, _oracle_gru_cell(x, h, layer), atol=1e-14)


def test_gru_cell_width_mismatch(gru_cell):
    layer = _zero_layer(3, 4)
    with pytest.raises(nets.WidthMismatchError):
        gru_cell(Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 4))), layer)


def test_encode_window_single_step_equals_cell():
    rng = np.random.default_rng(20)
    gru = nets.init_gru(rng, input_size=3, hidden_sizes=[4, 2])
    window = rng.standard_normal((1, 1, 3))
    z = nets.encode_window(window, gru)
    h1 = _oracle_gru_cell(window[:, 0], np.zeros((1, 4)), gru.layers[0])
    h2 = _oracle_gru_cell(h1, np.zeros((1, 2)), gru.layers[1])
    assert np.allclose(z.data, h2, atol=1e-14)


def test_encode_window_full_unroll_matches_oracle():
    rng = np.random.default_rng(21)
    gru = nets.init_gru(rng, input_size=3, hidden_sizes=[4, 2])
    window = rng.standard_normal((2, 6, 3))
    z = nets.encode_window(window, gru)
    xs = [window[:, t] for t in range(6)]
    for layer in gru.layers:
        h = np.zeros((2, layer.U_u.shape[0]))
        outs = []
        for x in xs:
            h = _oracle_gru_cell(x, h, layer)
            outs.append(h)
        xs = outs
    assert np.allclose(z.data, xs[-1], atol=1e-13)


def test_encode_window_recency_with_carry_gates():
    # Saturate update gates toward carry after step 0: outputs should barely
    # depend on the first row.
    rng = np.random.default_rng(22)
    gru = nets.init_gru(rng, input_size=2, hidden_sizes=[3])
    gru.layers[0].b_u.data[:] = -8.0
    w1 = rng.standard_normal((1, 5, 2))
    w2 = w1.copy()
    w2[:, 0, :] += 10.0
    z1 = nets.encode_window(w1, gru).data
    z2 = nets.encode_window(w2, gru).data
    assert np.max(np.abs(z1 - z2)) < 1e-2


def test_encode_zero_window_zero_params_is_zero():
    gru = nets.GruParams(layers=[_zero_layer(3, 4)])
    z = nets.encode_window(np.zeros((2, 5, 3)), gru)
    assert np.array_equal(z.data, np.zeros((2, 4)))


def test_encode_wrong_sensor_count():
    rng = np.random.default_rng(1)
    gru = nets.init_gru(rng, input_size=3, hidden_sizes=[4])
    with pytest.raises(nets.WidthMismatchError):
        nets.encode_window(np.zeros((1, 5, 2)), gru)


def test_encode_deterministic():
    rng = np.random.default_rng(23)
    gru = nets.init_gru(rng, input_size=3, hidden_sizes=[4])
    w = rng.standard_normal((3, 7, 3))
    assert np.array_equal(nets.encode_window(w, gru).data, nets.encode_window(w, gru).data)


def test_decode_constant_map():
    rng = np.random.default_rng(2)
    dec = nets.init_decoder(rng, latent_dim=3, widths=[4], output_dim=5)
    for W, b in dec.hidden:
        W.data[:] = 0.0
        b.data[:] = 0.0
    dec.out_W.data[:] = 0.0
    dec.out_b.data[:] = np.arange(5.0)
    out = nets.decode(Tensor(rng.standard_normal((7, 3))), dec)
    assert np.allclose(out.data, np.tile(np.arange(5.0), (7, 1)))


def test_decode_dropout_zero_train_equals_eval():
    rng = np.random.default_rng(3)
    dec = nets.init_decoder(rng, latent_dim=3, widths=[8], output_dim=5, dropout=0.0)
    z = Tensor(rng.standard_normal((4, 3)))
    train = nets.decode(z, dec, train_mode=True, rng=np.random.default_rng(0))
    ev = nets.decode(z, dec)
    assert np.array_equal(train.data, ev.data)


def test_decode_dropout_expectation_matches_eval():
    rng = np.random.default_rng(4)
    dec = nets.init_decoder(rng, latent_dim=3, widths=[16], output_dim=4, dropout=0.1)
    z = Tensor(rng.standard_normal((1, 3)))
    ev = nets.decode(z, dec).data
    mask_rng = np.random.default_rng(99)
    acc = np.zeros_like(ev)
    n = 10_000
    for _ in range(n):
        acc += nets.decode(z, dec, train_mode=True, rng=mask_rng).data
    mc = acc / n
    scale = max(np.abs(ev).max(), 1e-9)
    assert np.max(np.abs(mc - ev)) / scale < 0.02


def test_decode_eval_independent_of_seed():
    rng = np.random.default_rng(5)
    dec = nets.init_decoder(rng, latent_dim=2, widths=[4], output_dim=3, dropout=0.5)
    z = Tensor(rng.standard_normal((2, 2)))
    a = nets.decode(z, dec, train_mode=False)
    b = nets.decode(z, dec, train_mode=False)
    assert np.array_equal(a.data, b.data)


def test_decode_width_mismatch():
    rng = np.random.default_rng(6)
    dec = nets.init_decoder(rng, latent_dim=3, widths=[4], output_dim=5)
    with pytest.raises(nets.WidthMismatchError):
        nets.decode(Tensor(np.zeros((1, 2))), dec)


def test_init_deterministic_given_seed():
    g1, d1 = nets.init_params(42, 5, [3, 3], [8], 10)
    g2, d2 = nets.init_params(42, 5, [3, 3], [8], 10)
    for a, b in zip(g1.tensors().values(), g2.tensors().values()):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(d1.tensors().values(), d2.tensors().values()):
        assert np.array_equal(a.data, b.data)


def test_init_bound_by_fan_in():
    rng = np.random.default_rng(7)
    gru = nets.init_gru(rng, input_size=100, hidden_sizes=[100])
    W = gru.layers[0].W_u.data
    assert np.all(np.abs(W) <= 0.1)


def test_init_sample_mean_near_zero():
    rng = np.random.default_rng(8)
    dec = nets.init_decoder(rng, latent_dim=100, widths=[1000], output_dim=10)
    entries = dec.hidden[0][0].data.reshape(-1)  # 1e5 uniform(-0.1, 0.1) draws
    sigma = (0.2 / np.sqrt(12)) / np.sqrt(entries.size)
    assert abs(entries.mean()) < 3 * sigma


def test_top_layer_width_is_latent_dim():
    rng = np.random.default_rng(9)
    gru = nets.init_gru(rng, input_size=6, hidden_sizes=[8, 3])
    z = nets.encode_window(rng.standard_normal((2, 4, 6)), gru)
    assert z.shape == (2, 3)


def _cell_unroll(x, gru, gru_cell):
    """Per-step encoder built from ``gru_cell``, the reference for the fused layers.

    Returns the top layer's hidden state at every step of the (batch, L, S) input tensor.
    """
    batch, lag, width_in = x.shape
    xs = [dc.reshape(dc.slice_axis(x, 1, t, t + 1), (batch, width_in)) for t in range(lag)]
    for layer in gru.layers:
        h = Tensor(np.zeros((batch, layer.U_u.shape[0])))
        outs = []
        for x in xs:
            h = gru_cell(x, h, layer)
            outs.append(h)
        xs = outs
    return xs


def test_encode_window_forward_and_gradients_match_cell_unroll(gru_cell):
    rng = np.random.default_rng(24)
    gru, dec = nets.init_params(3, 5, [6, 3], [8], 7)
    window = rng.standard_normal((9, 7, 5))
    target = rng.standard_normal((9, 7))
    results = []
    for encode in (lambda w, g: _cell_unroll(Tensor(w), g, gru_cell)[-1], nets.encode_window):
        z = encode(window, gru)
        dc.backward(dc.mse(nets.decode(z, dec), Tensor(target)))
        results.append((z.data, {k: t.grad for k, t in gru.tensors().items()}))
        for t in list(gru.tensors().values()) + list(dec.tensors().values()):
            t.zero_grad()
    (z_ref, g_ref), (z, g) = results
    assert np.max(np.abs(z - z_ref)) < 1e-12
    for name in g_ref:
        scale = max(1.0, np.max(np.abs(g_ref[name])))
        assert np.max(np.abs(g[name] - g_ref[name])) / scale < 1e-12, name


@pytest.mark.parametrize("batch, lag", [(1, 7), (5, 1), (4, 6)])
def test_gru_sequence_two_layer_stack_matches_cell_oracle(gru_cell, batch, lag):
    rng = np.random.default_rng(28)
    gru = nets.init_gru(rng, input_size=5, hidden_sizes=[6, 4])
    window = rng.standard_normal((batch, lag, 5))
    target = rng.standard_normal((batch, lag, 4))

    def fused(x):
        for layer in gru.layers:
            x = dc.gru_sequence(x, *layer.tensors().values())
        return x

    def per_step(x):
        hs = _cell_unroll(x, gru, gru_cell)
        return dc.concat([dc.reshape(h, (batch, 1, 4)) for h in hs], axis=1)

    results = []
    for encode in (per_step, fused):
        x = Tensor(window, requires_grad=True)
        seq = encode(x)
        dc.backward(dc.mse(seq, Tensor(target)))  # reads every time step
        results.append([seq.data, x.grad] + [t.grad for t in gru.tensors().values()])
        for t in gru.tensors().values():
            t.zero_grad()
    for ref, got in zip(*results):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))) < 1e-12


def _tape_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.op is not None and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_encoder_tape_is_per_layer_not_per_step(layers):
    gru = nets.init_gru(np.random.default_rng(25), input_size=3, hidden_sizes=[4] * layers)
    rng = np.random.default_rng(26)
    sizes = [_tape_size(nets.encode_window(rng.standard_normal((2, lag, 3)), gru))
             for lag in (1, 5, 26)]
    assert sizes[0] == sizes[1] == sizes[2] <= 2 * layers + 2


def test_encode_window_layer_width_mismatch():
    rng = np.random.default_rng(27)
    gru = nets.init_gru(rng, input_size=3, hidden_sizes=[4, 2])
    gru.layers[1] = nets.init_gru(rng, input_size=5, hidden_sizes=[2]).layers[0]
    with pytest.raises(nets.WidthMismatchError, match="input width"):
        nets.encode_window(np.zeros((1, 5, 3)), gru)


def test_two_layer_encoder_decoder_gradient():
    rng = np.random.default_rng(28)
    gru, dec = nets.init_params(2, 3, [4, 2], [5], 4)
    window = rng.standard_normal((2, 3, 3))
    target = rng.standard_normal((2, 4))
    params = list(gru.tensors().values()) + list(dec.tensors().values())

    def f():
        return dc.mse(nets.decode(nets.encode_window(window, gru), dec), Tensor(target))

    assert dc.finite_diff_check(f, params, h=1e-6) < 1e-6


def test_full_composition_gradient():
    rng = np.random.default_rng(10)
    gru, dec = nets.init_params(1, 4, [3], [6], 5)
    window = rng.standard_normal((2, 4, 4))
    target = rng.standard_normal((2, 5))
    params = list(gru.tensors().values()) + list(dec.tensors().values())

    def f():
        return dc.mse(nets.decode(nets.encode_window(window, gru), dec), Tensor(target))

    assert dc.finite_diff_check(f, params, h=1e-6) < 1e-5


def _sets(tensors: dict, k: int) -> dict[str, np.ndarray]:
    """k parameter sets around the given tensors, as (k, *shape) arrays."""
    rng = np.random.default_rng(k)
    return {name: t.data + 0.2 * rng.standard_normal((k,) + t.shape)
            for name, t in tensors.items()}


def _as_stack(sets: dict) -> dict[str, Tensor]:
    return {name: Tensor(a[:, None] if a.ndim == 2 else a) for name, a in sets.items()}


def _row(sets: dict, k: int) -> dict[str, Tensor]:
    return {name: Tensor(a[k]) for name, a in sets.items()}


def test_stacked_encoder_and_decoder_match_each_parameter_set():
    rng = np.random.default_rng(0)
    gru = nets.init_gru(rng, input_size=5, hidden_sizes=[3, 3])
    dec = nets.init_decoder(rng, latent_dim=3, widths=[6], output_dim=4)
    windows = rng.standard_normal((7, 9, 5))
    gru_sets = [_sets(layer.tensors(), 4) for layer in gru.layers]
    dec_sets = _sets(dec.tensors(), 4)

    def gru_of(layers):
        return nets.GruParams([nets.GruLayerParams(**t) for t in layers])

    def dec_of(t):
        return nets.DecoderParams(hidden=[(t["dec0.W"], t["dec0.b"])],
                                  out_W=t["dec_out.W"], out_b=t["dec_out.b"])

    with dc.no_grad():
        z = nets.encode_window(windows, gru_of([_as_stack(s) for s in gru_sets]))
        recon = nets.decode(z, dec_of(_as_stack(dec_sets))).data
        assert z.shape == (4, 7, 3) and recon.shape == (4, 7, 4)
        for k in range(4):
            zk = nets.encode_window(windows, gru_of([_row(s, k) for s in gru_sets]))
            assert np.array_equal(z.data[k], zk.data)
            assert np.array_equal(recon[k], nets.decode(zk, dec_of(_row(dec_sets, k))).data)

def test_gru_sequence_stacked_with_gradients_is_refused():
    rng = np.random.default_rng(1)
    layer = nets.init_gru(rng, input_size=2, hidden_sizes=[3]).layers[0]
    stacked = _as_stack(_sets(layer.tensors(), 2))
    stacked["W_u"].requires_grad = True
    with pytest.raises(dc.ShapeMismatchError, match="no backward"):
        dc.gru_sequence(rng.standard_normal((4, 5, 2)), *stacked.values())
