"""Unit and property tests for the reverse-mode engine and the optimizer."""

import numpy as np
import pytest

from shredkit import diffcore as dc
from shredkit import nets, sindy
from shredkit.diffcore import Tensor
from shredkit.sindy import LibrarySpec


def test_matmul_example():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_tanh_zero():
    out = dc.tanh(Tensor(np.zeros(3)))
    assert np.array_equal(out.data, np.zeros(3))


def test_relu_definition():
    out = dc.relu(Tensor([-1.0, 2.0, -3.0]))
    assert np.array_equal(out.data, [0.0, 2.0, 0.0])


def test_shape_mismatch_names_primitive():
    with pytest.raises(dc.ShapeMismatchError, match="matmul"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_backward_square_sum():
    w = Tensor([1.0, 2.0], requires_grad=True)
    dc.backward((w * w).sum())
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_backward_mse_at_minimum():
    a = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    dc.backward(dc.mse(a, Tensor([1.0, -2.0, 0.5])))
    assert np.array_equal(a.grad, np.zeros(3))


def test_backward_rejects_nonscalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(dc.GraphError):
        dc.backward(a * a)


def test_backward_requires_graph():
    with pytest.raises(dc.GraphError):
        dc.backward(Tensor(1.0))


def test_three_layer_tanh_net_matches_finite_differences():
    rng = np.random.default_rng(11)
    Ws = [Tensor(rng.standard_normal((4, 4)) * 0.5, requires_grad=True) for _ in range(3)]
    bs = [Tensor(rng.standard_normal(4) * 0.1, requires_grad=True) for _ in range(3)]
    x = rng.standard_normal((5, 4))
    y = rng.standard_normal((5, 4))

    def f():
        h = Tensor(x)
        for W, b in zip(Ws, bs):
            h = dc.tanh(h @ W + b)
        return dc.mse(h, Tensor(y))

    assert dc.finite_diff_check(f, Ws + bs, h=1e-6) < 1e-6


def test_finite_diff_quadratic_exact():
    w = Tensor(3.0, requires_grad=True)
    err = dc.finite_diff_check(lambda: w * w, [w], h=1e-6)
    assert err < 1e-9


def test_finite_diff_gru_cell(gru_cell):
    rng = np.random.default_rng(5)
    gru = nets.init_gru(rng, input_size=3, hidden_sizes=[4])
    layer = gru.layers[0]
    x = rng.standard_normal((2, 3))
    h0 = rng.standard_normal((2, 4))
    target = rng.standard_normal((2, 4))
    params = list(layer.tensors().values())

    def f():
        return dc.mse(gru_cell(Tensor(x), Tensor(h0), layer), Tensor(target))

    assert dc.finite_diff_check(f, params, h=1e-6) < 1e-5


def test_finite_diff_gru_sequence_with_input_gradient():
    rng = np.random.default_rng(12)
    layer = nets.init_gru(rng, input_size=3, hidden_sizes=[4]).layers[0]
    x = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    target = rng.standard_normal((2, 5, 4))
    params = [x] + list(layer.tensors().values())

    def f():
        return dc.mse(dc.gru_sequence(x, *layer.tensors().values()), Tensor(target))

    assert dc.finite_diff_check(f, params, h=1e-6) < 1e-6


def _two_layer_stack(seed):
    """A two-layer GRU of unequal widths (6 then 4) over 3 inputs, run as fused layers."""
    gru = nets.init_gru(np.random.default_rng(seed), input_size=3, hidden_sizes=[6, 4])

    def run(x):
        for layer in gru.layers:
            x = dc.gru_sequence(x, *layer.tensors().values())
        return x

    return gru, run


def test_finite_diff_two_layer_gru_sequence_every_step_loss():
    rng = np.random.default_rng(15)
    gru, run = _two_layer_stack(16)
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    target = rng.standard_normal((2, 4, 4))
    params = [x] + list(gru.tensors().values())
    assert dc.finite_diff_check(lambda: dc.mse(run(x), Tensor(target)), params, h=1e-6) < 1e-6


def _gru_sequence_grads(x_data, layer, target):
    x = Tensor(x_data, requires_grad=True)
    out = dc.gru_sequence(x, *layer.tensors().values())
    return out, dc.mse(out, Tensor(target)), x


def test_gru_sequence_non_contiguous_input_matches_contiguous_copy():
    rng = np.random.default_rng(17)
    layer = nets.init_gru(rng, input_size=3, hidden_sizes=[4]).layers[0]
    target = rng.standard_normal((5, 7, 4))
    transposed = rng.standard_normal((7, 5, 8)).transpose(1, 0, 2)[..., 2:5]
    strided = rng.standard_normal((5, 14, 6))[:, ::2, ::2]
    for view in (transposed, strided):
        assert view.shape == (5, 7, 3) and not view.flags.c_contiguous
        results = []
        for x_data in (view, np.ascontiguousarray(view)):
            out, loss, x = _gru_sequence_grads(x_data, layer, target)
            dc.backward(loss)
            results.append((out.data.copy(), x.grad,
                            [t.grad for t in layer.tensors().values()]))
            for t in layer.tensors().values():
                t.zero_grad()
        (out_v, dx_v, g_v), (out_c, dx_c, g_c) = results
        assert np.array_equal(out_v, out_c) and np.array_equal(dx_v, dx_c)
        assert all(np.array_equal(a, b) for a, b in zip(g_v, g_c))


def test_gru_sequence_leaves_input_unchanged():
    rng = np.random.default_rng(18)
    gru, run = _two_layer_stack(19)
    x_data = rng.standard_normal((3, 5, 3))
    before = x_data.copy()
    x = Tensor(x_data, requires_grad=True)
    out = run(x)
    assert np.array_equal(x.data, before)
    dc.backward(dc.mse(out, Tensor(rng.standard_normal(out.shape))))
    assert np.array_equal(x.data, before) and x.data is x_data


def test_gru_sequence_back_to_back_graphs_share_no_buffers():
    rng = np.random.default_rng(20)
    layer = nets.init_gru(rng, input_size=3, hidden_sizes=[4]).layers[0]
    x1, x2 = rng.standard_normal((2, 4, 6, 3))
    target = rng.standard_normal((4, 6, 4))

    def grads(loss, x):
        dc.backward(loss)
        out = [x.grad] + [t.grad for t in layer.tensors().values()]
        for t in layer.tensors().values():
            t.zero_grad()
        return out

    alone = [grads(*_gru_sequence_grads(x, layer, target)[1:]) for x in (x1, x2)]
    graphs = [_gru_sequence_grads(x, layer, target)[1:] for x in (x1, x2)]  # both built first
    for ref, graph in zip(alone, graphs):
        assert all(np.array_equal(a, b) for a, b in zip(ref, grads(*graph)))


def test_gru_sequence_is_one_node_and_skips_constant_input_gradient():
    rng = np.random.default_rng(13)
    layer = nets.init_gru(rng, input_size=3, hidden_sizes=[4]).layers[0]
    x = Tensor(rng.standard_normal((2, 6, 3)))
    out = dc.gru_sequence(x, *layer.tensors().values())
    assert out.shape == (2, 6, 4) and out.op == "gru_sequence"
    assert out.parents[0] is x
    dc.backward(out.sum())
    assert x.grad is None
    assert all(t.grad.shape == t.shape for t in layer.tensors().values())


def test_gru_sequence_shape_mismatch():
    layer = nets.init_gru(np.random.default_rng(14), input_size=3, hidden_sizes=[4]).layers[0]
    with pytest.raises(dc.ShapeMismatchError, match="gru_sequence"):
        dc.gru_sequence(Tensor(np.ones((2, 5, 2))), *layer.tensors().values())
    with pytest.raises(dc.ShapeMismatchError, match="gru_sequence"):
        dc.gru_sequence(Tensor(np.ones((5, 3))), *layer.tensors().values())


def test_finite_diff_decoder():
    rng = np.random.default_rng(6)
    dec = nets.init_decoder(rng, latent_dim=3, widths=[8], output_dim=5)
    z = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 5))
    params = list(dec.tensors().values())

    def f():
        return dc.mse(nets.decode(Tensor(z), dec), Tensor(target))

    assert dc.finite_diff_check(f, params, h=1e-6) < 1e-5


def test_finite_diff_rejects_bad_h():
    w = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError):
        dc.finite_diff_check(lambda: w * w, [w], h=0.0)


def _random_primitive_loss(rng):
    """Build (loss_fn, params) exercising one randomly chosen primitive."""
    kind = rng.choice(["add", "sub", "hadamard", "matmul", "sigmoid", "tanh", "relu",
                       "sum", "mean", "mse", "scale", "library",
                       "concat", "slice", "reshape"])
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    a = Tensor(rng.standard_normal(shape), requires_grad=True)
    b = Tensor(rng.standard_normal(shape), requires_grad=True)
    t = Tensor(rng.standard_normal(shape))

    if kind == "matmul":
        m, k, n = (int(v) for v in rng.integers(1, 4, size=3))
        a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
        tmn = Tensor(rng.standard_normal((m, n)))
        return lambda: dc.mse(a @ b, tmn), [a, b]
    if kind in ("add", "sub", "hadamard"):
        fn = {"add": lambda: a + b, "sub": lambda: a - b, "hadamard": lambda: a * b}[kind]
        return lambda: dc.mse(fn(), t), [a, b]
    if kind in ("sigmoid", "tanh"):
        op = getattr(dc, kind)
        return lambda: dc.mse(op(a), t), [a]
    if kind == "relu":
        # Keep values away from the kink where central differences are invalid.
        a = Tensor(rng.uniform(0.2, 1.5, shape) * rng.choice([-1, 1], shape), requires_grad=True)
        return lambda: dc.mse(dc.relu(a), t), [a]
    if kind == "sum":
        return lambda: a.sum() * a.sum(), [a]
    if kind == "mean":
        return lambda: a.mean() * a.mean(), [a]
    if kind == "mse":
        return lambda: dc.mse(a, b), [a, b]
    if kind == "scale":
        c = float(rng.standard_normal())
        return lambda: dc.mse(a * c, t), [a]
    if kind == "library":
        trig = tuple((str(rng.choice(["sin", "cos"])), float(rng.choice([1.0, 0.5, 3.0])))
                     for _ in range(int(rng.integers(0, 3))))
        spec = LibrarySpec(dim=int(rng.integers(1, 4)), poly_degree=int(rng.integers(1, 4)),
                           include_constant=bool(rng.integers(0, 2)), trig=trig)
        lead = shape if rng.integers(0, 2) else shape[:1]
        z = Tensor(rng.standard_normal(lead + (spec.dim,)), requires_grad=True)
        tt = Tensor(rng.standard_normal(lead + (spec.term_count,)))
        return lambda: dc.mse(sindy.library_features(z, spec), tt), [z]
    if kind == "concat":
        axis = int(rng.integers(0, 2))
        tt = Tensor(np.concatenate([np.zeros(shape)] * 2, axis=axis))
        return lambda: dc.mse(dc.concat([a, b], axis=axis), tt), [a, b]
    if kind == "slice":
        axis = int(rng.integers(0, 2))
        stop = shape[axis]
        tt = Tensor(np.zeros([s if i != axis else stop for i, s in enumerate(shape)]))
        return lambda: dc.mse(dc.slice_axis(a, axis, 0, stop), tt), [a]
    # reshape
    tt = Tensor(np.zeros(shape).reshape(-1))
    return lambda: dc.mse(a.reshape(a.size), tt), [a]


def test_primitive_gradients_randomized_100_trials():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        f, params = _random_primitive_loss(rng)
        assert dc.finite_diff_check(f, params, h=1e-6) < 1e-5


def test_broadcast_add_bias_gradient():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    t = Tensor(rng.standard_normal((4, 3)))
    assert dc.finite_diff_check(lambda: dc.mse(x + b, t), [b], h=1e-6) < 1e-6


def test_stacked_matmul_gradient():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((1, 3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2, 2)), requires_grad=True)
    t = Tensor(rng.standard_normal((4, 3, 2)))
    assert dc.finite_diff_check(lambda: dc.mse(a @ b, t), [a, b], h=1e-6) < 1e-6


def test_gather_rows_gradient_with_repeated_and_unused_rows():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    rows = np.array([4, 0, 4, 2, 0, 4])       # rows 1 and 3 unused
    t = Tensor(rng.standard_normal((6, 3)))
    assert dc.finite_diff_check(lambda: dc.mse(dc.gather_rows(a, rows), t), [a],
                                h=1e-6) < 1e-6


def test_gather_rows_sums_duplicate_row_gradients():
    a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = dc.gather_rows(a, np.array([2, 0, 2, 2]))
    assert np.array_equal(out.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0], [4.0, 5.0]])
    g = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    dc.backward((out * Tensor(g)).sum())
    assert np.array_equal(a.grad, [[3.0, 4.0], [0.0, 0.0], [13.0, 16.0]])


def test_gather_rows_records_no_node_under_no_grad():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    with dc.no_grad():
        out = dc.gather_rows(a, np.array([0, 0, 1]))
    assert out.op is None and out.parents == () and not out.requires_grad
    assert np.array_equal(out.data, np.ones((3, 2)))


def test_matmul_is_pure():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(rng.standard_normal((3, 3)))
    first = (a @ b).data
    second = (a @ b).data
    assert np.array_equal(first, second)


def test_backward_linearity():
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal(4), requires_grad=True)
    x1 = Tensor(rng.standard_normal(4))
    x2 = Tensor(rng.standard_normal(4))

    dc.backward(dc.mse(w * x1, Tensor(np.zeros(4))) + dc.mse(w * x2, Tensor(np.zeros(4))))
    combined = w.grad.copy()
    w.zero_grad()
    dc.backward(dc.mse(w * x1, Tensor(np.zeros(4))))
    g1 = w.grad.copy()
    w.zero_grad()
    dc.backward(dc.mse(w * x2, Tensor(np.zeros(4))))
    g2 = w.grad.copy()
    assert np.allclose(combined, g1 + g2, atol=1e-14)


def test_grad_accumulates_across_backwards():
    w = Tensor([1.0, 2.0], requires_grad=True)
    dc.backward((w * w).sum())
    dc.backward((w * w).sum())
    assert np.array_equal(w.grad, [4.0, 8.0])


def test_no_grad_blocks_taping():
    w = Tensor([1.0], requires_grad=True)
    with dc.no_grad():
        out = w * w
    assert out.parents == () and not out.requires_grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_adamw_zero_grad_zero_decay_identity():
    p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    opt = dc.AdamW({"p": p}, lr=1e-3, weight_decay=0.0)
    before = p.data.copy()
    p.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_single_step_magnitude():
    p = Tensor(0.5, requires_grad=True)
    opt = dc.AdamW({"p": p}, lr=1e-3, weight_decay=0.0)
    p.grad = np.asarray(1.0)
    opt.step()
    # Bias-corrected moment ratio is ~1 on the first step.
    assert abs((0.5 - float(p.data)) - 1e-3) < 1e-9


def test_adamw_decoupled_decay_closed_form():
    p = Tensor(2.0, requires_grad=True)
    opt = dc.AdamW({"p": p}, lr=1e-3, weight_decay=1e-2)
    value = 2.0
    for _ in range(5):
        p.grad = np.asarray(0.0)
        opt.step()
        value *= 1.0 - 1e-3 * 1e-2
    assert abs(float(p.data) - value) < 1e-15


def test_adamw_missing_gradient_error():
    p = Tensor(1.0, requires_grad=True)
    opt = dc.AdamW({"p": p})
    with pytest.raises(dc.MissingGradientError, match="p"):
        opt.step()


def test_adamw_no_decay_set():
    p = Tensor(2.0, requires_grad=True)
    q = Tensor(2.0, requires_grad=True)
    opt = dc.AdamW({"p": p, "q": q}, lr=1e-3, weight_decay=1e-2, no_decay={"q"})
    p.grad = np.asarray(0.0)
    q.grad = np.asarray(0.0)
    opt.step()
    assert float(p.data) < 2.0
    assert float(q.data) == 2.0


def test_adamw_grad_clip():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = dc.AdamW({"p": p}, lr=1.0, weight_decay=0.0, grad_clip=1.0)
    p.grad = np.array([30.0, 40.0])
    opt.step()
    # Clipped gradient keeps the direction; step count advanced.
    assert opt.step_count == 1
    assert np.all(np.isfinite(p.data))
