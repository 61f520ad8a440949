"""Dense float64 tensors with reverse-mode differentiation and an AdamW optimizer.

The graph is define-by-run: every primitive applied to a tensor that requires
gradients records a node, and ``backward`` releases the graph after one
reverse sweep. All math is numpy under the hood; tensors of any rank are
supported, with limited broadcasting (standard numpy rules) on elementwise
primitives and stacked batching on matmul.

The primitives are the ones the program runs: elementwise (add, hadamard,
scale, relu), the mse reduction, matmul and shape moves (concat, slice_axis,
gather_rows, reshape). ``gru_sequence`` fuses a whole GRU layer
over all time steps into one tape node with a hand-derived backward through
time; ``sindy.library_features`` builds its library node with ``_node`` the
same way.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when primitive inputs do not conform."""


class GraphError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, empty graph)."""


class MissingGradientError(RuntimeError):
    """Raised when the optimizer steps a parameter that has no gradient."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / finite differences)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array plus optional gradient buffer and graph metadata."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"

    # Operator sugar over the primitives below.
    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return _hadamard(self, _as_tensor(other))

    def __matmul__(self, other):
        return _matmul(self, _as_tensor(other))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(op: str, out: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    t = Tensor(out)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t.op = op
        t.parents = parents
        t._backward = backward
    return t


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node("add", out, (a, b), backward)


def _hadamard(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("hadamard", a, b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node("hadamard", out, (a, b), backward)


def _matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatchError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError(f"matmul: batch dims do not broadcast, {a.shape} @ {b.shape}") from None

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node("matmul", out, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _node("relu", out, (a,), backward)


def mse(a: Tensor, b) -> Tensor:
    b = _as_tensor(b)
    _require_same_shape("mse", a, b)
    diff = a.data - b.data
    out = np.asarray(np.mean(diff * diff))
    n = diff.size

    def backward(g):
        d = (2.0 / n) * diff * g
        return _unbroadcast(d, a.shape), _unbroadcast(-d, b.shape)

    return _node("mse", out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def backward(g):
        return (g * c,)

    return _node("scale", out, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(_as_tensor(t) for t in tensors)
    if not tensors:
        raise ShapeMismatchError("concat: empty input list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatchError(
            f"concat: shapes {[t.shape for t in tensors]} on axis {axis}"
        ) from None
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        splits = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(s for s in splits)

    return _node("concat", out, tensors, backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = a.data.ndim
    axis = axis % nd
    if not (0 <= start < stop <= a.data.shape[axis]):
        raise ShapeMismatchError(
            f"slice: [{start}:{stop}] out of range for axis {axis} of shape {a.shape}"
        )
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(nd))
    out = a.data[idx]

    def backward(g):
        full = np.zeros(a.data.shape)
        full[idx] = g
        return (full,)

    return _node("slice", out, (a,), backward)


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """``a[rows]`` along the leading axis; a row taken k times gets the sum of its k gradients."""
    out = a.data[rows]

    def backward(g):
        full = np.zeros(a.data.shape)
        np.add.at(full, rows, g)
        return (full,)

    return _node("gather_rows", out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _node("reshape", out, (a,), backward)


def _copy_rows(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` for float64 arrays whose last axis is contiguous.

    Each last-axis row moves as one opaque item, so a copy that permutes the
    leading axes loops over rows instead of over a few elements at a time.
    """
    row = np.dtype((np.void, 8 * src.shape[-1]))
    np.copyto(dst.view(row)[..., 0], src.view(row)[..., 0])


def gru_sequence(x, W_u: Tensor, U_u: Tensor, b_u: Tensor, W_r: Tensor, U_r: Tensor,
                 b_r: Tensor, W_h: Tensor, U_h: Tensor, b_h: Tensor) -> Tensor:
    """One GRU layer over a whole sequence: inputs (B, L, S) to hiddens (B, L, H).

    Records a single tape node. The input projection of every step is one
    ``(L·B, S) @ (S, 3H)`` matmul against the stacked gates ``[W_u|W_r|W_h]``;
    the recurrence then runs in plain numpy from a zero initial hidden,
    caching u, r and the candidate for the hand-derived BPTT backward. Gates
    follow Cho et al. (2014): ``h = (1-u)*h_prev + u*cand``, with the reset
    gate applied to ``h_prev`` before ``U_h``.

    Storage is time-major and gate-major, so that every per-step operand is
    one contiguous block: projections, gates and pre-activation gradients are
    (L, 3, B, H) with the gates in the order [u, r, cand], and the hidden
    sequence is (L, B, H). The node's data is the (B, L, H) view of it.
    """
    x = _as_tensor(x)
    params = (W_u, U_u, b_u, W_r, U_r, b_r, W_h, U_h, b_h)
    S, H = x.shape[-1], U_u.shape[-1]
    if x.data.ndim != 3 or any(p.shape != s for p, s in zip(params, [(S, H), (H, H), (H,)] * 3)):
        raise ShapeMismatchError(
            f"gru_sequence: input {x.shape} and gates {[p.shape for p in params]} do not conform")
    B, L, _ = x.shape
    W = np.concatenate([W_u.data, W_r.data, W_h.data], axis=1)
    b = np.concatenate([b_u.data, b_r.data, b_h.data])
    U_ur = np.stack([U_u.data, U_r.data])
    xt = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(L * B, S)
    xw = xt @ W
    xw += b
    # Input projections x W + b, which each step turns into its gates in place.
    gates = np.empty((L, 3, B, H))
    _copy_rows(gates, xw.reshape(L, B, 3, H).transpose(0, 2, 1, 3))
    del xw  # released before the buffers below: a lower peak touches fewer fresh pages
    hs = np.empty((L + 1, B, H))  # hs[0] is the zero initial hidden, hs[t + 1] = h_t
    hs[0] = 0.0
    carry = np.empty((L, B, H))  # 1 - u
    hu, rh, uc = np.empty((2, B, H)), np.empty((B, H)), np.empty((B, H))
    for t in range(L):
        h, ur, cand = hs[t], gates[t, :2], gates[t, 2]
        ur += np.matmul(h, U_ur, out=hu)
        np.exp(np.negative(ur, out=ur), out=ur)
        ur += 1.0
        u, r = np.divide(1.0, ur, out=ur)
        cand += np.matmul(np.multiply(r, h, out=rh), U_h.data, out=uc)
        np.tanh(cand, out=cand)
        h_new = np.multiply(np.subtract(1.0, u, out=carry[t]), h, out=hs[t + 1])
        h_new += np.multiply(u, cand, out=uc)

    def backward(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2))
        h_prev, u, r, cand = hs[:-1], gates[:, 0], gates[:, 1], gates[:, 2]
        d_a = np.empty((L, 3, B, H))  # gradients of the gate pre-activations
        # Factors turning dL/dh_t into each gate's pre-activation gradient,
        # built in place (d_a[:, 1] holds 1 - r until the loop overwrites it).
        k = np.empty((L, 3, B, H))
        k_u, k_r, k_c = k[:, 0], k[:, 1], k[:, 2]
        np.multiply(np.subtract(cand, h_prev, out=k_u), u, out=k_u)
        k_u *= carry
        np.multiply(h_prev, r, out=k_r)
        k_r *= np.subtract(1.0, r, out=d_a[:, 1])
        np.subtract(1.0, np.multiply(cand, cand, out=k_c), out=k_c)
        k_c *= u
        U_hT, U_urT = U_h.data.T, U_ur.transpose(0, 2, 1)
        dh = np.zeros((B, H))
        d_rh, tmp, d_ur = np.empty((B, H)), np.empty((B, H)), np.empty((2, B, H))
        for t in reversed(range(L)):
            dh += gt[t]
            da, kt = d_a[t], k[t]
            np.multiply(dh, kt[0], out=da[0])
            np.matmul(np.multiply(dh, kt[2], out=da[2]), U_hT, out=d_rh)
            np.multiply(d_rh, kt[1], out=da[1])
            np.matmul(da[:2], U_urT, out=d_ur)
            dh *= carry[t]
            dh += np.multiply(d_rh, r[t], out=tmp)
            dh += d_ur[0]
            dh += d_ur[1]
        # k is spent: its buffer takes d_a rearranged to (L·B, 3H) for the weight gradients.
        d_flat = k.reshape(L, B, 3, H)
        _copy_rows(d_flat, d_a.transpose(0, 2, 1, 3))
        d_flat = d_flat.reshape(L * B, 3 * H)
        dW = xt.T @ d_flat
        dU_ur = h_prev.reshape(L * B, H).T @ d_flat[:, :2 * H]
        dU_h = (r * h_prev).reshape(L * B, H).T @ d_flat[:, 2 * H:]
        db = d_a.sum(axis=0).sum(axis=1).reshape(3 * H)
        dx = (d_flat @ W.T).reshape(L, B, S).transpose(1, 0, 2) if x.requires_grad else None
        return (dx, dW[:, :H], dU_ur[:, :H], db[:H], dW[:, H:2 * H], dU_ur[:, H:],
                db[H:2 * H], dW[:, 2 * H:], dU_h, db[2 * H:])

    return _node("gru_sequence", hs[1:].transpose(1, 0, 2), (x, *params), backward)


# ---------------------------------------------------------------------------
# Backward sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires-grad leaf, then free the graph.

    Gradients accumulate into existing ``grad`` buffers (sum semantics), so two
    sweeps from separate losses add up.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward is None and not loss.requires_grad:
        raise GraphError("backward called on a tensor with no recorded operations")

    # Iterative topological order over recorded parents.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node.parents, parent_grads):
            if not p.requires_grad:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
        # Release the tape node so the graph is single-use.
        node._backward = None
        node.parents = ()


def finite_diff_check(f, params, h: float = 1e-6) -> float:
    """Max relative error between analytic gradients of ``f()`` and central differences.

    ``f`` is a zero-argument callable evaluating the scalar loss from the
    current parameter values. Non-finite intermediates surface as ``inf``.
    """
    if h <= 0:
        raise ValueError("finite_diff_check requires h > 0")
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    with no_grad():
        for p, ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().data)
                flat[i] = orig - h
                fm = float(f().data)
                flat[i] = orig
                num = (fp - fm) / (2.0 * h)
                if not (math.isfinite(num) and math.isfinite(gflat[i])):
                    return float("inf")
                err = abs(gflat[i] - num) / max(1.0, abs(num))
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class AdamW:
    """Adaptive moments with decoupled weight decay over a named parameter dict.

    Parameters listed in ``no_decay`` skip the decay term (used for dynamics
    coefficients, whose sparsity is handled by thresholding instead).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-2, grad_clip: float | None = None,
                 no_decay: set[str] | None = None):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self.no_decay = set(no_decay or ())
        self.step_count = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradientError(f"parameter {name!r} has no gradient")
        if self.grad_clip is not None:
            total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in self.params.values()))
            if total > self.grad_clip:
                factor = self.grad_clip / total
                for p in self.params.values():
                    p.grad *= factor
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and name not in self.no_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for name in self.params:
            self.m[name] = np.asarray(arrays[f"adam.m.{name}"], dtype=np.float64)
            self.v[name] = np.asarray(arrays[f"adam.v.{name}"], dtype=np.float64)
        self.step_count = int(step_count)
