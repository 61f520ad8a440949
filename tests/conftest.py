"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from shredkit import diffcore as dc
from shredkit.nets import GruLayerParams, WidthMismatchError
from tape_ops import sigmoid, sub, tanh


def _gru_cell(x, h_prev, layer: GruLayerParams):
    """One gated step on tape tensors: x is (batch, in), h_prev is (batch, hidden).

    The per-step transcription of the GRU equations that ``nets`` documents,
    built from diffcore primitives and the test-side gates in ``tape_ops``.
    """
    if x.shape[-1] != layer.W_u.shape[0]:
        raise WidthMismatchError(f"gru_cell: input width {x.shape[-1]} != {layer.W_u.shape[0]}")
    if h_prev.shape[-1] != layer.U_u.shape[0]:
        raise WidthMismatchError(f"gru_cell: hidden width {h_prev.shape[-1]} != {layer.U_u.shape[0]}")
    u = sigmoid(x @ layer.W_u + h_prev @ layer.U_u + layer.b_u)
    r = sigmoid(x @ layer.W_r + h_prev @ layer.U_r + layer.b_r)
    cand = tanh(x @ layer.W_h + (r * h_prev) @ layer.U_h + layer.b_h)
    return sub(1.0, u) * h_prev + u * cand


@pytest.fixture
def gru_cell():
    """The per-step GRU cell, the oracle the fused ``diffcore.gru_sequence`` is tested against."""
    return _gru_cell


@pytest.fixture
def nan_relu_gradient(monkeypatch):
    """``diffcore.relu`` with its usual forward and a NaN backward.

    The decoder's hidden layers call it, so a training batch keeps a finite
    loss while the gradients of the encoder and the decoder's hidden layers
    turn NaN.
    """
    relu = dc.relu

    def nan_relu(a):
        out = relu(a)
        if out.requires_grad:
            out._backward = lambda g: (np.full(a.shape, np.nan),)
        return out

    monkeypatch.setattr(dc, "relu", nan_relu)
