"""Stacked GRU encoder over sensor lag-windows and the shallow field decoder.

Gate convention: h_t = (1-u) * h_prev + u * h_cand, with the update gate u
multiplying the candidate, the reset gate applied to the hidden state before
the candidate's recurrent matmul. The encoder runs each layer as one fused
``diffcore.gru_sequence`` tape node over the whole lag window. Dropout is
decoder-only (inverted, so eval mode needs no rescaling) and can be disabled
per config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


class WidthMismatchError(ValueError):
    pass


@dataclass
class GruLayerParams:
    W_u: Tensor
    U_u: Tensor
    b_u: Tensor
    W_r: Tensor
    U_r: Tensor
    b_r: Tensor
    W_h: Tensor
    U_h: Tensor
    b_h: Tensor

    def tensors(self) -> dict[str, Tensor]:
        return {k: getattr(self, k) for k in
                ("W_u", "U_u", "b_u", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")}


@dataclass
class GruParams:
    layers: list[GruLayerParams]   # the widths are the weight shapes

    def tensors(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, t in layer.tensors().items():
                out[f"gru{i}.{k}"] = t
        return out


@dataclass
class DecoderParams:
    hidden: list[tuple[Tensor, Tensor]]  # (W, b) per hidden layer, ReLU + dropout after each
    out_W: Tensor
    out_b: Tensor
    dropout: float = 0.0

    @property
    def output_dim(self) -> int:
        return self.out_W.shape[1]

    def tensors(self) -> dict[str, Tensor]:
        out = {}
        for i, (W, b) in enumerate(self.hidden):
            out[f"dec{i}.W"] = W
            out[f"dec{i}.b"] = b
        out["dec_out.W"] = self.out_W
        out["dec_out.b"] = self.out_b
        return out


def encode_window(window: np.ndarray, params: GruParams) -> Tensor:
    """Map a batch of lag-windows (batch, L, S) to latents (batch, d).

    Each layer is one fused ``diffcore.gru_sequence`` node whose hidden
    sequence feeds the next layer; the returned latent is the final time-step
    hidden state of the top layer. Initial hiddens are zero. Parameters that
    stack K sets along a leading axis (see ``gru_sequence``) give (K, batch, d).
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 2:
        window = window[None, :, :]
    batch, lag, nsens = window.shape
    n_in = params.layers[0].W_u.shape[-2]
    if nsens != n_in:
        raise WidthMismatchError(f"encode_window: sensor count {nsens} != {n_in}")
    if lag < 1:
        raise WidthMismatchError("encode_window: empty lag window")
    h = Tensor(window)
    for layer in params.layers:
        in_w = layer.W_u.shape[-2]
        if h.shape[-1] != in_w:
            raise WidthMismatchError(f"encode_window: input width {h.shape[-1]} != {in_w}")
        h = dc.gru_sequence(h, *layer.tensors().values())
    return dc.reshape(dc.slice_axis(h, -2, lag - 1, lag), h.shape[:-3] + (batch, h.shape[-1]))


def decode(z: Tensor, params: DecoderParams, train_mode: bool = False,
           rng: np.random.Generator | None = None) -> Tensor:
    """Shallow decoder: (affine, ReLU, dropout)* then a final affine to the field.

    Parameters may stack K sets along a leading axis, each bias as (K, 1, n),
    to decode (K, rows, d) latents with each set.
    """
    expected = (params.hidden[0][0] if params.hidden else params.out_W).shape[-2]
    if z.shape[-1] != expected:
        raise WidthMismatchError(f"decode: latent width {z.shape[-1]} != {expected}")
    h = z
    for W, b in params.hidden:
        h = dc.relu(h @ W + b)
        if train_mode and params.dropout > 0.0:
            if rng is None:
                raise ValueError("decode: train-mode dropout needs an rng")
            keep = 1.0 - params.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * Tensor(mask)
    return h @ params.out_W + params.out_b


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_gru(rng: np.random.Generator, input_size: int, hidden_sizes: list[int]) -> GruParams:
    layers = []
    in_w = input_size
    for width in hidden_sizes:
        layers.append(GruLayerParams(
            W_u=_uniform(rng, (in_w, width), in_w),
            U_u=_uniform(rng, (width, width), width),
            b_u=_uniform(rng, (width,), width),
            W_r=_uniform(rng, (in_w, width), in_w),
            U_r=_uniform(rng, (width, width), width),
            b_r=_uniform(rng, (width,), width),
            W_h=_uniform(rng, (in_w, width), in_w),
            U_h=_uniform(rng, (width, width), width),
            b_h=_uniform(rng, (width,), width),
        ))
        in_w = width
    return GruParams(layers=layers)


def init_decoder(rng: np.random.Generator, latent_dim: int, widths: list[int],
                 output_dim: int, dropout: float = 0.0) -> DecoderParams:
    hidden = []
    in_w = latent_dim
    for w in widths:
        hidden.append((_uniform(rng, (in_w, w), in_w), _uniform(rng, (w,), in_w)))
        in_w = w
    out_W = _uniform(rng, (in_w, output_dim), in_w)
    out_b = _uniform(rng, (output_dim,), in_w)
    return DecoderParams(hidden=hidden, out_W=out_W, out_b=out_b, dropout=dropout)


def init_params(seed: int, input_size: int, hidden_sizes: list[int],
                decoder_widths: list[int], output_dim: int,
                dropout: float = 0.0) -> tuple[GruParams, DecoderParams]:
    """Deterministic uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    gru = init_gru(rng, input_size, hidden_sizes)
    dec = init_decoder(rng, hidden_sizes[-1], decoder_widths, output_dim, dropout)
    return gru, dec
