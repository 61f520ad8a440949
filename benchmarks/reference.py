"""Reference computations the workload checks compare against.

Everything here is plain numpy written from the conventions the package
documents, without calling into ``shredkit``: the GRU gate convention of the
``nets`` docstring, a ReLU decoder, the polynomial-plus-trig library with k
explicit-Euler mini-steps, the Koopman power ``z @ K^t`` and the SINDy
selection rule. Parameters arrive as plain arrays keyed by the names of
``ShredModel.named_parameters()`` (``gru0.W_u``, ``dec0.W``, ``xi3``, ``K``).
"""

from __future__ import annotations

import itertools

import numpy as np


def sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def gru_step(x: np.ndarray, h: np.ndarray, p: dict) -> np.ndarray:
    """h_t = (1-u) h + u c; the reset gate multiplies h before the candidate's matmul."""
    u = sigmoid(x @ p["W_u"] + h @ p["U_u"] + p["b_u"])
    r = sigmoid(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
    c = np.tanh(x @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
    return (1.0 - u) * h + u * c


def gru_layers(params: dict) -> list[dict]:
    layers = []
    while f"gru{len(layers)}.W_u" in params:
        i = len(layers)
        layers.append({k: params[f"gru{i}.{k}"] for k in
                       ("W_u", "U_u", "b_u", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")})
    return layers


def encode(windows: np.ndarray, params: dict) -> np.ndarray:
    """Final top-layer hidden state for (batch, L, S) windows; zero initial hiddens."""
    xs = [windows[:, t, :] for t in range(windows.shape[1])]
    for p in gru_layers(params):
        h = np.zeros((windows.shape[0], p["U_u"].shape[0]))
        outs = []
        for x in xs:
            h = gru_step(x, h, p)
            outs.append(h)
        xs = outs
    return xs[-1]


def decode(z: np.ndarray, params: dict) -> np.ndarray:
    """Evaluation-mode decoder: ReLU hidden layers, then an affine output layer."""
    h = z
    i = 0
    while f"dec{i}.W" in params:
        h = np.maximum(h @ params[f"dec{i}.W"] + params[f"dec{i}.b"], 0.0)
        i += 1
    return h @ params["dec_out.W"] + params["dec_out.b"]


def library(Z: np.ndarray, dim: int, degree: int, constant: bool,
            trig: tuple = ()) -> np.ndarray:
    """Constant, monomials of degree 1..degree in graded-lex order, then each trig term per coordinate."""
    Z = np.atleast_2d(Z)
    cols = [np.ones(Z.shape[0])] if constant else []
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), deg):
            col = Z[:, combo[0]]
            for j in combo[1:]:
                col = col * Z[:, j]
            cols.append(col)
    for kind, freq in trig:
        fn = np.sin if kind == "sin" else np.cos
        cols.extend(fn(freq * Z[:, j]) for j in range(dim))
    return np.stack(cols, axis=1)


def euler_advance(Z: np.ndarray, Xi: np.ndarray, lib, dt: float, k: int) -> np.ndarray:
    """One frame: k explicit-Euler mini-steps of dt/k under zdot = lib(z) @ Xi."""
    h = dt / k
    for _ in range(k):
        Z = Z + h * (lib(Z) @ Xi)
    return Z


def euler_rollout_mses(latents: np.ndarray, Xis: list[np.ndarray], lib, dt: float,
                       k: int) -> list[float]:
    """Per member, MSE of an uncorrected rollout from latents[0] over the whole trajectory.

    All members advance together as rows of one state array. A member whose
    state turns non-finite at any mini-step scores inf.
    """
    Xs = np.stack(Xis)                                   # (members, p, d)
    z = np.repeat(latents[:1], len(Xis), axis=0)         # (members, d)
    alive = np.ones(len(Xis), dtype=bool)
    sq = np.zeros(len(Xis))
    h = dt / k
    with np.errstate(over="ignore", invalid="ignore"):
        for target in latents[1:]:
            for _ in range(k):
                z = z + h * np.matmul(lib(z)[:, None, :], Xs)[:, 0, :]
                alive &= np.all(np.isfinite(z), axis=1)
            sq += np.sum((z - target) ** 2, axis=1)
    mse = sq / latents.size
    return [float(m) if ok and np.isfinite(m) else float("inf") for m, ok in zip(mse, alive)]


def koopman_power(z: np.ndarray, K: np.ndarray, t: int) -> np.ndarray:
    return z @ np.linalg.matrix_power(K, t)


def select_member(mses: list[float], nnz: list[int]) -> int | None:
    """Sparsest member within 10% of the best validation MSE, ties to the lower index."""
    best = min(mses)
    if not np.isfinite(best):
        return None
    candidates = [i for i, m in enumerate(mses) if m <= best * 1.1]
    return min(candidates, key=lambda i: (nnz[i], i))


def combined_loss(params: dict, masks: list[np.ndarray], windows: list[np.ndarray],
                  targets: list[np.ndarray], cfg: dict) -> float:
    """Evaluation-mode reconstruction MSE plus the weighted latent-dynamics penalty.

    ``cfg`` holds mode, dt, ministeps, koopman_m_max, sindy_loss_weight and the
    library description (latent_dim, poly_degree, include_constant, trig).
    """
    nb = windows[0].shape[0]
    z = encode(np.concatenate(windows, axis=0), params)
    recon = float(np.mean((decode(z, params) - np.concatenate(targets, axis=0)) ** 2))
    zs = [z[m * nb:(m + 1) * nb] for m in range(len(windows))]
    if cfg["mode"] == "koopman":
        m_max = cfg["koopman_m_max"]
        dyn = sum(float(np.mean((koopman_power(zs[0], params["K"], m) - zs[m]) ** 2))
                  for m in range(1, m_max + 1)) / m_max
    else:
        lib = lambda Z: library(Z, cfg["latent_dim"], cfg["poly_degree"],
                                cfg["include_constant"], cfg["trig"])
        dyn = 0.0
        for i, mask in enumerate(masks):
            Xi = np.where(mask, params[f"xi{i}"], 0.0)
            pred = euler_advance(zs[0], Xi, lib, cfg["dt"], cfg["ministeps"])
            dyn += float(np.mean((pred - zs[1]) ** 2))
    return recon + cfg["sindy_loss_weight"] * dyn
