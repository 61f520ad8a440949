"""Sparse dynamics identification over a polynomial + trig function library.

Covers library evaluation (one numpy routine, which the dynamics penalty also
records as a single differentiable tape node), sequential thresholded least
squares, the Euler mini-step recurrent cell, ensembles under a threshold
ladder, the linear (Koopman) restriction, and eigen-analysis of discovered
linear generators.

Conventions: states are rows, so zdot = theta(z) @ Xi with Xi of shape (p, d);
column j of Xi gives dz_j/dt. The column-convention generator of a linear
model is Xi[linear].T.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


class DimensionMismatchError(ValueError):
    pass


class ConditioningError(RuntimeError):
    """Normal equations singular; suggests ridge > 0."""


class RolloutDivergenceError(RuntimeError):
    """A returned trajectory went non-finite; ``frame`` (>= 1) is the first frame that did."""

    def __init__(self, frame: int):
        super().__init__(f"non-finite state at frame {frame}")
        self.frame = frame


class EigenAnalysisError(RuntimeError):
    pass


@dataclass(frozen=True)
class LibrarySpec:
    """Candidate-function library: constant, graded-lex monomials, then per-coordinate trig.

    ``trig`` entries are (kind, frequency) with kind in {"sin", "cos"}; each is
    applied to every coordinate, so the trig block contributes dim * len(trig)
    terms. The ordering is total and stable, which keeps serialized coefficient
    matrices meaningful across reloads.
    """

    dim: int
    poly_degree: int
    include_constant: bool = True
    trig: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("library dim must be >= 1")
        if self.poly_degree < 0:
            raise DimensionMismatchError("poly_degree must be >= 0")
        for kind, _freq in self.trig:
            if kind not in ("sin", "cos"):
                raise DimensionMismatchError(f"unknown trig kind {kind!r}")

    def monomials(self) -> list[tuple[int, ...]]:
        """Index tuples (with repetition) for each monomial, graded-lex order."""
        terms = []
        for degree in range(1, self.poly_degree + 1):
            terms.extend(itertools.combinations_with_replacement(range(self.dim), degree))
        return terms

    @property
    def term_count(self) -> int:
        p = len(self.monomials()) + self.dim * len(self.trig)
        return p + (1 if self.include_constant else 0)

    def term_names(self, var: str = "z") -> list[str]:
        names = ["1"] if self.include_constant else []
        for mono in self.monomials():
            parts = []
            for j, grp in itertools.groupby(mono):
                e = len(list(grp))
                parts.append(f"{var}{j + 1}" + (f"^{e}" if e > 1 else ""))
            names.append(" ".join(parts))
        for kind, freq in self.trig:
            for j in range(self.dim):
                arg = f"{var}{j + 1}" if freq == 1.0 else f"{freq:g} {var}{j + 1}"
                names.append(f"{kind}({arg})")
        return names

    @property
    def linear_slice(self) -> slice:
        """Positions of the pure linear terms z1..zd within the ordering."""
        if self.poly_degree < 1:
            raise DimensionMismatchError("library has no linear terms")
        start = 1 if self.include_constant else 0
        return slice(start, start + self.dim)


def evaluate_library(Z: np.ndarray, spec: LibrarySpec) -> np.ndarray:
    """Evaluate all candidate functions on states Z of shape (n, d) -> (n, p).

    Every term is written in place into its column of one column-major (n, p)
    array, so each write is contiguous and LAPACK takes the array without a
    copy. The constant is 1.0, the degree-1 block (the first d monomials) is a
    copy of Z, a higher monomial multiplies its factors in index order, and
    each trig entry fills its d columns at once. Each monomial is therefore
    bit-identical to ``1.0 * z_a * z_b * ...`` evaluated left to right. A
    single row is both C- and F-contiguous.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    n, d = Z.shape
    if d != spec.dim:
        raise DimensionMismatchError(f"state dim {d} != library dim {spec.dim}")
    monomials = spec.monomials()
    c = 1 if spec.include_constant else 0
    out = np.empty((n, c + len(monomials) + d * len(spec.trig)), order="F")
    if c:
        out[:, 0] = 1.0
    if spec.poly_degree >= 1:
        out[:, c:c + d] = Z
        c += d
    for mono in monomials[d:]:
        col = out[:, c]
        np.multiply(Z[:, mono[0]], Z[:, mono[1]], out=col)
        for j in mono[2:]:
            col *= Z[:, j]
        c += 1
    for kind, freq in spec.trig:
        fn = np.sin if kind == "sin" else np.cos
        fn(freq * Z, out=out[:, c:c + d])
        c += d
    return out


def library_features(z: Tensor, spec: LibrarySpec) -> Tensor:
    """:func:`evaluate_library` on the states along z's last axis, as one tape node.

    The forward is ``evaluate_library`` itself, copied to row-major order. The
    backward is the library's Jacobian: a monomial sends its gradient to each
    factor times the product of the other factors, and a trig term multiplies
    its gradient by ``freq*cos(freq*z)`` (sin) or ``-freq*sin(freq*z)`` (cos).
    """
    d = spec.dim
    if z.shape[-1] != d:
        raise DimensionMismatchError(f"state dim {z.shape[-1]} != library dim {d}")
    Z = z.data.reshape(-1, d)
    theta = np.ascontiguousarray(evaluate_library(Z, spec))

    def backward(g):
        G = g.reshape(theta.shape)
        dZ = np.zeros_like(Z)
        c = 1 if spec.include_constant else 0
        for mono in spec.monomials():
            for i, j in enumerate(mono):
                term = G[:, c]
                for other in mono[:i] + mono[i + 1:]:
                    term = term * Z[:, other]
                dZ[:, j] += term
            c += 1
        for kind, freq in spec.trig:
            if kind == "sin":
                dZ += G[:, c:c + d] * (freq * np.cos(freq * Z))
            else:
                dZ -= G[:, c:c + d] * (freq * np.sin(freq * Z))
            c += d
        return (dZ.reshape(z.shape),)

    return dc._node("library", theta.reshape(z.shape[:-1] + (theta.shape[1],)), (z,), backward)


@dataclass
class SindyModel:
    """Latent ODE zdot = theta(z) @ Xi advanced by k explicit-Euler mini-steps of dt/k."""

    spec: LibrarySpec
    Xi: np.ndarray          # (p, d), or (E, p, d) for an ensemble of E members
    mask: np.ndarray        # boolean, Xi's shape; Xi is zero wherever mask is False
    dt: float = 1.0
    k: int = 1

    def __post_init__(self):
        self.Xi = np.asarray(self.Xi, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        p, d = self.spec.term_count, self.spec.dim
        if self.Xi.ndim not in (2, 3) or self.Xi.shape[-2:] != (p, d):
            raise DimensionMismatchError(f"Xi shape {self.Xi.shape} != ([E,] {p}, {d})")
        if self.mask.shape != self.Xi.shape:
            raise DimensionMismatchError("mask shape differs from Xi")
        if self.dt <= 0 or self.k < 1:
            raise DimensionMismatchError("need dt > 0 and k >= 1")

    @property
    def nnz(self) -> int:
        return int(self.mask.sum())

    def __getitem__(self, e: int) -> "SindyModel":
        """Member e of an (E, p, d) ensemble."""
        return replace(self, Xi=self.Xi[e], mask=self.mask[e])

    def effective_Xi(self) -> np.ndarray:
        return np.where(self.mask, self.Xi, 0.0)

    def linear_generator(self) -> np.ndarray:
        """Column-convention d x d generator from the pure linear terms."""
        return self.effective_Xi()[self.spec.linear_slice, :].T


def threshold_ladder(low: float, high: float, count: int) -> list[float]:
    return list(np.linspace(low, high, count))


def finite_differences(Z: np.ndarray, dt: float) -> np.ndarray:
    """Second-order derivative estimates: central interior, one-sided 3-point ends."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[0] < 3:
        raise DimensionMismatchError("need at least 3 samples for finite differences")
    dZ = np.empty_like(Z)
    dZ[1:-1] = (Z[2:] - Z[:-2]) / (2.0 * dt)
    dZ[0] = (-3.0 * Z[0] + 4.0 * Z[1] - Z[2]) / (2.0 * dt)
    dZ[-1] = (3.0 * Z[-1] - 4.0 * Z[-2] + Z[-3]) / (2.0 * dt)
    return dZ


def _solve_ridge(theta: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares coefficients of ``rhs`` on ``theta``, ridge-regularized if ridge > 0.

    The ridge-free route must be well posed: it raises ConditioningError when
    cond(theta^T theta) exceeds 1e12. That condition number is (s_max / s_min)^2
    over the singular values the ``lstsq`` solve already returns; with fewer
    rows than columns theta^T theta is singular.
    """
    if ridge > 0:
        gram = theta.T @ theta + ridge * np.eye(theta.shape[1])
        return np.linalg.solve(gram, theta.T @ rhs)
    sol, _, _, s = np.linalg.lstsq(theta, rhs, rcond=None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = (s[0] / s[-1]) ** 2 if s.size == theta.shape[1] else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError("singular normal equations with ridge=0; pass ridge > 0")
    return sol


def fit_stlsq(Z: np.ndarray, dZ: np.ndarray, spec: LibrarySpec, threshold: float,
              iters: int = 20, ridge: float = 1e-6, dt: float = 1.0, k: int = 1) -> SindyModel:
    """Sequential thresholded least squares on derivative targets.

    Alternates ridge refits on the active support with hard thresholding until
    the mask reaches a fixpoint (or ``iters`` rounds), then polishes surviving
    coefficients with one ridge-free least-squares refit so exact-library data
    is recovered to machine precision.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    dZ = np.atleast_2d(np.asarray(dZ, dtype=np.float64))
    if Z.shape != dZ.shape:
        raise DimensionMismatchError(f"states {Z.shape} and targets {dZ.shape} differ")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    theta = evaluate_library(Z, spec)
    n, p = theta.shape
    if n < p:
        warnings.warn(f"fit_stlsq: {n} samples < {p} library terms; fit may be underdetermined",
                      stacklevel=2)
    Xi, mask = _stlsq(theta, dZ, threshold, iters, ridge)
    return SindyModel(spec=spec, Xi=Xi, mask=mask, dt=dt, k=k)


def _stlsq(theta: np.ndarray, dZ: np.ndarray, threshold: float, iters: int,
           ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """``fit_stlsq``'s (Xi, mask) from an already evaluated (n, p) library ``theta``.

    Every column starts on the full support, so the first round is one solve
    with all of ``dZ`` as right-hand sides: one factorization of ``theta``,
    whose singular values also give the ridge-free condition check. Later
    rounds solve column by column on each column's own support.
    """
    p, d = theta.shape[1], dZ.shape[1]
    mask = np.ones((p, d), dtype=bool)
    if p == 0:
        return np.zeros((p, d)), mask
    first = _solve_ridge(theta, dZ, ridge)
    for j in range(d):
        active = mask[:, j]
        coef = first[:, j]
        for round_ in range(max(1, iters)):
            if round_:
                if not active.any():
                    break
                coef = _solve_ridge(theta[:, active], dZ[:, j], ridge)
            keep = np.abs(coef) >= threshold
            if keep.all():
                break
            new_active = active.copy()
            new_active[active] = keep
            active = new_active
        mask[:, j] = active
    return polish(theta, dZ, mask), mask


def polish(theta: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each target column's ridge-free ``lstsq`` on its own support, zero off it;
    a rank-deficient support gets the minimum-norm solution."""
    Xi = np.zeros(mask.shape)
    for j in range(mask.shape[1]):
        active = mask[:, j]
        if active.any():
            Xi[active, j] = np.linalg.lstsq(theta[:, active], targets[:, j], rcond=None)[0]
    return Xi


def sindy_cell(z: np.ndarray, model: SindyModel, Xi: np.ndarray | None = None) -> np.ndarray:
    """Advance state rows one frame via k explicit-Euler sub-steps of h = dt/k.

    ``z`` is (d,) or (n, d); an (E, p, d) Xi advances an (E, d) state, row e
    under member e, exactly as that member alone would (the library is made
    row-major). Unchecked: a non-finite coordinate stays non-finite. A caller
    that steps many frames passes ``Xi = model.effective_Xi()`` and ignores
    overflow and invalid values itself, as ``rollout`` does once per
    trajectory; without ``Xi`` the call does both.
    """
    if Xi is None:
        with np.errstate(over="ignore", invalid="ignore"):
            return _euler_substeps(z, model, model.effective_Xi())
    return _euler_substeps(z, model, Xi)


def _euler_substeps(z: np.ndarray, model: SindyModel, Xi: np.ndarray) -> np.ndarray:
    state = np.atleast_2d(np.asarray(z, dtype=np.float64))
    h = model.dt / model.k
    for _ in range(model.k):
        theta = np.ascontiguousarray(evaluate_library(state, model.spec))
        state = state + h * np.matmul(theta[:, None, :], Xi)[:, 0, :]
    return state.reshape(np.shape(z))


def rollout(model: SindyModel, z0: np.ndarray, steps: int) -> np.ndarray:
    """Trajectory (steps + 1,) + z0.shape from a state or rows z0 under repeated sindy_cell.

    A non-finite row is carried to the end, not raised; callers score or raise on it.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    out = np.empty((steps + 1,) + z0.shape)
    out[0] = z0
    Xi = model.effective_Xi()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            out[t + 1] = sindy_cell(out[t], model, Xi)
    return out


def ensemble_sindy_loss(z_t: Tensor, z_next: Tensor, xi_tensors: list[Tensor],
                        masks: np.ndarray, spec: LibrarySpec,
                        dt: float, k: int) -> Tensor:
    """Sum over ensemble members of mean squared one-step rollout error.

    Member e, ``xi_tensors[e]`` under ``masks[e]`` of the (E, p, d) masks, takes
    k Euler mini-steps of dt/k from ``z_t``. Gradients reach every Xi and both
    latent endpoints (no stop-gradient), so encoder and dynamics co-adapt.
    """
    if z_t.shape[0] == 0:
        raise DimensionMismatchError("empty batch")
    if not xi_tensors:
        raise DimensionMismatchError("empty ensemble")
    b, d = z_t.shape
    # (members, p, d), so every member advances its own copy of the batch.
    xi_stack = dc.concat(xi_tensors, axis=0).reshape(len(xi_tensors), -1, d) * Tensor(masks)
    z = z_t.reshape(1, b, d)
    for _ in range(k):
        z = z + dc.scale(library_features(z, spec) @ xi_stack, dt / k)
    return dc.mse(z, z_next.reshape(1, b, d)) * float(len(xi_tensors))


def koopman_loss(latents: list[Tensor], K: Tensor, m_max: int) -> Tensor:
    """Mean over horizons m=1..m_max of squared m-step linear prediction error.

    ``latents`` holds consecutive latent batches [Z_t, Z_t+1, ..., Z_t+m_max]
    (each (batch, d)); the linear map acts on row states, z' = z @ K.
    """
    if m_max < 1:
        raise DimensionMismatchError("m_max must be >= 1")
    if len(latents) < m_max + 1:
        raise DimensionMismatchError(
            f"need {m_max + 1} consecutive latent batches, got {len(latents)}")
    base = latents[0]
    km = K
    terms = []
    for m in range(1, m_max + 1):
        pred = base @ km
        terms.append(dc.mse(pred, latents[m]))
        if m < m_max:
            km = km @ K
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return dc.scale(total, 1.0 / m_max)


def threshold_prune(model: SindyModel, threshold: float | np.ndarray) -> SindyModel:
    """Clear mask entries with |Xi| below threshold; pruning is monotone and idempotent.

    ``threshold`` may broadcast against Xi: (E, 1, 1) gives each member its own.
    """
    if np.any(np.asarray(threshold) < 0):
        raise ValueError("threshold must be >= 0")
    new_mask = model.mask & (np.abs(model.Xi) >= threshold)
    new_Xi = np.where(new_mask, model.Xi, 0.0)
    return replace(model, Xi=new_Xi, mask=new_mask)


def koopman_restrict(spec: LibrarySpec) -> LibrarySpec:
    """Drop constant and nonlinear terms; the remaining Xi is a d x d generator."""
    return LibrarySpec(dim=spec.dim, poly_degree=1, include_constant=False, trig=())


@dataclass
class LinearMode:
    eigenvalue: complex
    omega: float                 # |Im|, 0 for real modes
    growth_rate: float           # Re
    period: float | None         # 2*pi/omega for oscillatory modes
    half_life: float | None      # ln2/|Re| when decaying
    doubling_time: float | None  # ln2/Re when growing
    eigenvector: np.ndarray


@dataclass
class LinearSystemAnalysis:
    generator: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    modes: list[LinearMode]

    def oscillation_frequencies(self) -> list[float]:
        return sorted(m.omega for m in self.modes if m.omega > 0)


def analyze_linear_system(G: np.ndarray) -> LinearSystemAnalysis:
    """Eigendecompose a column-convention generator and report per-mode timescales."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatchError(f"generator must be square, got {G.shape}")
    if not np.all(np.isfinite(G)):
        raise EigenAnalysisError("generator has non-finite entries")
    try:
        eigvals, eigvecs = np.linalg.eig(G)
    except np.linalg.LinAlgError as exc:
        raise EigenAnalysisError(f"eigensolver failed: {exc}") from exc
    scale = max(np.linalg.norm(G), 1e-300)
    for mu, v in zip(eigvals, eigvecs.T):
        resid = np.linalg.norm(G @ v - mu * v)
        if resid > 1e-8 * scale * np.linalg.norm(v):
            raise EigenAnalysisError(f"eigenpair residual {resid:.3e} too large")

    modes: list[LinearMode] = []
    used = np.zeros(len(eigvals), dtype=bool)
    order = np.argsort(-np.abs(eigvals.imag))
    for i in order:
        if used[i]:
            continue
        mu = eigvals[i]
        used[i] = True
        if abs(mu.imag) > 1e-12:
            # Consume the conjugate partner so each pair is reported once.
            partner = None
            for j in range(len(eigvals)):
                if not used[j] and abs(eigvals[j] - np.conj(mu)) <= 1e-8 * max(1.0, abs(mu)):
                    partner = j
                    break
            if partner is not None:
                used[partner] = True
            omega = abs(mu.imag)
            lam = mu.real
            modes.append(LinearMode(
                eigenvalue=complex(mu), omega=omega, growth_rate=lam,
                period=2.0 * math.pi / omega,
                half_life=math.log(2.0) / abs(lam) if lam < 0 else None,
                doubling_time=math.log(2.0) / lam if lam > 0 else None,
                eigenvector=eigvecs[:, i]))
        else:
            lam = mu.real
            modes.append(LinearMode(
                eigenvalue=complex(mu), omega=0.0, growth_rate=lam, period=None,
                half_life=math.log(2.0) / abs(lam) if lam < 0 else None,
                doubling_time=math.log(2.0) / lam if lam > 0 else None,
                eigenvector=eigvecs[:, i].real))
    return LinearSystemAnalysis(generator=G, eigenvalues=eigvals,
                                eigenvectors=eigvecs, modes=modes)


def equations_text(model: SindyModel, var: str = "z") -> str:
    """Plain-text listing, one line per coordinate's discovered equation."""
    names = model.spec.term_names(var)
    Xi = model.effective_Xi()
    lines = []
    for j in range(model.spec.dim):
        terms = []
        for i, name in enumerate(names):
            c = Xi[i, j]
            if model.mask[i, j] and c != 0.0:
                sign = "-" if c < 0 else ("+" if terms else "")
                mag = abs(c)
                body = f"{mag:.6g}" if name == "1" else f"{mag:.6g} {name}"
                terms.append(f"{sign} {body}" if terms else f"{sign}{body}")
        rhs = " ".join(terms) if terms else "0"
        lines.append(f"d{var}{j + 1}/dt = {rhs}")
    return "\n".join(lines)
