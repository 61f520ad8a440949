"""Field ingestion, standardization, sensor selection, lag windows, generators.

The on-disk field container ("FLD1") stores the payload as little-endian
float32 row-major, time-major; in-memory computation is float64 throughout.
Generators that emit Fields quantize their output to float32-representable
values once, at the end of generation, so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import io
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

MAGIC = b"FLD1"
VERSION = 1
IO_BLOCK = 1 << 18  # payload values per read or write: bounds the float32 staging to 1 MiB


class FieldFormatError(ValueError):
    pass


class DegenerateScaleError(ValueError):
    pass


class SensorSelectionError(ValueError):
    pass


@dataclass
class Field:
    """Time-major dense snapshots: data is (T, N) with optional grid metadata."""

    data: np.ndarray
    grid_shape: tuple[int, ...] | None = None
    scale: tuple[float, float] | None = None  # (min, max) used for standardization
    dt_physical: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or 0 in self.data.shape:
            raise FieldFormatError(
                f"field data must be (T, N) with T, N >= 1, got {self.data.shape}")
        if not 0 < self.dt_physical < np.inf:
            raise FieldFormatError(f"dt_physical must be finite and > 0, got {self.dt_physical}")
        if self.grid_shape is not None:
            self.grid_shape = tuple(int(x) for x in self.grid_shape)
            if int(np.prod(self.grid_shape)) != self.data.shape[1]:
                raise FieldFormatError(
                    f"grid {self.grid_shape} product != spatial size {self.data.shape[1]}")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_space(self) -> int:
        return self.data.shape[1]


def _quantize_f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def save_field(fld: Field, path) -> None:
    """Write ``fld`` as FLD1, converting the payload to float32 IO_BLOCK values at a time."""
    t, n = fld.data.shape
    grid = fld.grid_shape or ()
    has_scale = fld.scale is not None
    smin, smax = fld.scale if has_scale else (0.0, 0.0)
    flat = np.ravel(fld.data)  # a view of a C-contiguous field
    with open(path, "wb") as f:
        f.write(struct.pack(f"<4sIB{len(grid)}QQQdBdd", MAGIC, VERSION, len(grid), *grid, t, n,
                            fld.dt_physical, has_scale, smin, smax))
        for s in range(0, flat.size, IO_BLOCK):
            f.write(flat[s:s + IO_BLOCK].astype("<f4"))


def load_field(path) -> Field:
    """Read an FLD1 file into one (T, N) float64 array, IO_BLOCK payload values at a time."""
    with open(path, "rb") as f:
        f = f if f.seekable() else io.BytesIO(f.read())  # a pipe: take it whole to learn its size
        size = f.seek(0, os.SEEK_END)
        f.seek(0)
        raw = f.read(4096)  # a header holds at most 255 grid dims: 2,090 bytes
        if raw[:4] != MAGIC:
            raise FieldFormatError(f"bad magic {raw[:4]!r}; expected {MAGIC.decode()}")
        off = 4
        try:
            (version,) = struct.unpack_from("<I", raw, off)
            off += 4
            if version != VERSION:
                raise FieldFormatError(f"unsupported field version {version}")
            (ndims,) = struct.unpack_from("<B", raw, off)
            off += 1
            grid = None
            if ndims:
                grid = struct.unpack_from(f"<{ndims}Q", raw, off)
                off += 8 * ndims
            t, n = struct.unpack_from("<QQ", raw, off)
            off += 16
            if grid is not None and int(np.prod(grid)) != n:
                raise FieldFormatError(f"grid {grid} product != spatial size {n}")
            if t * n > 2**40:
                raise FieldFormatError(f"dimension overflow: {t} x {n} payload")
            (dt_physical,) = struct.unpack_from("<d", raw, off)
            off += 8
            (has_scale,) = struct.unpack_from("<B", raw, off)
            off += 1
            smin, smax = struct.unpack_from("<dd", raw, off)
            off += 16
        except struct.error:
            raise FieldFormatError(
                f"truncated header at byte {off} ({size} bytes in file)") from None
        expected = t * n * 4
        if size - off < expected:
            raise FieldFormatError(f"truncated payload: {size - off} bytes < {expected}")
        if size - off > expected:
            raise FieldFormatError(f"{size - off - expected} trailing bytes after the payload")
        data, block = np.empty((t, n)), np.empty(min(IO_BLOCK, t * n), dtype="<f4")
        f.seek(off)
        for s in range(0, t * n, IO_BLOCK):
            part = block[:min(IO_BLOCK, t * n - s)]
            if f.readinto(part) != part.nbytes:  # the file shrank after its size was read
                raise FieldFormatError("truncated payload: the file shrank while it was read")
            data.reshape(-1)[s:s + part.size] = part
    # A float32 payload cannot overflow a float64 sum, so the sum is finite iff every value is.
    if not np.isfinite(data.sum()):
        raise FieldFormatError(f"payload holds {np.count_nonzero(~np.isfinite(data))} "
                               f"non-finite values of {t * n}")
    return Field(data=data, grid_shape=grid, dt_physical=dt_physical,
                 scale=(smin, smax) if has_scale else None)


def scale_in_place(fld: Field, scale: tuple[float, float] | None = None) -> Field:
    """Rescale ``fld.data`` in its own array to (x - lo) / (hi - lo), by ``scale`` = (lo, hi) or
    the global extrema, and record the scale. ``x -= lo; x /= hi - lo`` are the expression's
    two IEEE operations, so the bits match it and no second array is made."""
    lo, hi = scale or (float(fld.data.min()), float(fld.data.max()))
    if hi <= lo:
        raise DegenerateScaleError("constant field: max == min")
    fld.data -= lo
    fld.data /= hi - lo
    fld.scale = (lo, hi)
    return fld


def standardize(fld: Field) -> Field:
    """Min-max rescale to [0, 1] using the global extrema over all frames, into a new array."""
    return scale_in_place(replace(fld, data=fld.data.copy()))


@dataclass(frozen=True)
class SensorSet:
    indices: tuple[int, ...]  # strictly increasing spatial positions, from 0
    seed: int

    def __post_init__(self):
        idx = self.indices
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise SensorSelectionError("sensor indices must be strictly increasing")
        if idx and idx[0] < 0:
            # numpy would read a negative index from the end of the field.
            raise SensorSelectionError(f"sensor index {idx[0]} is negative")


def select_sensors(fld: Field, count: int, seed: int, drop_constant: bool = False) -> SensorSet:
    """Uniform sample of spatial positions without replacement, deterministic per seed.

    With ``drop_constant`` the candidate pool excludes non-informative
    positions (constant through every frame).
    """
    n = fld.n_space
    if drop_constant:
        informative = np.flatnonzero(fld.data.max(axis=0) > fld.data.min(axis=0))
        pool = informative
    else:
        pool = np.arange(n)
    if count > pool.size:
        raise SensorSelectionError(
            f"requested {count} sensors but only {pool.size} informative locations")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(pool, size=count, replace=False))
    return SensorSet(indices=tuple(int(i) for i in chosen), seed=seed)


def load_sensor_csv(path) -> SensorSet:
    """One 0-based index per line; user-specified placements carry seed -1."""
    idx = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if line.strip():
                try:
                    idx.append(int(line))
                except ValueError:
                    raise SensorSelectionError(f"{path}, line {number}: {line.strip()!r} is "
                                               "not an integer sensor index") from None
    if not idx:
        raise SensorSelectionError(f"{path} lists no sensor indices")
    return SensorSet(indices=tuple(sorted(idx)), seed=-1)


@dataclass
class WindowedDataset:
    """Lag-window pairs: inputs (B, L, S), targets (B, N) aligned to window end.

    Window b covers frames [b, b+L) and its target is frame b+L-1, so adjacent
    windows give temporally consecutive latent pairs. Splits are contiguous
    time blocks of window start indices. ``inputs`` is a read-only strided
    view of one (T, S) sensor series, so a gather ``inputs[idx]`` is the only
    copy of a window; ``targets`` is a view of the field.
    """

    inputs: np.ndarray
    targets: np.ndarray
    lag: int
    sensors: SensorSet
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    dt_physical: float = 1.0
    grid_shape: tuple[int, ...] | None = None

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def make_windows(fld: Field, sensors: SensorSet, lag: int,
                 splits: tuple[float, float, float] = (0.7, 0.1, 0.2),
                 duplicate_tail_fraction: float = 0.0) -> WindowedDataset:
    """Build all T-L lag windows and contiguous train/validation/test splits.

    ``splits`` is three finite non-negative fractions that sum to 1 and leave
    at least one training window. ``duplicate_tail_fraction`` in [0, 1]
    appends a copy of the last fraction of the training block to the
    training indices (low-data augmentation knob; off by default).
    """
    if not (isinstance(splits, (list, tuple)) and len(splits) == 3
            and all(_is_real(v) and 0 <= v < math.inf for v in splits)
            and abs(sum(splits) - 1.0) <= 1e-9):
        raise ValueError(f"splits must be three finite reals >= 0 that sum to 1, "
                         f"got {splits!r}")
    if not (_is_real(duplicate_tail_fraction) and 0 <= duplicate_tail_fraction <= 1):
        raise ValueError(f"duplicate_tail_fraction must be a real in [0, 1], "
                         f"got {duplicate_tail_fraction!r}")
    t, _ = fld.data.shape
    if t <= lag:
        raise FieldFormatError(f"need more frames than lag: T={t}, L={lag}")
    idx = np.asarray(sensors.indices)
    if idx.size and idx[-1] >= fld.n_space:
        raise SensorSelectionError(f"sensor index {idx[-1]} out of range")
    b = t - lag
    n_train = int(round(splits[0] * b))
    n_val = int(round(splits[1] * b))
    if n_train < 1:
        raise ValueError(f"splits {splits!r} leave no training window of {b}")
    # Window s is rows s..s+lag-1 of the one (T, S) sensor copy: no window is stored twice.
    inputs = np.lib.stride_tricks.sliding_window_view(
        fld.data[:, idx], lag, axis=0)[:b].transpose(0, 2, 1)
    targets = fld.data[lag - 1:lag - 1 + b]
    train_idx = np.arange(0, n_train)
    val_idx = np.arange(n_train, min(n_train + n_val, b))
    test_idx = np.arange(min(n_train + n_val, b), b)
    if duplicate_tail_fraction > 0:
        tail = max(1, int(round(duplicate_tail_fraction * train_idx.size)))
        train_idx = np.concatenate([train_idx, train_idx[-tail:]])
    return WindowedDataset(inputs=inputs, targets=targets, lag=lag, sensors=sensors,
                           train_idx=train_idx, val_idx=val_idx, test_idx=test_idx,
                           dt_physical=fld.dt_physical, grid_shape=fld.grid_shape)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def pattern_wavenumbers(pattern_id: int) -> tuple[int, int]:
    """Wavenumbers (p, q) of a pattern id in integer arithmetic; ids enumerate the
    pairs by p + q, then by p: (1,1), (1,2), (2,1), (1,3), (2,2), (3,1), ..."""
    diagonal = (math.isqrt(8 * pattern_id + 1) - 1) // 2   # p + q - 2
    p = pattern_id - diagonal * (diagonal + 1) // 2 + 1
    return p, diagonal + 2 - p


def _grid_pattern(grid: tuple[int, int], pattern_id: int) -> np.ndarray:
    """Orthogonal smooth patterns: products of discrete sine modes, unit-normalized.

    Distinct ids whose wavenumbers fit the grid (p <= h, q <= w) give exactly
    orthogonal vectors under the discrete inner product.
    """
    h, w = grid
    p, q = pattern_wavenumbers(pattern_id)
    rows = np.sin(np.pi * p * (np.arange(h) + 1) / (h + 1))
    cols = np.sin(np.pi * q * (np.arange(w) + 1) / (w + 1))
    pat = np.outer(rows, cols).reshape(-1)
    return pat / np.linalg.norm(pat)


def gen_modal_field(grid: tuple[int, int], modes: list[tuple[int, float, float, float]],
                    n_frames: int, dt: float, noise: float = 0.0,
                    seed: int = 0) -> tuple[Field, dict]:
    """Superpose oscillating spatial patterns: sum_i a_i * phi_i(x) * cos(w_i t + phase_i).

    ``modes`` entries are (pattern_id, amplitude, omega, phase). Returns the
    field plus ground-truth metadata (mode list, grid, dt).
    """
    if n_frames < 2 or dt <= 0:
        raise ValueError("need n_frames >= 2 and dt > 0")
    n = int(np.prod(grid))
    t = np.arange(n_frames) * dt
    data = np.zeros((n_frames, n))
    for pattern_id, amp, omega, phase in modes:
        pat = _grid_pattern(grid, int(pattern_id))
        data += amp * np.outer(np.cos(omega * t + phase), pat)
    if noise > 0:
        rng = np.random.default_rng(seed)
        data = data + noise * rng.standard_normal(data.shape)
    fld = Field(data=_quantize_f32(data), grid_shape=tuple(grid), dt_physical=dt)
    meta = {"kind": "modal", "grid": list(grid), "dt": dt, "noise": noise, "seed": seed,
            "modes": [{"pattern": int(p), "amplitude": a, "omega": w, "phase": ph}
                      for p, a, w, ph in modes]}
    return fld, meta


def _rk4(deriv, state: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Classical RK4 path of shape (steps + 1,) + state.shape.

    ``state`` may stack independent systems, for example (m, d); the stages
    are elementwise, so each system follows the same arithmetic as a run on
    its own whenever ``deriv`` acts row by row.
    """
    out = np.empty((steps + 1,) + state.shape)
    out[0] = state
    y = state.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * dt * k1)
            k3 = deriv(y + 0.5 * dt * k2)
            k4 = deriv(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            out[i + 1] = y
    return out


@dataclass(frozen=True)
class PendulumCoeffs:
    """Angle acceleration: zdd = dz2*zd^2 + dz3*zd^3 + sin_z*sin(z) + sin_dz*sin(zd)."""

    dz2: float = 0.17
    dz3: float = -0.06
    sin_z: float = -10.87
    sin_dz: float = 0.48


def simulate_pendulum(theta0: float, omega0: float, coeffs: PendulumCoeffs,
                      n_frames: int, dt: float) -> np.ndarray:
    """Reference RK4 trajectory of (angle, angular velocity), shape (n_frames, 2)."""
    if not 0 < dt <= 1.0 / 30.0 + 1e-12:
        raise ValueError(f"pendulum dt must be in (0, 1/30] for a stable reference "
                         f"integration, got {dt}")

    def deriv(y):
        z, v = y
        return np.array([v, coeffs.dz2 * v**2 + coeffs.dz3 * v**3
                         + coeffs.sin_z * np.sin(z) + coeffs.sin_dz * np.sin(v)])

    traj = _rk4(deriv, np.array([theta0, omega0]), dt, n_frames - 1)
    if not np.all(np.isfinite(traj)):
        raise FloatingPointError("pendulum trajectory diverged")
    return traj


def _rasterize_rod(angle: float, grid: tuple[int, int]) -> np.ndarray:
    """Anti-aliased rod of fixed length from the grid center, intensity in [0, 1]."""
    h, w = grid
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    length = 0.42 * min(h, w)
    ey = cy + length * np.cos(angle)
    ex = cx + length * np.sin(angle)
    yy, xx = np.mgrid[0:h, 0:w]
    dy, dx = ey - cy, ex - cx
    tt = ((yy - cy) * dy + (xx - cx) * dx) / (length * length)
    tt = np.clip(tt, 0.0, 1.0)
    dist = np.hypot(yy - (cy + tt * dy), xx - (cx + tt * dx))
    width = 1.2
    return np.clip(1.0 - dist / width, 0.0, 1.0)


def gen_pendulum(theta0: float, omega0: float, n_frames: int, dt: float,
                 grid: tuple[int, int] = (27, 24), coeffs: PendulumCoeffs | None = None,
                 seed: int = 0) -> tuple[Field, np.ndarray, dict]:
    """Rasterized pendulum video plus the (angle, velocity) ground truth."""
    coeffs = coeffs or PendulumCoeffs()
    traj = simulate_pendulum(theta0, omega0, coeffs, n_frames, dt)
    n = int(np.prod(grid))
    data = np.empty((n_frames, n))
    for i in range(n_frames):
        data[i] = _rasterize_rod(traj[i, 0], grid).reshape(-1)
    fld = Field(data=_quantize_f32(data), grid_shape=tuple(grid), dt_physical=dt)
    meta = {"kind": "pendulum", "grid": list(grid), "dt": dt, "seed": seed,
            "theta0": theta0, "omega0": omega0, "coeffs": asdict(coeffs)}
    return fld, traj, meta


def gen_sine_ode(x0: float, v0: float, n_steps: int, dt: float) -> np.ndarray:
    """Reference RK4 trajectory of xdd = -sin(x) as (n_steps + 1, 2) states (x, v)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")

    def deriv(y):
        return np.array([y[1], -np.sin(y[0])])

    return _rk4(deriv, np.array([x0, v0]), dt, n_steps)
