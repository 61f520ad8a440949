"""Field container, standardization, sensors, windowing, and generators."""

import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shredkit import data
from shredkit.data import Field


def _random_field(rng, t=10, n=20, grid=None):
    raw = rng.standard_normal((t, n)).astype(np.float32).astype(np.float64)
    return Field(data=raw, grid_shape=grid, dt_physical=0.25)


def test_field_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    fld = _random_field(rng)
    path = tmp_path / "f.fld"
    data.save_field(fld, path)
    back = data.load_field(path)
    assert np.array_equal(back.data, fld.data)
    assert back.grid_shape == fld.grid_shape
    assert back.dt_physical == fld.dt_physical
    assert back.scale == fld.scale


def test_field_round_trip_with_scale_and_grid(tmp_path):
    rng = np.random.default_rng(1)
    fld = _random_field(rng, t=6, n=120, grid=(4, 5, 6))
    fld.scale = (-1.5, 2.5)
    path = tmp_path / "f.fld"
    data.save_field(fld, path)
    back = data.load_field(path)
    assert back.grid_shape == (4, 5, 6)
    assert back.n_space == 120
    assert back.scale == (-1.5, 2.5)
    assert np.array_equal(back.data, fld.data)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(data.FieldFormatError, match="FLD1"):
        data.load_field(path)


def test_load_rejects_truncated_payload(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "t.fld"
    data.save_field(_random_field(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(data.FieldFormatError, match="truncated"):
        data.load_field(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.fld"
    data.save_field(_random_field(np.random.default_rng(2)), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 7)
    with pytest.raises(data.FieldFormatError, match="7 trailing bytes"):
        data.load_field(path)


@pytest.mark.parametrize("grid", [None, (4, 5)])
def test_load_rejects_every_strict_prefix(tmp_path, grid):
    rng = np.random.default_rng(4)
    path = tmp_path / "p.fld"
    data.save_field(_random_field(rng, t=3, n=20, grid=grid), path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(data.FieldFormatError):
            data.load_field(path)


def test_load_truncated_header_names_offset(tmp_path):
    path = tmp_path / "h.fld"
    data.save_field(_random_field(np.random.default_rng(5)), path)
    path.write_bytes(path.read_bytes()[:9])  # magic, version, ndims: t and n are cut
    with pytest.raises(data.FieldFormatError, match="truncated header at byte 9"):
        data.load_field(path)


def test_load_rejects_grid_product_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    fld = _random_field(rng, t=4, n=20, grid=(4, 5))
    path = tmp_path / "g.fld"
    data.save_field(fld, path)
    blob = bytearray(path.read_bytes())
    blob[9:17] = (7).to_bytes(8, "little")  # corrupt first grid dim
    path.write_bytes(bytes(blob))
    with pytest.raises(data.FieldFormatError, match="grid"):
        data.load_field(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_field_round_trip_property(t, n, seed):
    import tempfile
    rng = np.random.default_rng(seed)
    fld = _random_field(rng, t=t, n=n)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/p.fld"
        data.save_field(fld, path)
        assert np.array_equal(data.load_field(path).data, fld.data)


def test_standardize_affine_map():
    fld = Field(data=np.array([[2.0], [3.0], [4.0]]))
    out = data.standardize(fld)
    assert np.array_equal(out.data, [[0.0], [0.5], [1.0]])
    assert out.scale == (2.0, 4.0)


def test_standardize_uses_global_extrema():
    # Min and max live in different frames; both map via one global scale.
    fld = Field(data=np.array([[0.0, 5.0], [10.0, 5.0]]))
    out = data.standardize(fld)
    assert out.scale == (0.0, 10.0)
    assert np.array_equal(out.data, [[0.0, 0.5], [1.0, 0.5]])


def test_standardize_rejects_constant_field():
    with pytest.raises(data.DegenerateScaleError):
        data.standardize(Field(data=np.ones((3, 4))))


def test_select_sensors_exhaustive():
    rng = np.random.default_rng(5)
    fld = _random_field(rng, t=5, n=8)
    sensors = data.select_sensors(fld, count=8, seed=0)
    assert sensors.indices == tuple(range(8))


def test_select_sensors_deterministic():
    rng = np.random.default_rng(6)
    fld = _random_field(rng, t=5, n=50)
    a = data.select_sensors(fld, 10, seed=3)
    b = data.select_sensors(fld, 10, seed=3)
    assert a.indices == b.indices


def test_select_sensors_filters_constant_columns():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((6, 20))
    raw[:, 5:15] = 0.7  # ten non-informative columns
    fld = Field(data=raw)
    sensors = data.select_sensors(fld, count=10, seed=1, drop_constant=True)
    expected = tuple(i for i in range(20) if not (5 <= i < 15))
    assert sensors.indices == expected


def test_select_sensors_count_exceeds_informative():
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((6, 10))
    raw[:, :4] = 0.0
    with pytest.raises(data.SensorSelectionError):
        data.select_sensors(Field(data=raw), count=8, seed=0, drop_constant=True)


def test_sensor_csv_round_trip(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("9\n2\n\n5\n")
    back = data.load_sensor_csv(path)
    assert back == data.SensorSet(indices=(2, 5, 9), seed=-1)


@pytest.mark.parametrize("indices", [(-1, 3), (-5,)])
def test_sensor_set_rejects_negative_index(tmp_path, indices):
    with pytest.raises(data.SensorSelectionError, match="negative"):
        data.SensorSet(indices=indices, seed=-1)
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{i}\n" for i in indices))
    with pytest.raises(data.SensorSelectionError, match="negative"):
        data.load_sensor_csv(path)


def test_make_windows_count():
    rng = np.random.default_rng(9)
    fld = _random_field(rng, t=100, n=6)
    sensors = data.select_sensors(fld, 3, seed=0)
    ds = data.make_windows(fld, sensors, lag=52)
    assert ds.n_windows == 48


def test_make_windows_slicing_and_target_alignment():
    rng = np.random.default_rng(10)
    fld = _random_field(rng, t=30, n=6)
    sensors = data.SensorSet(indices=(1, 4), seed=-1)
    ds = data.make_windows(fld, sensors, lag=7)
    for b in (0, 5, ds.n_windows - 1):
        assert np.array_equal(ds.inputs[b], fld.data[b:b + 7][:, [1, 4]])
        assert np.array_equal(ds.targets[b], fld.data[b + 6])


def test_make_windows_adjacency():
    rng = np.random.default_rng(11)
    fld = _random_field(rng, t=25, n=4)
    sensors = data.SensorSet(indices=(0, 2), seed=-1)
    ds = data.make_windows(fld, sensors, lag=5)
    for b in range(ds.n_windows - 1):
        assert np.array_equal(ds.inputs[b + 1][:-1], ds.inputs[b][1:])


def test_make_windows_reconstructs_sensor_series():
    rng = np.random.default_rng(12)
    fld = _random_field(rng, t=40, n=5)
    sensors = data.SensorSet(indices=(0, 3), seed=-1)
    ds = data.make_windows(fld, sensors, lag=8)
    first_rows = ds.inputs[:, 0, :]
    tail = ds.inputs[-1, 1:, :]
    rebuilt = np.vstack([first_rows, tail])  # frames 0 .. T-2
    assert np.array_equal(rebuilt, fld.data[:-1, [0, 3]])


def test_make_windows_rejects_short_field():
    rng = np.random.default_rng(13)
    fld = _random_field(rng, t=5, n=4)
    with pytest.raises(data.FieldFormatError):
        data.make_windows(fld, data.SensorSet(indices=(0,), seed=-1), lag=5)


def test_make_windows_splits_contiguous():
    rng = np.random.default_rng(14)
    fld = _random_field(rng, t=110, n=4)
    ds = data.make_windows(fld, data.SensorSet(indices=(0,), seed=-1), lag=10,
                           splits=(0.7, 0.1, 0.2))
    assert ds.train_idx[0] == 0 and ds.train_idx[-1] == 69
    assert ds.val_idx[0] == 70 and ds.test_idx[-1] == 99
    assert ds.train_idx.size + ds.val_idx.size + ds.test_idx.size == 100


def test_duplicate_tail_fraction():
    rng = np.random.default_rng(15)
    fld = _random_field(rng, t=110, n=4)
    ds = data.make_windows(fld, data.SensorSet(indices=(0,), seed=-1), lag=10,
                           duplicate_tail_fraction=0.1)
    base = 70
    assert ds.train_idx.size == base + 7
    assert np.array_equal(ds.train_idx[-7:], np.arange(63, 70))


def test_make_windows_equals_stacked_copies_as_a_read_only_view():
    rng = np.random.default_rng(16)
    fld = _random_field(rng, t=60, n=9)
    sensors = data.SensorSet(indices=(0, 4, 8), seed=-1)
    ds = data.make_windows(fld, sensors, lag=11)
    sens = fld.data[:, [0, 4, 8]]
    stacked = np.stack([sens[s:s + 11] for s in range(49)], axis=0)
    assert ds.inputs.shape == stacked.shape and np.array_equal(ds.inputs, stacked)
    assert not ds.inputs.flags.writeable
    with pytest.raises(ValueError):
        ds.inputs[0, 0, 0] = 1.0
    # One (T, S) sensor copy backs every window; the field itself is not aliased.
    assert np.shares_memory(ds.inputs[0], ds.inputs[1])
    assert not np.shares_memory(ds.inputs, fld.data)


def test_make_windows_allocates_one_sensor_series():
    import tracemalloc
    fld = _random_field(np.random.default_rng(17), t=3000, n=40)
    sensors = data.SensorSet(indices=tuple(range(0, 40, 2)), seed=-1)   # S = 20
    series_bytes = 3000 * 20 * 8
    tracemalloc.start()
    try:
        ds = data.make_windows(fld, sensors, lag=26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.inputs.shape == (2974, 26, 20)
    assert peak <= 2 * series_bytes    # stacked windows would take 26 times the series


@pytest.mark.parametrize("splits", ["abc", 5, (0.5, 0.5), (0.7, 0.1, 0.2, 0.0),
                                    (float("nan"), 0.5, 0.5), (0.5, float("inf"), 0.5),
                                    (True, 0, 0), (1.2, -0.1, -0.1), ("0.7", 0.1, 0.2),
                                    (0.6, 0.1, 0.2)])
def test_make_windows_rejects_malformed_splits(splits):
    fld = _random_field(np.random.default_rng(18), t=50, n=4)
    with pytest.raises(ValueError, match=r"^splits must be three finite reals"):
        data.make_windows(fld, data.SensorSet(indices=(0,), seed=-1), lag=5, splits=splits)


def test_make_windows_rejects_an_empty_training_split():
    fld = _random_field(np.random.default_rng(19), t=50, n=4)
    sensors = data.SensorSet(indices=(0,), seed=-1)
    with pytest.raises(ValueError, match=r"^splits .* leave no training window of 45"):
        data.make_windows(fld, sensors, lag=5, splits=(0.01, 0.49, 0.5))
    ds = data.make_windows(fld, sensors, lag=5, splits=(0.02, 0.48, 0.5))   # round(0.9)
    assert ds.train_idx.tolist() == [0]


@pytest.mark.parametrize("fraction", [-0.1, 1.5, 5, float("nan"), float("inf"), "0.1",
                                      None, True])
def test_make_windows_rejects_malformed_duplicate_tail_fraction(fraction):
    fld = _random_field(np.random.default_rng(20), t=50, n=4)
    with pytest.raises(ValueError, match=r"^duplicate_tail_fraction must be a real in \[0, 1\]"):
        data.make_windows(fld, data.SensorSet(indices=(0,), seed=-1), lag=5,
                          duplicate_tail_fraction=fraction)


def test_make_windows_duplicate_tail_fraction_one_doubles_the_training_block():
    fld = _random_field(np.random.default_rng(21), t=110, n=4)
    ds = data.make_windows(fld, data.SensorSet(indices=(0,), seed=-1), lag=10,
                           duplicate_tail_fraction=1)
    assert np.array_equal(ds.train_idx, np.tile(np.arange(70), 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_field_rejects_non_finite_payload(tmp_path, bad):
    fld = _random_field(np.random.default_rng(22), t=12, n=5)
    fld.data[7, 2] = bad
    fld.data[0, 0] = bad
    data.save_field(fld, tmp_path / "f.fld")
    with pytest.raises(data.FieldFormatError, match="payload holds 2 non-finite values of 60"):
        data.load_field(tmp_path / "f.fld")


def test_load_field_accepts_float32_extremes(tmp_path):
    big = np.finfo(np.float32).max
    fld = Field(data=np.full((300, 200), big), dt_physical=0.5)
    data.save_field(fld, tmp_path / "f.fld")
    assert np.array_equal(data.load_field(tmp_path / "f.fld").data, fld.data)


# Around a block of 64 values: a partial last block, T = 1, exact multiples of the block,
# and single frames wider than a block.
@pytest.mark.parametrize("shape", [(7, 21), (1, 5), (1, 64), (2, 64), (1, 129), (3, 71)])
def test_streamed_field_round_trip_at_block_boundaries(tmp_path, monkeypatch, shape):
    monkeypatch.setattr(data, "IO_BLOCK", 64)
    fld = _random_field(np.random.default_rng(23), *shape, grid=(shape[1], 1))
    fld.scale = (-2.0, 3.0)
    path = tmp_path / "f.fld"
    data.save_field(fld, path)
    payload = fld.data.astype("<f4").tobytes()  # the whole-array conversion, as one write
    assert path.read_bytes().endswith(payload)
    assert path.stat().st_size == 4 + 4 + 1 + 8 * 2 + 16 + 8 + 1 + 16 + len(payload)
    back = data.load_field(path)
    assert back.data.tobytes() == fld.data.tobytes()
    assert (back.grid_shape, back.scale, back.dt_physical) == ((shape[1], 1), (-2.0, 3.0), 0.25)


def test_streamed_field_round_trip_frame_wider_than_the_real_block(tmp_path):
    fld = _random_field(np.random.default_rng(24), 2, data.IO_BLOCK + 3)
    data.save_field(fld, tmp_path / "f.fld")
    assert data.load_field(tmp_path / "f.fld").data.tobytes() == fld.data.tobytes()


def test_non_finite_value_in_the_last_block_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "IO_BLOCK", 64)
    fld = _random_field(np.random.default_rng(25), 5, 30)  # 150 values: blocks of 64, 64, 22
    fld.data[-1, -1] = np.nan
    fld.data[4, 10] = -np.inf
    data.save_field(fld, tmp_path / "f.fld")
    with pytest.raises(data.FieldFormatError,
                       match=r"^payload holds 2 non-finite values of 150$"):
        data.load_field(tmp_path / "f.fld")


def test_file_cut_in_the_middle_of_a_block(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "IO_BLOCK", 64)
    path = tmp_path / "f.fld"
    data.save_field(_random_field(np.random.default_rng(26), 5, 30), path)
    header = path.stat().st_size - 600
    path.write_bytes(path.read_bytes()[:header + 4 * 96 + 2])  # half way into the second block
    with pytest.raises(data.FieldFormatError, match=r"^truncated payload: 386 bytes < 600$"):
        data.load_field(path)


class _ShrinksOnceSized(io.BufferedReader):
    """A field file cut by 300 bytes right after the reader has taken its size."""

    def seek(self, pos, whence=os.SEEK_SET):
        end = super().seek(pos, whence)
        if whence == os.SEEK_END:
            os.truncate(self.name, end - 300)
        return end


def test_file_that_shrinks_after_its_size_is_read(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "IO_BLOCK", 64)
    path = tmp_path / "f.fld"
    data.save_field(_random_field(np.random.default_rng(27), 5, 30), path)
    monkeypatch.setattr(data, "open", lambda p, mode: _ShrinksOnceSized(io.FileIO(p, mode)),
                        raising=False)
    with pytest.raises(data.FieldFormatError,
                       match=r"^truncated payload: the file shrank while it was read$"):
        data.load_field(path)


def test_load_field_from_a_pipe(tmp_path):
    fld = _random_field(np.random.default_rng(32), 6, 9, grid=(3, 3))
    data.save_field(fld, tmp_path / "f.fld")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "f.fld").read_bytes(),))
    writer.start()
    try:
        back = data.load_field(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.data.tobytes() == fld.data.tobytes() and back.grid_shape == (3, 3)


def test_save_field_converts_one_block_at_a_time(tmp_path):
    fld = _random_field(np.random.default_rng(28), 2000, 1000)  # 16 MB, 8 blocks
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data.save_field(fld, tmp_path / "f.fld")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * fld.data.nbytes


def test_scale_in_place_is_the_standardize_expression_bit_for_bit():
    raw = np.random.default_rng(29).standard_normal((40, 30)) * 7.5 + 2.0
    lo, hi = float(raw.min()), float(raw.max())
    fld = Field(data=raw.copy())
    array = fld.data
    assert data.scale_in_place(fld) is fld and fld.data is array
    assert fld.data.tobytes() == ((raw - lo) / (hi - lo)).tobytes()
    assert fld.scale == (lo, hi)
    fld = Field(data=raw.copy())
    data.scale_in_place(fld, (-3, 12))
    assert fld.data.tobytes() == ((raw - -3) / (12 - -3)).tobytes() and fld.scale == (-3, 12)


def test_standardize_leaves_its_input_unchanged():
    raw = np.random.default_rng(30).standard_normal((20, 10))
    fld = Field(data=raw.copy(), scale=None)
    out = data.standardize(fld)
    assert np.array_equal(fld.data, raw) and fld.scale is None
    assert not np.shares_memory(out.data, fld.data)
    assert out.data.tobytes() == data.scale_in_place(Field(data=raw.copy())).data.tobytes()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_modal_field_exact_periodicity():
    fld, meta = data.gen_modal_field((6, 7), [(0, 1.0, 2 * np.pi, 0.0)],
                                     n_frames=104, dt=1 / 52)
    assert np.max(np.abs(fld.data[52:] - fld.data[:52])) < 1e-9
    assert meta["modes"][0]["omega"] == 2 * np.pi


def test_modal_field_rank_matches_mode_count():
    fld, _ = data.gen_modal_field((6, 7), [(0, 1.0, 2 * np.pi, 0.0),
                                           (1, 0.5, 4 * np.pi, 1.0)],
                                  n_frames=200, dt=0.01)
    s = np.linalg.svd(fld.data, compute_uv=False)
    assert (s[2:] ** 2).sum() / (s ** 2).sum() < 1e-10


def test_modal_field_standardizes_cleanly():
    fld, _ = data.gen_modal_field((5, 5), [(0, 1.0, np.pi, 0.2)], n_frames=64, dt=0.05)
    std = data.standardize(fld)
    assert std.data.min() == 0.0 and std.data.max() == 1.0


def test_modal_field_deterministic():
    a, _ = data.gen_modal_field((4, 4), [(0, 1.0, 1.0, 0.0)], 30, 0.1, noise=0.2, seed=9)
    b, _ = data.gen_modal_field((4, 4), [(0, 1.0, 1.0, 0.0)], 30, 0.1, noise=0.2, seed=9)
    assert np.array_equal(a.data, b.data)


def test_modal_patterns_orthogonal():
    p0 = data._grid_pattern((8, 9), 0)
    p1 = data._grid_pattern((8, 9), 1)
    p2 = data._grid_pattern((8, 9), 2)
    assert abs(p0 @ p1) < 1e-12 and abs(p0 @ p2) < 1e-12 and abs(p1 @ p2) < 1e-12


def test_grid_pattern_ids_walk_the_wavenumber_diagonals():
    h, w = 8, 9
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4)]
    for pattern_id, (p, q) in enumerate(pairs):
        pat = np.outer(np.sin(np.pi * p * (np.arange(h) + 1) / (h + 1)),
                       np.sin(np.pi * q * (np.arange(w) + 1) / (w + 1))).reshape(-1)
        assert np.array_equal(data._grid_pattern((h, w), pattern_id), pat / np.linalg.norm(pat))


def test_pendulum_free_rotation_linear_angle():
    coeffs = data.PendulumCoeffs(dz2=0.0, dz3=0.0, sin_z=0.0, sin_dz=0.0)
    traj = data.simulate_pendulum(0.5, 2.0, coeffs, 101, 0.01)
    t = np.arange(101) * 0.01
    assert np.max(np.abs(traj[:, 0] - (0.5 + 2.0 * t))) < 1e-12


def test_pendulum_small_angle_period():
    g = 9.81
    coeffs = data.PendulumCoeffs(dz2=0.0, dz3=0.0, sin_z=-g, sin_dz=0.0)
    traj = data.simulate_pendulum(0.01, 0.0, coeffs, 4001, 0.005)
    x = traj[:, 0]
    crossings = []
    for i in range(1, x.size):
        if x[i - 1] < 0 <= x[i]:
            crossings.append((i - 1 + (0 - x[i - 1]) / (x[i] - x[i - 1])) * 0.005)
    periods = np.diff(crossings)
    assert abs(periods.mean() - 2 * np.pi / np.sqrt(g)) / (2 * np.pi / np.sqrt(g)) < 0.01


def test_pendulum_energy_conserved_undamped():
    g = 9.81
    coeffs = data.PendulumCoeffs(dz2=0.0, dz3=0.0, sin_z=-g, sin_dz=0.0)
    traj = data.simulate_pendulum(1.2, 0.0, coeffs, 1001, 0.01)
    energy = 0.5 * traj[:, 1] ** 2 - g * np.cos(traj[:, 0])
    assert np.max(np.abs(energy - energy[0])) < 1e-6


def test_pendulum_rejects_coarse_dt():
    with pytest.raises(ValueError):
        data.simulate_pendulum(0.1, 0.0, data.PendulumCoeffs(), 10, dt=0.1)


def test_pendulum_divergence_detected():
    coeffs = data.PendulumCoeffs(dz2=50.0, dz3=0.0, sin_z=0.0, sin_dz=0.0)
    with pytest.raises(FloatingPointError):
        data.simulate_pendulum(0.0, 5.0, coeffs, 2000, 0.03)


def test_pendulum_field_frames_in_unit_range():
    fld, traj, meta = data.gen_pendulum(1.0, 0.0, n_frames=20, dt=0.02, grid=(15, 12))
    assert fld.data.min() >= 0.0 and fld.data.max() <= 1.0
    assert traj.shape == (20, 2)
    assert meta["coeffs"]["sin_z"] == -10.87


def test_sine_ode_equilibrium():
    traj = data.gen_sine_ode(0.0, 0.0, 100, 0.01)
    assert np.array_equal(traj, np.zeros((101, 2)))


def test_sine_ode_small_angle_cosine():
    x0 = 0.05
    traj = data.gen_sine_ode(x0, 0.0, 1000, 0.01)
    t = np.arange(1001) * 0.01
    assert np.max(np.abs(traj[:, 0] - x0 * np.cos(t))) / x0 < 0.01


def test_sine_ode_energy_conserved():
    traj = data.gen_sine_ode(2.0, 0.0, 1000, 0.01)
    energy = 0.5 * traj[:, 1] ** 2 - np.cos(traj[:, 0])
    assert np.max(np.abs(energy - energy[0])) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
def test_sine_ode_energy_property(x0, v0):
    traj = data.gen_sine_ode(x0, v0, 200, 0.01)
    energy = 0.5 * traj[:, 1] ** 2 - np.cos(traj[:, 0])
    assert np.max(np.abs(energy - energy[0])) < 1e-8


def _rk4_oracle(deriv, y, dt, steps):
    """Plain per-step RK4 loop on one state, the reference for ``data._rk4``."""
    out = [y]
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return np.array(out)


def test_rk4_stacked_state_equals_separate_runs():
    def deriv(y):
        return np.stack([y[..., 1], -np.sin(y[..., 0]) - 0.3 * y[..., 1] ** 3], axis=-1)

    states = np.random.default_rng(4).uniform(-2.0, 2.0, size=(7, 2))
    stacked = data._rk4(deriv, states, 0.02, 150)
    assert stacked.shape == (151, 7, 2)
    for i, y0 in enumerate(states):
        single = data._rk4(deriv, y0, 0.02, 150)
        assert single.shape == (151, 2)
        assert np.array_equal(stacked[:, i], single)


def test_sine_ode_matches_rk4_oracle():
    traj = data.gen_sine_ode(2.0, 0.3, 400, 0.02)
    ref = _rk4_oracle(lambda y: np.array([y[1], -np.sin(y[0])]), np.array([2.0, 0.3]), 0.02, 400)
    assert np.array_equal(traj, ref)


def test_pendulum_matches_rk4_oracle():
    c = data.PendulumCoeffs()

    def deriv(y):
        z, v = y
        return np.array([v, c.dz2 * v**2 + c.dz3 * v**3
                         + c.sin_z * np.sin(z) + c.sin_dz * np.sin(v)])

    traj = data.simulate_pendulum(1.0, 0.5, c, 300, 0.02)
    assert np.array_equal(traj, _rk4_oracle(deriv, np.array([1.0, 0.5]), 0.02, 299))
