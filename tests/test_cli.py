"""End-to-end command wiring, exit codes, and manifest reproducibility."""

import argparse
import importlib.metadata
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shredkit
from shredkit import cli, data, evaluation, shred, sindy
from shredkit.cli import main


def _strip_wall(path: Path):
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def modal_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "modal", "--out", str(out), "--grid", "6", "6",
                 "--frames", "260", "--dt", "0.02", "--noise", "0.01", "--seed", "1",
                 "--modes", "[[0, 1.0, 6.283185307179586, 0.3]]"])
    assert code == 0
    return out


def _run_config(modal_dir: Path, out_dir: Path, **train_over) -> Path:
    train = dict(lag=8, latent_dim=2, epochs=3, batch_size=64, learning_rate=1e-3,
                 dt=0.02, ministeps=3, threshold_interval=3, threshold_low=0.05,
                 threshold_high=0.5, ensemble_size=2, poly_degree=2,
                 decoder_widths=[12], dropout=0.1, seed=3)
    train.update(train_over)
    cfg = {"field": str(modal_dir / "field.fld"),
           "sensors": {"count": 8, "seed": 2},
           "out_dir": str(out_dir),
           "train": train}
    path = out_dir / "config.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_field_and_sidecar(modal_dir):
    fld = data.load_field(modal_dir / "field.fld")
    assert fld.n_frames == 260 and fld.grid_shape == (6, 6)
    meta = json.loads((modal_dir / "truth.json").read_text())
    assert meta["modes"][0]["omega"] == pytest.approx(2 * np.pi)
    assert (modal_dir / "manifest.json").exists()


def test_generate_pendulum_sidecar_coefficients(tmp_path):
    code = main(["generate", "pendulum", "--out", str(tmp_path), "--frames", "40",
                 "--dt", "0.02", "--grid", "15", "12"])
    assert code == 0
    meta = json.loads((tmp_path / "truth.json").read_text())
    assert meta["coeffs"] == {"dz2": 0.17, "dz3": -0.06, "sin_z": -10.87, "sin_dz": 0.48}
    assert list(meta["coeffs"]) == ["dz2", "dz3", "sin_z", "sin_dz"]   # the field order


def test_generate_sine_trajectory_field(tmp_path):
    code = main(["generate", "sine", "--out", str(tmp_path), "--frames", "50",
                 "--dt", "0.01", "--theta0", "0.5", "--omega0", "0.0"])
    assert code == 0
    fld = data.load_field(tmp_path / "field.fld")
    assert fld.data.shape == (50, 2)


def test_generate_invalid_kind_usage_error(tmp_path, capsys):
    assert main(["generate", "lorenz", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shredkit generate: argument kind: invalid choice: 'lorenz'")
    assert err.count("\n") == 1 and not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, words", [
    (["modal", "--grid", "0", "0"], "--grid must be two integers >= 1"),
    (["modal", "--dt", "nan"], "--dt must be finite and > 0, got nan"),
    (["modal", "--noise", "-1"], "--noise must be finite and >= 0"),
    (["modal", "--noise", "nan"], "--noise must be finite and >= 0"),
    (["modal", "--modes", "[]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "{}"], "--modes must be a non-empty JSON list"),
    (["pendulum", "--frames", "0"], "--frames must be >= 1"),
    (["sine", "--frames", "-3"], "--frames must be >= 1"),
    (["pendulum", "--dt", "nan"], "--dt must be finite and > 0, got nan"),
    (["sine", "--theta0", "inf"], "--theta0 must be finite, got inf"),
    (["sine", "--omega0=-inf"], "--omega0 must be finite, got -inf"),
    (["pendulum", "--omega0", "nan"], "--omega0 must be finite, got nan"),
    (["modal", "--modes", "[[0, 1.0]]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "[0]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "[[-1, 1.0, 6.0, 0.0]]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "[[0.5, 1.0, 6.0, 0.0]]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "[[true, 1.0, 6.0, 0.0]]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", '[[0, "a", 6.0, 0.0]]'], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "[[0, 1.0, Infinity, 0.0]]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "[[0, 1.0, 6.0, NaN]]"], "--modes must be a non-empty JSON list"),
    (["modal", "--grid", "4", "4", "--modes", "[[10, 1.0, 6.0, 0.0]]"],
     "--modes pattern 10 has wavenumbers (p, q) = (1, 5), beyond the 4x4 grid"),
    (["modal", "--grid", "4", "4", "--modes", "[[25, 1.0, 6.0, 0.0]]"],
     "--modes pattern 25 has wavenumbers (p, q) = (5, 3), beyond the 4x4 grid"),
    (["modal", "--modes", f"[[{10 ** 400}, 1.0, 6.0, 0.0]]"], "beyond the 16x16 grid"),
    (["modal", "--grid", "-1", "5"], "--grid must be two integers >= 1, got [-1, 5]"),
    (["pendulum", "--grid", "5", "0"], "--grid must be two integers >= 1, got [5, 0]"),
    (["modal", "--dt", "-1"], "--dt must be finite and > 0, got -1.0"),
    (["sine", "--dt", "0"], "--dt must be finite and > 0, got 0.0"),
    (["pendulum", "--dt", "0.05"], "pendulum dt must be in (0, 1/30]"),
    (["modal", "--frames", "1"], "--frames must be >= 2, got 1"),
])
def test_generate_malformed_input_exit_2(tmp_path, capsys, argv, words):
    out = tmp_path / "gen"
    assert main(["generate", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and words in err[0]
    assert not (out / "field.fld").exists()


@pytest.mark.parametrize("exc, words", [
    (MemoryError("Unable to allocate 191. GiB for an array with shape (100000000, 256) "
                 "and data type float64"),
     "Unable to allocate 191. GiB for an array with shape (100000000, 256) and data type "
     "float64"),
    (MemoryError(), "MemoryError"),
])
def test_generate_out_of_memory_exit_2(tmp_path, monkeypatch, capsys, exc, words):
    def too_large(*args, **kwargs):
        raise exc
    monkeypatch.setattr(data, "gen_modal_field", too_large)
    code = main(["generate", "modal", "--frames", "100000000", "--out", str(tmp_path / "g")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {words}"]
    assert not (tmp_path / "g").exists()


def test_generate_modal_accepts_the_last_pattern_of_the_grid(tmp_path):
    # Pattern 24 is (p, q) = (4, 4), the highest wavenumbers a 4x4 grid holds.
    assert main(["generate", "modal", "--grid", "4", "4", "--frames", "10",
                 "--modes", "[[24, 1.0, 6.0, 0.0]]", "--out", str(tmp_path)]) == 0


def test_generate_diverging_pendulum_exit_3(tmp_path, capsys):
    out = tmp_path / "gen"
    # Finite, so it passes the flag check; the cubic velocity term overflows in RK4.
    assert main(["generate", "pendulum", "--omega0", "1e100", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical abort: pendulum trajectory diverged"]
    assert not (out / "field.fld").exists()


def _fld1_header(t, n, dt):
    """An FLD1 v1 header with no grid and no scale, as ``data.save_field`` writes it."""
    return data.MAGIC + struct.pack("<IBQQdBdd", data.VERSION, 0, t, n, dt, 0, 0.0, 0.0)


@pytest.mark.parametrize("t, n, dt, words", [
    (50, 0, 0.02, "(T, N) with T, N >= 1"),
    (0, 36, 0.02, "(T, N) with T, N >= 1"),
    (260, 36, float("nan"), "dt_physical must be finite and > 0, got nan"),
    (260, 36, 0.0, "dt_physical must be finite and > 0, got 0.0"),
])
def test_forecast_unusable_field_header_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                               t, n, dt, words):
    payload = data.load_field(modal_dir / "field.fld").data[:t, :n].astype("<f4").tobytes()
    fld = tmp_path / "bad.fld"
    fld.write_bytes(_fld1_header(t, n, dt) + payload)
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(fld), "--horizon", "5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and words in err[0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_forecast_non_finite_field_payload_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                                  bad):
    values = data.load_field(modal_dir / "field.fld").data
    values[100, 7] = bad
    fld = tmp_path / "bad.fld"
    fld.write_bytes(_fld1_header(*values.shape, 0.02) + values.astype("<f4").tobytes())
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(fld), "--horizon", "5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and err == [f"error: payload holds 1 non-finite values of "
                                 f"{values.size}"]


def test_forecast_field_naming_a_directory_exit_2(trained_dir, tmp_path, capsys):
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(tmp_path), "--horizon", "5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and err == [f"error: [Errno 21] Is a directory: {str(tmp_path)!r}"]


def test_train_writes_artifacts(modal_dir, tmp_path):
    cfg_path = _run_config(modal_dir, tmp_path / "run")
    code = main(["train", str(cfg_path)])
    assert code == 0
    out = tmp_path / "run"
    for name in ("model.shrd", "log.jsonl", "manifest.json", "equations.txt", "model.json"):
        assert (out / name).exists(), name
    log = _strip_wall(out / "log.jsonl")
    assert [r["epoch"] for r in log] == [1, 2, 3]
    assert "wall_time" in json.loads((out / "log.jsonl").read_text().splitlines()[0])


def test_model_json_round_trip(trained_dir):
    selected = shred.load_checkpoint(trained_dir / "model.shrd")[0].selected_model()
    again = json.loads((trained_dir / "model.json").read_text())
    assert again["spec"] == json.loads(json.dumps(asdict(selected.spec)))
    assert np.array_equal(np.array(again["Xi"]), selected.Xi)
    assert np.array_equal(np.array(again["mask"], dtype=bool), selected.mask)
    assert (again["dt"], again["k"]) == (selected.dt, selected.k)


def test_train_missing_field_exit_2(tmp_path):
    cfg = {"field": str(tmp_path / "nope.fld"), "out_dir": str(tmp_path),
           "train": {"lag": 8}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", str(p)]) == 2


def test_train_unknown_config_key_exit_2(modal_dir, tmp_path):
    cfg = {"field": str(modal_dir / "field.fld"), "out_dir": str(tmp_path),
           "train": {"lag": 8}, "mystery": 1}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", str(p)]) == 2


def test_train_unknown_train_key_exit_2(modal_dir, tmp_path):
    cfg = {"field": str(modal_dir / "field.fld"), "out_dir": str(tmp_path),
           "train": {"lag": 8, "warp_factor": 9}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", str(p)]) == 2


@pytest.mark.parametrize("over", [{"lag": "26"}, {"dropout": "0.1"}, {"epochs": 3.0},
                                  {"decoder_widths": [12.5]}])
def test_train_wrongly_typed_config_exit_2(modal_dir, tmp_path, capsys, over):
    cfg_path = _run_config(modal_dir, tmp_path / "typed", **over)
    assert main(["train", str(cfg_path)]) == 2
    assert f"error: {next(iter(over))} must be" in capsys.readouterr().err


def test_train_negative_grad_clip_exit_2(modal_dir, tmp_path, capsys):
    cfg_path = _run_config(modal_dir, tmp_path / "clip", grad_clip=-1)
    assert main(["train", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grad_clip must be null or > 0") and err.count("\n") == 1
    assert not (tmp_path / "clip" / "model.shrd").exists()


@pytest.mark.parametrize("over, words", [
    ({"decoder_widths": [0]}, "decoder_widths must each be >= 1, got [0]"),
    ({"decoder_widths": [12, -1]}, "decoder_widths must each be >= 1, got [12, -1]"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_train_out_of_range_config_names_the_key_exit_2(modal_dir, tmp_path, capsys, over,
                                                        words):
    cfg_path = _run_config(modal_dir, tmp_path / "range", **over)
    assert main(["train", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {words}"]
    assert not (tmp_path / "range" / "model.shrd").exists()


def test_train_linear_decoder(modal_dir, tmp_path):
    cfg_path = _run_config(modal_dir, tmp_path / "linear", epochs=1, decoder_widths=[])
    assert main(["train", str(cfg_path)]) == 0


def test_train_negative_sensor_index_exit_2(modal_dir, tmp_path, capsys):
    sensor_file = tmp_path / "sensors.csv"
    sensor_file.write_text("-1\n5\n9\n")
    out = tmp_path / "run"
    cfg = {"field": str(modal_dir / "field.fld"), "sensors": {"file": str(sensor_file)},
           "out_dir": str(out),
           "train": dict(lag=8, latent_dim=2, epochs=1, batch_size=64, dt=0.02,
                         ensemble_size=2, poly_degree=1, decoder_widths=[8], seed=1)}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", str(p)]) == 2
    assert "negative" in capsys.readouterr().err
    assert not (out / "model.shrd").exists()


@pytest.mark.parametrize("sensors", [{"count": 0}, {"count": -2}, {"count": 2.7},
                                     {"count": "abc"}, {"count": True}, {"seed": 2}])
def test_train_unusable_sensor_count_exit_2(modal_dir, tmp_path, capsys, sensors):
    cfg_path = _run_config(modal_dir, tmp_path / "count", epochs=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["sensors"] = sensors
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: sensors.count must be an integer >= 1, got "
                   f"{sensors.get('count')!r}"]
    assert not (tmp_path / "count" / "model.shrd").exists()


@pytest.mark.parametrize("text, words", [
    ("", " lists no sensor indices"),
    ("\n  \n", " lists no sensor indices"),
    ("3\n1.5\n9\n", ", line 2: '1.5' is not an integer sensor index"),
    ("3\n\nseven\n", ", line 3: 'seven' is not an integer sensor index"),
], ids=["empty", "blank-lines", "float", "word"])
def test_train_unusable_sensor_file_exit_2(modal_dir, tmp_path, capsys, text, words):
    sensor_file = tmp_path / "sensors.csv"
    sensor_file.write_text(text)
    cfg_path = _run_config(modal_dir, tmp_path / "file", epochs=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["sensors"] = {"file": str(sensor_file)}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {sensor_file}{words}"]
    assert not (tmp_path / "file" / "model.shrd").exists()


@pytest.mark.parametrize("key, value, words", [
    ("splits", "abc", "splits must be three finite reals >= 0 that sum to 1"),
    ("splits", 5, "splits must be three finite reals >= 0 that sum to 1"),
    ("splits", [0.5, 0.5], "splits must be three finite reals >= 0 that sum to 1"),
    ("splits", [float("nan"), 0.5, 0.5], "splits must be three finite reals >= 0"),
    ("splits", [True, 0, 0], "splits must be three finite reals >= 0 that sum to 1"),
    ("splits", [0.0, 0.5, 0.5], "splits [0.0, 0.5, 0.5] leave no training window"),
    ("duplicate_tail_fraction", 5, "duplicate_tail_fraction must be a real in [0, 1]"),
    ("duplicate_tail_fraction", float("nan"), "duplicate_tail_fraction must be a real in"),
    ("duplicate_tail_fraction", "abc", "duplicate_tail_fraction must be a real in [0, 1]"),
    ("duplicate_tail_fraction", None, "duplicate_tail_fraction must be a real in [0, 1]"),
    ("field", 3, "field must be a path string, got 3"),
    ("out_dir", 3, "out_dir must be a path string, got 3"),
    ("standardize", "no", "standardize must be true or false, got 'no'"),
    ("sensors", 5, "sensors must be a JSON object, got 5"),
    ("sensors", None, "sensors must be a JSON object, got None"),
    ("sensors", {"count": 8, "seed": "abc"}, "sensors.seed must be an integer >= 0"),
    ("sensors", {"count": 8, "drop_constant": "no"}, "sensors.drop_constant must be true or"),
    ("sensors", {"file": 0}, "sensors.file must be a path string, got 0"),
])
def test_train_malformed_run_config_exit_2(modal_dir, tmp_path, capsys, key, value, words):
    cfg_path = _run_config(modal_dir, tmp_path / "cfg", epochs=1)
    cfg = json.loads(cfg_path.read_text())
    cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and words in err[0]
    assert not (tmp_path / "cfg" / "model.shrd").exists()


def test_train_run_config_not_an_object_exit_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    assert main(["train", str(p)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: run config must be a JSON object, got list"]


def test_train_out_dir_naming_a_file_exit_2(modal_dir, tmp_path, capsys):
    cfg_path = _run_config(modal_dir, tmp_path / "cfg", epochs=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["out_dir"] = str(cfg_path)
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: out_dir {str(cfg_path)!r} names a file, not a directory"]


def test_train_numerical_abort_exit_3(modal_dir, tmp_path):
    cfg_path = _run_config(modal_dir, tmp_path / "boom", learning_rate=1e100,
                           epochs=2, dropout=0.0)
    with np.errstate(all="ignore"):
        code = main(["train", str(cfg_path)])
    assert code == 3


def test_train_numerical_abort_creates_no_out_dir(modal_dir, tmp_path, capsys):
    cfg_path = _run_config(modal_dir, tmp_path / "cfg", learning_rate=1e100, epochs=2,
                           dropout=0.0)
    cfg = json.loads(cfg_path.read_text())
    cfg["out_dir"] = str(tmp_path / "new")
    cfg_path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert main(["train", str(cfg_path)]) == 3
    assert not (tmp_path / "new").exists()


def test_train_non_finite_gradient_exit_3(modal_dir, tmp_path, capsys, nan_relu_gradient):
    out = tmp_path / "nan-grad"
    assert main(["train", str(_run_config(modal_dir, out))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: non-finite gradient at epoch 1, batch 0: ")
    assert err.count("\n") == 1
    assert not (out / "model.shrd").exists()


def test_train_dt_mismatch_exit_2(modal_dir, tmp_path, capsys):
    out = tmp_path / "dt"
    assert main(["train", str(_run_config(modal_dir, out, dt=0.025))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train.dt 0.025 ") and "dt_physical 0.02" in err
    assert err.count("\n") == 1
    assert not (out / "model.shrd").exists()


def test_train_dt_within_relative_tolerance_trains(modal_dir, tmp_path):
    out = tmp_path / "dt-close"
    assert main(["train", str(_run_config(modal_dir, out, dt=0.02 * (1 + 1e-12),
                                          epochs=0))]) == 0
    assert (out / "model.shrd").exists()


def test_train_with_sensor_file(modal_dir, tmp_path):
    sensor_file = tmp_path / "sensors.csv"
    sensor_file.write_text("1\n5\n9\n20\n")
    out = tmp_path / "run"
    out.mkdir()
    cfg = {"field": str(modal_dir / "field.fld"),
           "sensors": {"file": str(sensor_file)},
           "out_dir": str(out),
           "train": dict(lag=8, latent_dim=2, epochs=1, batch_size=64, dt=0.02,
                         ministeps=2, ensemble_size=2, poly_degree=1,
                         decoder_widths=[8], dropout=0.0, seed=1,
                         threshold_low=0.1, threshold_high=0.5)}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", str(p)]) == 0
    from shredkit import shred
    model, _, _ = shred.load_checkpoint(out / "model.shrd")
    assert model.extra["sensors"] == [1, 5, 9, 20]


def test_train_mode_flag_switches_to_koopman(modal_dir, tmp_path):
    cfg_path = _run_config(modal_dir, tmp_path / "koop", epochs=2)
    code = main(["train", str(cfg_path), "--mode", "koopman"])
    assert code == 0
    from shredkit import shred
    model, _, _ = shred.load_checkpoint(tmp_path / "koop" / "model.shrd")
    assert model.mode == "koopman"
    assert model.K is not None


def test_train_reproducible_outputs(modal_dir, tmp_path):
    p1 = _run_config(modal_dir, tmp_path / "a")
    p2 = _run_config(modal_dir, tmp_path / "b")
    assert main(["train", str(p1)]) == 0
    assert main(["train", str(p2)]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "model.shrd").read_bytes() == (b / "model.shrd").read_bytes()
    assert _strip_wall(a / "log.jsonl") == _strip_wall(b / "log.jsonl")
    assert (a / "equations.txt").read_text() == (b / "equations.txt").read_text()


@pytest.fixture(scope="module")
def trained_dir(modal_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg_path = _run_config(modal_dir, out)
    assert main(["train", str(cfg_path)]) == 0
    return out


def test_forecast_three_window_table(modal_dir, trained_dir, tmp_path):
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "200",
                 "--windows", "0:80,80:160,160:201", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "forecast.json").read_text()
    assert text.count("\n") == 1 and ", " not in text  # one compact line
    payload = json.loads(text)
    assert [r["window"] for r in payload["mse_rows"]] == [[0, 80], [80, 160], [160, 201]]
    assert (tmp_path / "predictions.fld").exists()


def test_forecast_truncates_when_truth_short(modal_dir, trained_dir, tmp_path, capsys):
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "500",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "forecast.json").read_text())
    assert payload["truncated_truth"] is True
    assert payload["horizon"] == 500
    err = capsys.readouterr().err
    assert "truncated" in err


def test_forecast_held_out_traces(modal_dir, trained_dir, tmp_path):
    model_sensors = json.loads((trained_dir / "manifest.json").read_text())
    held = tmp_path / "held.txt"
    from shredkit import shred
    model, _, _ = shred.load_checkpoint(trained_dir / "model.shrd")
    used = set(model.extra["sensors"])
    free = [i for i in range(36) if i not in used][:3]
    held.write_text("\n".join(str(i) for i in free))
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "50",
                 "--held-out-sensors", str(held), "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "traces.csv").read_text().splitlines()[0]
    assert header.count("pred_") == 3


def test_forecast_held_out_overlap_exit_2(modal_dir, trained_dir, tmp_path):
    from shredkit import shred
    model, _, _ = shred.load_checkpoint(trained_dir / "model.shrd")
    held = tmp_path / "held.txt"
    held.write_text(str(model.extra["sensors"][0]))
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "10",
                 "--held-out-sensors", str(held), "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("index", [36, 999, -3])
def test_forecast_held_out_outside_field_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                                 index):
    held = tmp_path / "held.txt"
    held.write_text(f"35\n{index}\n")
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "10",
                 "--held-out-sensors", str(held), "--out", str(tmp_path)])
    assert code == 2
    assert f"held-out sensor {index} " in capsys.readouterr().err
    assert not (tmp_path / "traces.csv").exists()


def test_forecast_held_out_non_integer_names_flag_file_and_line(modal_dir, trained_dir,
                                                                tmp_path, capsys):
    held = tmp_path / "held.txt"
    held.write_text("35\n34 x\n")
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "10",
                 "--held-out-sensors", str(held), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --held-out-sensors {held}, line 2: '34 x' holds a non-integer sensor index"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["--horizon", "-1"], "--horizon"),
    (["--horizon", "20", "--start", "-260"], "--start"),
    (["--horizon", "20", "--start", "-30"], "--start"),
    (["--horizon", "20", "--start", "253"], "--start"),
    (["--horizon", "20", "--windows", "50:60"], "--windows"),
    (["--horizon", "20", "--windows", "0:10,abc"], "--windows"),
    (["--horizon", "20", "--windows", "1:2:3"], "--windows"),
    (["--horizon", "20", "--windows", "10:5"], "--windows"),
    (["--horizon", "20", "--windows", "0:x"], "--windows"),
])
def test_forecast_malformed_input_exit_2(modal_dir, trained_dir, tmp_path, capsys, argv, flag):
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--out", str(tmp_path), *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not (tmp_path / "forecast.json").exists()


@pytest.fixture(scope="module")
def overflow_ckpt(trained_dir, tmp_path_factory):
    """The trained checkpoint with a decoder bias of 1e200: finite in float64, beyond float32."""
    model, optimizer, epoch = shred.load_checkpoint(trained_dir / "model.shrd")
    model.decoder.out_b.data[:] = 1e200
    path = tmp_path_factory.mktemp("overflow") / "model.shrd"
    shred.save_checkpoint(model, optimizer, epoch, path)
    return path


def test_forecast_beyond_float32_exit_3_writes_nothing(modal_dir, overflow_ckpt, tmp_path,
                                                       capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["forecast", "--checkpoint", str(overflow_ckpt),
                     "--field", str(modal_dir / "field.fld"), "--horizon", "5",
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical abort: predicted frame 0 is outside float32 range, "
        "so predictions.fld cannot hold it"]
    assert not (tmp_path / "out").exists()


def test_landscape_overflowing_loss_is_strict_json(modal_dir, overflow_ckpt, tmp_path, capsys):
    with warnings.catch_warnings():
        # The direction norms and every loss overflow, silently: each is an +inf cell.
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["landscape", "--checkpoint", str(overflow_ckpt),
                     "--field", str(modal_dir / "field.fld"), "--grid", "3", "--segments", "3",
                     "--out", str(tmp_path)]) == 0
    verdict = _strict_json((tmp_path / "convexity.json").read_text())
    assert verdict["base_loss"] is None and verdict["convex"] is False
    assert _strict_json(capsys.readouterr().out) == verdict
    cells = (tmp_path / "landscape.csv").read_text().splitlines()[1:]
    assert len(cells) == 9 and all(line.endswith(",inf") for line in cells)


def test_forecast_zero_horizon_scores_the_initial_frame(modal_dir, trained_dir, tmp_path):
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "forecast.json").read_text())
    assert [r["window"] for r in payload["mse_rows"]] == [[0, 1]]


def test_forecast_missing_checkpoint_exit_2(modal_dir, tmp_path):
    code = main(["forecast", "--checkpoint", str(tmp_path / "missing.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "5",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("keep", [6, 100, -40])
def test_forecast_truncated_checkpoint_exit_2(modal_dir, trained_dir, tmp_path, keep):
    ckpt = tmp_path / "cut.shrd"
    ckpt.write_bytes((trained_dir / "model.shrd").read_bytes()[:keep])
    code = main(["forecast", "--checkpoint", str(ckpt), "--field", str(modal_dir / "field.fld"),
                 "--horizon", "5", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("key", ["config", "thresholds", "selected_index", "adam_step", "epoch"])
def test_forecast_checkpoint_header_without_key_exit_2(modal_dir, trained_dir, tmp_path,
                                                       capsys, key):
    blob = (trained_dir / "model.shrd").read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    del header[key]
    new = json.dumps(header).encode()
    ckpt = tmp_path / "nokey.shrd"
    ckpt.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + hlen:])
    code = main(["forecast", "--checkpoint", str(ckpt), "--field", str(modal_dir / "field.fld"),
                 "--horizon", "5", "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err


def _first_section_header(blob: bytes) -> range:
    """Byte offsets of the first section's name length, name, ndims and dims."""
    start = 12 + int.from_bytes(blob[8:12], "little")
    name_len = int.from_bytes(blob[start:start + 2], "little")
    ndims = blob[start + 2 + name_len]
    return range(start, start + 2 + name_len + 1 + 8 * ndims)


@pytest.mark.parametrize("change", ["0x00", "0xFF", "low bit"])
def test_checkpoint_section_header_byte_change_exit_2(modal_dir, trained_dir, tmp_path,
                                                      change):
    blob = (trained_dir / "model.shrd").read_bytes()
    ckpt = tmp_path / "flipped.shrd"
    for off in _first_section_header(blob):
        new = {"0x00": 0x00, "0xFF": 0xFF, "low bit": blob[off] ^ 1}[change]
        if new == blob[off]:
            continue
        ckpt.write_bytes(blob[:off] + bytes([new]) + blob[off + 1:])
        with pytest.raises(shred.CheckpointError):
            shred.load_checkpoint(ckpt)
        assert main(["forecast", "--checkpoint", str(ckpt), "--field",
                     str(modal_dir / "field.fld"), "--horizon", "5",
                     "--out", str(tmp_path)]) == 2, off


def _with_section(blob: bytes, name: str, array: np.ndarray) -> bytes:
    """The checkpoint ``blob`` with section ``name`` and its AdamW moments set to ``array``."""
    hlen = int.from_bytes(blob[8:12], "little")
    out = io.BytesIO()
    out.write(blob[:12 + hlen])
    for key, arr in shred._read_sections(blob, 12 + hlen).items():
        replace = key in (name, f"adam.m.{name}", f"adam.v.{name}")
        shred._write_section(out, key, array if replace else arr)
    return out.getvalue()


@pytest.mark.parametrize("name, shape, words", [
    ("dec_out.b", (1,), "section 'dec_out.b' has shape (1,); the header's config needs (36,)"),
    ("mask1", (3, 2), "section 'mask1' has shape (3, 2); the header's config needs (6, 2)"),
    ("adam.v.xi0", (6,), "section 'adam.v.xi0' has shape (6,); the header's config needs (6, 2)"),
    ("gru1.U_h", (2, 3), "section 'gru1.U_h' has shape (2, 3); the header's config needs (2, 2)"),
    ("gru0.W_u", (8,), "sections 'gru0.W_u' (8,) and 'dec_out.W' (12, 36) must be matrices"),
    ("dec_out.W", (12,), "sections 'gru0.W_u' (8, 2) and 'dec_out.W' (12,) must be matrices"),
    ("gru0.W_u", (0, 2), "must be matrices, with at least one sensor"),
])
def test_checkpoint_section_of_wrong_shape_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                                  name, shape, words):
    ckpt = tmp_path / "shape.shrd"
    ckpt.write_bytes(_with_section((trained_dir / "model.shrd").read_bytes(), name,
                                   np.zeros(shape)))
    assert main(["forecast", "--checkpoint", str(ckpt), "--field", str(modal_dir / "field.fld"),
                 "--horizon", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and words in err[0]


@pytest.mark.parametrize("value, code", [(None, 0), (4, 2)])
def test_gru_hidden_loads_only_as_null(modal_dir, trained_dir, tmp_path, capsys, value, code):
    # Configs and checkpoints written while the field existed carry "gru_hidden": null.
    blob = (trained_dir / "model.shrd").read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    header["config"]["gru_hidden"] = value
    new = json.dumps(header).encode()
    ckpt = tmp_path / "gru_hidden.shrd"
    ckpt.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + hlen:])
    assert main(["forecast", "--checkpoint", str(ckpt), "--field", str(modal_dir / "field.fld"),
                 "--horizon", "5", "--out", str(tmp_path)]) == code
    cfg_path = _run_config(modal_dir, tmp_path / "run", epochs=1, gru_hidden=value)
    assert main(["train", str(cfg_path)]) == code
    if code:
        assert capsys.readouterr().err.count("gru_hidden") == 2


def test_forecast_truncated_field_exit_2(modal_dir, trained_dir, tmp_path):
    fld = tmp_path / "cut.fld"
    fld.write_bytes((modal_dir / "field.fld").read_bytes()[:20])
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(fld), "--horizon", "5", "--out", str(tmp_path)])
    assert code == 2


def test_forecast_field_with_trailing_bytes_exit_2(modal_dir, trained_dir, tmp_path, capsys):
    fld = tmp_path / "long.fld"
    fld.write_bytes((modal_dir / "field.fld").read_bytes() + b"\x00" * 7)
    capsys.readouterr()
    code = main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(fld), "--horizon", "5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and "7 trailing bytes" in err[0]


def test_forecast_unselected_checkpoint_exit_2(modal_dir, tmp_path, capsys):
    out = tmp_path / "zero"
    assert main(["train", str(_run_config(modal_dir, out, epochs=0))]) == 0
    capsys.readouterr()
    code = main(["forecast", "--checkpoint", str(out / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "5",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: no ensemble member selected yet"]


def _first_non_finite_frame(step, z, horizon):
    """First frame t >= 1 at which ``step`` applied t times to ``z`` is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, horizon + 1):
            z = step(z)
            if not np.all(np.isfinite(z)):
                return t
    return None


@pytest.mark.parametrize("mode", ["sindy", "koopman"])
def test_forecast_divergence_exit_3_names_frame(modal_dir, trained_dir, tmp_path, capsys, mode):
    if mode == "sindy":
        ckpt = trained_dir / "model.shrd"
    else:
        ckpt = tmp_path / "koop" / "model.shrd"
        assert main(["train", str(_run_config(modal_dir, ckpt.parent, epochs=2)),
                     "--mode", "koopman"]) == 0
    model, optimizer, epoch = shred.load_checkpoint(ckpt)
    if mode == "sindy":
        model.xi[model.selected_index].data *= 1e3
        member = model.selected_model()
        step = lambda z: sindy.sindy_cell(z, member)
    else:
        model.K.data *= 1e150
        step = lambda z: z @ model.K.data
    shred.save_checkpoint(model, optimizer, epoch, tmp_path / "boom.shrd")
    fld, sensors = cli._checkpoint_field(model, modal_dir / "field.fld")
    z0 = model.encode_np(fld.data[:model.config.lag][:, sensors][None])[0]
    frame = _first_non_finite_frame(step, z0, 200)
    assert frame is not None
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["forecast", "--checkpoint", str(tmp_path / "boom.shrd"),
                     "--field", str(modal_dir / "field.fld"), "--horizon", "200",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == [f"numerical abort: non-finite state at frame {frame}"]


def test_landscape_grid_rows_and_center(modal_dir, trained_dir, tmp_path):
    code = main(["landscape", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--alpha", "0.5",
                 "--grid", "5", "--segments", "4", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "landscape.csv").read_text().splitlines()
    assert rows[0] == "t_x,t_y,loss"
    assert len(rows) - 1 == 25
    verdict = json.loads((tmp_path / "convexity.json").read_text())
    assert verdict["tolerance"] == 1e-7
    center = [r for r in rows[1:] if r.startswith("0,0,")]
    assert len(center) == 1
    assert float(center[0].split(",")[2]) == verdict["base_loss"]


def test_landscape_alpha_zero_trivially_convex(modal_dir, trained_dir, tmp_path):
    code = main(["landscape", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--alpha", "0",
                 "--grid", "3", "--segments", "3", "--out", str(tmp_path)])
    assert code == 0
    verdict = json.loads((tmp_path / "convexity.json").read_text())
    assert verdict["convex"] is True
    values = {float(r.split(",")[2])
              for r in (tmp_path / "landscape.csv").read_text().splitlines()[1:]}
    assert len(values) == 1


def test_landscape_invalid_grid_exit_2(modal_dir, trained_dir, tmp_path):
    code = main(["landscape", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--grid", "4",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("segments", ["0", "-1"])
def test_landscape_segments_below_one_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                              segments):
    code = main(["landscape", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--grid", "3",
                 "--segments", segments, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --segments must be >= 1, got {segments}"]
    assert not (tmp_path / "landscape.csv").exists()


@pytest.mark.parametrize("extra_frames", [1, 2])
def test_landscape_field_without_adjacent_training_pair_exit_2(trained_dir, tmp_path, capsys,
                                                               recwarn, extra_frames):
    # lag + 1 or lag + 2 frames leave one training window, which has no successor.
    lag = json.loads((trained_dir / "config.json").read_text())["train"]["lag"]
    assert main(["generate", "modal", "--out", str(tmp_path / "short"), "--grid", "6", "6",
                 "--frames", str(lag + extra_frames), "--seed", "1"]) == 0
    capsys.readouterr()
    code = main(["landscape", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(tmp_path / "short" / "field.fld"), "--grid", "3",
                 "--segments", "2", "--out", str(tmp_path / "scan")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: training split has no window with 1 later window(s) after it; "
        f"the field has {extra_frames} window(s) at lag {lag}"]
    assert len(recwarn) == 0
    assert not (tmp_path / "scan" / "landscape.csv").exists()


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                         ("--alpha", "-inf"), ("--alpha", "-0.5"),
                                         ("--tolerance", "nan"), ("--tolerance", "inf"),
                                         ("--tolerance", "-1")])
def test_landscape_unusable_alpha_or_tolerance_exit_2(tmp_path, capsys, flag, value):
    # The checkpoint does not exist: the flag is rejected before anything loads.
    code = main(["landscape", "--checkpoint", str(tmp_path / "missing.shrd"),
                 "--field", str(tmp_path / "missing.fld"), "--grid", "3",
                 f"{flag}={value}", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} must be finite and >= 0, got {float(value)}"]
    assert not (tmp_path / "landscape.csv").exists()


def test_landscape_alpha_overflowing_every_cell_is_not_convex(modal_dir, trained_dir,
                                                              tmp_path, capfd):
    # A finite alpha this large makes every perturbed loss +inf; no segment can pass,
    # and no numpy warning is raised on the way.
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["landscape", "--checkpoint", str(trained_dir / "model.shrd"),
                     "--field", str(modal_dir / "field.fld"), "--alpha", "1e308",
                     "--grid", "3", "--segments", "3", "--out", str(tmp_path)])
    assert code == 0
    assert capfd.readouterr().err == ""
    text = (tmp_path / "convexity.json").read_text()
    verdict = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in convexity.json"))
    assert verdict["convex"] is False and verdict["segment_pass_fraction"] == 0.0
    cells = [float(r.split(",")[2])
             for r in (tmp_path / "landscape.csv").read_text().splitlines()[1:]]
    assert cells[4] == verdict["base_loss"] and np.isfinite(cells[4])
    assert all(v == np.inf for i, v in enumerate(cells) if i != 4)


def _run_with_extra(modal_dir, trained_dir, tmp_path, command, key, value) -> int:
    """Run ``command`` on the trained checkpoint with ``extra[key]`` set (None deletes it)."""
    blob = (trained_dir / "model.shrd").read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    if value is None:
        del header["extra"][key]
    else:
        header["extra"][key] = value
    new = json.dumps(header).encode()
    ckpt = tmp_path / "extra.shrd"
    ckpt.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + hlen:])
    extra = ["--horizon", "5"] if command == "forecast" else ["--grid", "3", "--segments", "3"]
    return main([command, "--checkpoint", str(ckpt), "--field", str(modal_dir / "field.fld"),
                 "--out", str(tmp_path), *extra])


@pytest.mark.parametrize("command", ["landscape", "forecast"])
@pytest.mark.parametrize("sensors", [None, [], [0, 36], [-1, 3], [3.5, 7.5], ["a", 3], [5, 2],
                                     [4, 4]])
def test_checkpoint_without_usable_sensors_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                                  command, sensors):
    assert _run_with_extra(modal_dir, trained_dir, tmp_path, command, "sensors", sensors) == 2
    assert "sensor" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["landscape", "forecast"])
@pytest.mark.parametrize("scale", [[0.5, 0.5], [1.0, -1.0], [1.0], [0.0, 1.0, 2.0], ["0", 1.0],
                                   [float("nan"), 1.0], [0.0, float("inf")], "0,1"])
def test_checkpoint_with_unusable_scale_exit_2(modal_dir, trained_dir, tmp_path, capsys,
                                               command, scale):
    assert _run_with_extra(modal_dir, trained_dir, tmp_path, command, "scale", scale) == 2
    assert "checkpoint scale" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [None, []])
def test_checkpoint_without_scale_restandardizes_field(modal_dir, trained_dir, tmp_path,
                                                       scale):
    # The field's global extrema are the scale training stored, so the forecast is unchanged.
    assert main(["forecast", "--checkpoint", str(trained_dir / "model.shrd"),
                 "--field", str(modal_dir / "field.fld"), "--horizon", "5",
                 "--out", str(tmp_path / "stored")]) == 0
    assert _run_with_extra(modal_dir, trained_dir, tmp_path, "forecast", "scale", scale) == 0
    assert ((tmp_path / "forecast.json").read_bytes()
            == (tmp_path / "stored" / "forecast.json").read_bytes())


@pytest.mark.parametrize("scale", [[-4.0, 5.0], None])
def test_checkpoint_field_holds_the_field_once(tmp_path, scale):
    # A 2000 x 1000 field is 16 MB as float64; loading and rescaling it may add one block.
    fld = data.Field(data=np.random.default_rng(31).standard_normal((2000, 1000))
                     .astype(np.float32).astype(np.float64))
    data.save_field(fld, tmp_path / "f.fld")
    extra = {"sensors": [0, 5]} if scale is None else {"sensors": [0, 5], "scale": scale}
    lo, hi = scale or (fld.data.min(), fld.data.max())
    want = ((fld.data - lo) / (hi - lo)).tobytes()
    size = fld.data.nbytes
    del fld
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got, _ = cli._checkpoint_field(argparse.Namespace(extra=extra), tmp_path / "f.fld")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got.data.tobytes() == want and got.scale == (lo, hi)
    assert peak < 1.25 * size


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_dump_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "report.json"
    cli._dump(path, {"nan": float("nan"), "list": [1.5, float("inf"), -float("inf")],
                     "nested": {"x": np.float64("nan"), "ci": (0.25, float("nan"))},
                     "ok": True, "n": 3})
    assert _strict_json(path.read_text()) == {
        "nan": None, "list": [1.5, None, None], "nested": {"x": None, "ci": [0.25, None]},
        "ok": True, "n": 3}


def test_validate_theory_thm1_diverged_cell_is_strict_json(tmp_path):
    # At seed 111 one n = 100 fit's cubic model blows up before the horizon.
    code = main(["validate-theory", "--suite", "thm1", "--seed", "111", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "thm1.json").read_text()
    assert '"rollout_err_mean": null' in text
    payload = _strict_json(text)
    diverged = [c for c in payload["cells"] if c["rollout_err_mean"] is None]
    assert [(c["n"], c["noise"]) for c in diverged] == [(100, 0.2)]
    assert payload["slope_ok"] and payload["noise_linearity_ok"]


def test_validate_theory_thm1_excluded_cell_is_strict_json(tmp_path, monkeypatch):
    # 8 samples cannot fit 10 library terms, so those cells are excluded with null errors.
    sweep = evaluation.theory_scaling_experiment
    monkeypatch.setattr(evaluation, "theory_scaling_experiment",
                        lambda **kw: sweep(n_values=[8, 100, 1000], **kw))
    code = main(["validate-theory", "--suite", "thm1", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    payload = _strict_json((tmp_path / "thm1.json").read_text())
    excluded = [c for c in payload["cells"] if c["excluded"]]
    assert [(c["n"], c["noise"]) for c in excluded] == [(8, 0.1), (8, 0.2)]
    assert all(c["coef_err_mean"] is None and c["rollout_err_mean"] is None for c in excluded)
    assert all(isinstance(c["coef_err_mean"], float) for c in payload["cells"] if not c["excluded"])
    assert payload["slope_ok"] and payload["noise_linearity_ok"]


def test_validate_theory_unknown_suite_exit_2(tmp_path, capsys):
    assert main(["validate-theory", "--suite", "thm9", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "argument --suite: invalid choice: 'thm9'" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, env, words", [
    (["--suite", "thm1", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
    (["--suite", "sine", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
    (["--suite", "thm1"], "abc", "SHRED_THREADS must be an integer >= 1, got 'abc'"),
    (["--suite", "thm1"], "-5", "SHRED_THREADS must be an integer >= 1, got '-5'"),
    (["--suite", "thm1"], "0", "SHRED_THREADS must be an integer >= 1, got '0'"),
])
def test_validate_theory_bad_seed_or_threads_exit_2_writes_nothing(tmp_path, monkeypatch, capsys,
                                                                   argv, env, words):
    if env is not None:
        monkeypatch.setenv("SHRED_THREADS", env)
    assert main(["validate-theory", *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {words}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["a-file", "a-file/run"])
@pytest.mark.parametrize("argv", [["generate", "sine", "--frames", "10"],
                                  ["validate-theory", "--suite", "sine", "--gru-epochs", "1"]])
def test_out_naming_a_file_exit_2(tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    Path("a-file").write_text("kept")
    assert main([*argv, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: output directory {out!r} is, or lies under, a file"]
    assert Path("a-file").read_text() == "kept"


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command ran its work before checking --out")


@pytest.mark.parametrize("out", ["a-file", "a-file/run"])
@pytest.mark.parametrize("argv", [
    ["validate-theory", "--suite", "sine"],
    ["validate-theory", "--suite", "thm2-qual"],
    ["validate-theory", "--suite", "thm1"],
    ["landscape", "--checkpoint", "model.shrd", "--field", "field.fld"],
    ["forecast", "--checkpoint", "model.shrd", "--field", "field.fld", "--horizon", "5"],
])
def test_out_under_a_file_exit_2_before_any_work(tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    Path("a-file").write_text("kept")
    for name in ("sine_comparison", "sine_horizons", "theory_scaling_experiment"):
        monkeypatch.setattr(evaluation, name, _must_not_run)
    monkeypatch.setattr(shred, "load_checkpoint", _must_not_run)
    assert main([*argv, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: output directory {out!r} is, or lies under, a file"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]


def test_validate_theory_too_few_trials_exit_2_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(evaluation, "theory_scaling_experiment", _must_not_run)
    assert main(["validate-theory", "--suite", "thm1", "--trials", "5",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --trials must be >= 20 (Monte-Carlo trials per cell), got 5"]
    assert not (tmp_path / "out").exists()


def test_validate_theory_thm1_manifest_records_workers_and_wall_time(tmp_path, monkeypatch):
    sweep = evaluation.theory_scaling_experiment
    monkeypatch.setattr(evaluation, "theory_scaling_experiment",
                        lambda **kw: sweep(n_values=[100, 1000, 10_000], **kw))
    monkeypatch.setenv("SHRED_THREADS", "1")
    main(["validate-theory", "--suite", "thm1", "--seed", "2", "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["workers"] == 1
    assert manifest["wall_time_s"] > 0
    assert {"suite", "seed", "trials"} <= set(manifest)
    payload = json.loads((tmp_path / "thm1.json").read_text())
    assert set(payload) == {"cells", "slope_n", "slope_n_ci", "s_ratio", "s_ratio_ci",
                            "lambda_min_overall", "slope_ok", "noise_linearity_ok"}


def test_validate_theory_sine_suite(tmp_path):
    code = main(["validate-theory", "--suite", "sine", "--gru-epochs", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "sine.json").read_text())
    assert payload["sin_coefficient_ok"] and payload["ordering_ok"]


def test_validate_theory_thm2_qual_suite(tmp_path):
    code = main(["validate-theory", "--suite", "thm2-qual", "--gru-epochs", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "thm2_qual.json").read_text())
    assert payload["qualitative_ok"]
    assert payload["long"]["gru_mse"] >= payload["short"]["gru_mse"]


def test_validate_theory_thm2_qual_short_is_the_thousand_step_run(tmp_path):
    # Two epochs leave the verdict open; only the short scores are under test.
    assert main(["validate-theory", "--suite", "thm2-qual", "--gru-epochs", "2",
                 "--out", str(tmp_path)]) in (0, 4)
    payload = json.loads((tmp_path / "thm2_qual.json").read_text())
    short = evaluation.sine_comparison(evaluation.SineComparisonConfig(n_test=1000, gru_epochs=2))
    assert payload["short"] == {**asdict(short),
                                "sindy_beats_gru": short.sindy_mse < short.gru_mse}


def test_validate_theory_thm2_qual_late_divergence_keeps_short_score(tmp_path, monkeypatch):
    cell = sindy.sindy_cell
    frames = []

    def diverging_cell(z, model, *masked_xi):
        frames.append(len(frames) + 1)
        if frames[-1] >= 1500:
            return np.full(np.shape(z), np.nan)
        return cell(z, model, *masked_xi)

    monkeypatch.setattr(sindy, "sindy_cell", diverging_cell)
    code = main(["validate-theory", "--suite", "thm2-qual", "--gru-epochs", "1",
                 "--out", str(tmp_path)])
    payload = _strict_json((tmp_path / "thm2_qual.json").read_text())
    assert payload["short"]["sindy_mse"] < 1e-2
    assert payload["long"]["sindy_mse"] is None
    assert code == 4


@pytest.mark.parametrize("suite", ["sine", "thm2-qual"])
@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_validate_theory_gru_epochs_below_one_exit_2(tmp_path, capsys, suite, epochs):
    assert main(["validate-theory", "--suite", suite, "--gru-epochs", epochs,
                 "--out", str(tmp_path)]) == 2
    assert "--gru-epochs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["forecast", "--checkpoint", "m.shrd", "--field", "f.fld", "--horizon", "5",
     "--window", "0:100"],
    ["landscape", "--checkpoint", "m.shrd", "--field", "f.fld", "--seg", "4"],
    ["validate-theory", "--suite", "sine", "--gru", "3"],
])
def test_abbreviated_flag_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[-2]}" in err and err.count("\n") == 1


def test_console_entry_point_help():
    """The `[project.scripts]` target prints the top-level help and exits 0.

    The target is run in a fresh interpreter the way the console script that
    setuptools generates runs it, so the test needs no installed package.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["shredkit"]
    try:
        dist = importlib.metadata.distribution("shredkit")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = [ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts" and ep.name == "shredkit"]
        assert installed == [target], "installed shredkit is stale; reinstall it"

    module, attr = target.split(":")
    src = str(Path(shredkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'shredkit'; sys.exit({attr}())")
    out = subprocess.run([sys.executable, "-c", code, "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: shredkit"), out.stderr
    # The module docstring in the description names every command too, so
    # read the subcommand choices that argparse lists as `{a,b,...}`.
    commands = re.search(r"\{([\w,-]+)\}", out.stdout).group(1).split(",")
    assert "generate" in commands and "validate-theory" in commands, out.stdout


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks() -> list[list[str]]:
    """The lines of each fenced block in the README, `\\` continuations joined."""
    blocks, block = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if block is None:
                block = []
            else:
                blocks.append(block)
                block = None
        elif block is not None:
            if block and block[-1].endswith("\\"):
                block[-1] = block[-1][:-1] + line
            else:
                block.append(line)
    return blocks


# One JSON value of the kinds a hand-edited run config can hold by mistake.
_json_scalars = (st.none() | st.booleans() | st.integers(-2, 3)
                 | st.sampled_from([0.0, -0.5, 0.25, 1e308, -1e308, math.inf, -math.inf, math.nan])
                 | st.text(alphabet="ab", max_size=3))
_json_values = st.one_of(_json_scalars, _json_scalars, st.lists(_json_scalars, max_size=3),
                         st.dictionaries(st.text(alphabet="ab", max_size=2), _json_scalars,
                                         max_size=2))
_FUZZ_KEYS = ([("", k) for k in sorted(cli._RUN_KEYS)]
              + [("sensors", k) for k in sorted(cli._SENSOR_KEYS)]
              + [("train", k) for k in sorted(shred.ShredConfig.__dataclass_fields__)])


@pytest.fixture(scope="module")
def fuzz_field(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "modal", "--out", str(out), "--grid", "6", "6",
                 "--frames", "120", "--noise", "0.01"]) == 0
    return out / "field.fld"


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_FUZZ_KEYS), value=_json_values)
def test_train_config_with_one_value_swapped_exits_cleanly(fuzz_field, tmp_path, monkeypatch,
                                                          capsys, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = {"field": str(fuzz_field), "out_dir": "run",
           "sensors": {"count": 6, "seed": 1},
           "train": {"lag": 8, "latent_dim": 2, "epochs": 2, "dt": 0.02, "batch_size": 32,
                     "threshold_interval": 1, "ensemble_size": 2, "poly_degree": 1,
                     "decoder_widths": [8]}}
    block, name = key
    (cfg[block] if block else cfg)[name] = value
    Path("config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["train", "config.json"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (key, value, err)
    if code:
        assert err.count("\n") == 1, (key, value, err)


def test_readme_commands_parse():
    parser = cli.build_parser()
    commands = [shlex.split(line, comments=True)
                for block in _readme_blocks() for line in block if line.startswith("shredkit ")]
    failed = []
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except (SystemExit, cli.UsageError):
            failed.append(shlex.join(argv))
    assert failed == []
    # The recipes exercise every subcommand, which also shows the collector found them.
    assert {argv[1] for argv in commands} == {"generate", "train", "forecast", "landscape",
                                              "validate-theory"}


def test_readme_run_configs_validate():
    configs = []
    for block in _readme_blocks():
        text = "\n".join(block)
        configs += [json.loads(body) for body in re.findall(r"<<'EOF'\n(.*?)\nEOF", text, re.S)]
    assert configs
    for cfg in configs:
        cli._check_keys(cfg, cli._RUN_KEYS, "run config")
        cli._check_keys(cfg["sensors"], cli._SENSOR_KEYS, "sensors config")
        shred.ShredConfig.from_dict(cfg["train"])


# Strings a mistyped flag can carry. The integers stay small, so that a valid
# --frames, --grid, --horizon, --trials, --segments or --gru-epochs sizes a
# run of a few MB at most.
_flag_strings = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "", "-0", "2.5", "abc",
                     "[1, 2]", '{"a": 1}', "null", "[[0, 1.0, NaN, 0.0]]", "1:2", "0,1",
                     "-1,0", "3,x"]),
    st.integers(-3, 9).map(str))
_FLAG_COMMANDS = ("generate", "forecast", "landscape", "validate-theory")
_subcommands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
_SWEEP = evaluation.theory_scaling_experiment
_FLAGS = [(command, action.option_strings[0], action.nargs or 1)
          for command in _FLAG_COMMANDS for action in _subcommands[command]._actions
          if action.option_strings and action.option_strings[0] != "-h"]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(_FLAGS), value=_flag_strings,
       kind=st.sampled_from(["modal", "pendulum", "sine"]))
def test_command_with_one_flag_swapped_exits_cleanly(modal_dir, trained_dir, tmp_path,
                                                      monkeypatch, capsys, flag, value, kind):
    command, name, nargs = flag
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.setenv("SHRED_THREADS", "1")
    monkeypatch.setattr(evaluation, "theory_scaling_experiment",
                        lambda **kw: _SWEEP(n_values=[100, 1000], **kw))
    run = ["--checkpoint", str(trained_dir / "model.shrd"), "--field", str(modal_dir / "field.fld")]
    base = {"generate": [kind, "--frames", "40", "--grid", "4", "4", "--out", "out"],
            "forecast": [*run, "--horizon", "5", "--out", "out"],
            "landscape": [*run, "--grid", "3", "--segments", "3", "--out", "out"],
            "validate-theory": ["--suite", "thm1", "--out", "out"]}[command]
    # The = form keeps a value such as -inf from reading as a flag.
    argv = [command, *base, *([f"{name}={value}"] if nargs == 1 else [name, *[value] * nargs])]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        assert err.count("\n") == 1, (argv, err)
    for path in Path().rglob("*.json"):
        _strict_json(path.read_text())
    if command != "generate":
        for line in out.splitlines():
            _strict_json(line)
