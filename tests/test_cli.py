"""End-to-end command wiring, exit codes, and manifest reproducibility."""

import importlib.metadata
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import numpy as np
import pytest

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


def test_generate_sine_trajectory_field(tmp_path):
    code = main(["generate", "sine", "--out", str(tmp_path), "--frames", "50",
                 "--dt", "0.01", "--theta0", "0.5", "--omega0", "0.0"])
    assert code == 0
    fld = data.load_field(tmp_path / "field.fld")
    assert fld.data.shape == (50, 2)


def test_generate_invalid_kind_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "lorenz", "--out", "/tmp/x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, words", [
    (["modal", "--grid", "0", "0"], "(T, N) with T, N >= 1"),
    (["modal", "--dt", "nan"], "dt_physical must be finite"),
    (["modal", "--noise", "-1"], "--noise must be finite and >= 0"),
    (["modal", "--noise", "nan"], "--noise must be finite and >= 0"),
    (["modal", "--modes", "[]"], "--modes must be a non-empty JSON list"),
    (["modal", "--modes", "{}"], "--modes must be a non-empty JSON list"),
    (["pendulum", "--frames", "0"], "--frames must be >= 1"),
    (["sine", "--frames", "-3"], "--frames must be >= 1"),
    (["pendulum", "--dt", "nan"], "pendulum dt must be in (0, 1/30]"),
])
def test_generate_malformed_input_exit_2(tmp_path, capsys, argv, words):
    out = tmp_path / "gen"
    assert main(["generate", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and words in err[0]
    assert not (out / "field.fld").exists()


def test_generate_diverging_pendulum_exit_3(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "pendulum", "--theta0", "inf", "--out", str(out)]) == 3
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


def test_train_numerical_abort_exit_3(modal_dir, tmp_path):
    cfg_path = _run_config(modal_dir, tmp_path / "boom", learning_rate=1e100,
                           epochs=2, dropout=0.0)
    with np.errstate(all="ignore"):
        code = main(["train", str(cfg_path)])
    assert code == 3


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


def test_validate_theory_unknown_suite_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate-theory", "--suite", "thm9", "--out", str(tmp_path)])
    assert exc.value.code == 2


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
    assert payload["short"] == short.to_dict()


def test_validate_theory_thm2_qual_late_divergence_keeps_short_score(tmp_path, monkeypatch):
    cell = sindy.sindy_cell
    frames = []

    def diverging_cell(z, model):
        frames.append(len(frames) + 1)
        if frames[-1] >= 1500:
            return np.full(np.shape(z), np.nan)
        return cell(z, model)

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
def test_abbreviated_flag_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


def test_readme_commands_parse():
    parser = cli.build_parser()
    commands = [shlex.split(line, comments=True)
                for block in _readme_blocks() for line in block if line.startswith("shredkit ")]
    failed = []
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
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
