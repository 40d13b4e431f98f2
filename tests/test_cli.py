"""CLI verbs end to end on the synthetic corpus: artifacts, determinism,
exit codes, config handling."""
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qcae.cli import (
    ExperimentConfig,
    _model_spec,
    _train_config,
    config_id,
    load_config_file,
    main,
    resolve_config,
)
from qcae.data_io import filter_classes, load_idx, make_synthetic_digits, write_idx
from qcae.model import ModelSpec, TrainConfig
from qcae.nn import load_weights

FAST = [
    "--dataset", "synthetic",
    "--limit", "32",
    "--val-limit", "8",
    "--epochs", "1",
    "--batch-size", "8",
    "--qubits", "2",
    "--p", "1",
    "--image-size", "8",
    "--family", "b",
]


def write_idx_fixtures(data_dir: Path, size: int) -> Path:
    """32 train and 8 t10k synthetic images under the four standard IDX names."""
    data_dir.mkdir()
    for split, count, seed in (("train", 32, 0), ("t10k", 8, 1)):
        write_idx(make_synthetic_digits(count, seed=seed, size=size),
                  data_dir / f"{split}-images-idx3-ubyte", data_dir / f"{split}-labels-idx1-ubyte")
    return data_dir


def run_train(tmp_path, *extra) -> tuple[int, object]:
    out = tmp_path / "runs"
    code = main(["train", *FAST, "--output-dir", str(out), *extra])
    run_dirs = sorted(out.glob("*/manifest.json"))
    return code, run_dirs


# ------------------------------------------------------------------ config

def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nqubits = 3\nsigma=0.25\npsr = off\nfamily=c\n")
    cfg = resolve_config(path, {})
    assert cfg.qubits == 3 and cfg.sigma == 0.25 and cfg.psr is False and cfg.family == "c"
    # flags win over the file
    cfg2 = resolve_config(path, {"qubits": "4"})
    assert cfg2.qubits == 4


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("qubitz = 3\n")
    with pytest.raises(ValueError, match="qubitz"):
        load_config_file(path)


def test_config_line_without_equals_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("qubits = 3\nsigma 0.25\n")
    assert main(["train", *FAST, "--config", str(path),
                 "--output-dir", str(tmp_path / "runs")]) == 1
    assert f"{path}:2: expected key=value, got 'sigma 0.25'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_config_id_is_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig(seed=1)
    assert config_id(a) == config_id(ExperimentConfig())
    assert config_id(a) != config_id(b)
    assert len(config_id(a)) == 10


def test_effective_config_serializes_back_identically(tmp_path):
    cfg = resolve_config(None, {"qubits": "3", "family": "a", "sigma": "0.75"})
    path = tmp_path / "echo.cfg"
    from dataclasses import asdict

    path.write_text("".join(f"{k} = {v}\n" for k, v in asdict(cfg).items()))
    again = resolve_config(path, {})
    assert again == cfg
    assert config_id(again) == config_id(cfg)


def test_the_default_config_runs_the_default_spec_and_training():
    # ExperimentConfig reads its model and training defaults from these classes
    assert _model_spec(ExperimentConfig()) == ModelSpec()
    assert _train_config(ExperimentConfig()) == TrainConfig()


def test_invalid_p_names_the_key():
    with pytest.raises(ValueError, match="p must"):
        resolve_config(None, {"p": "0"})


CONFIG_REFUSED = [
    ({"dataset": "bogus"}, "dataset must be idx or synthetic, got 'bogus'"),
    ({"model": "vae"}, "model must be qcae or ccae, got 'vae'"),
    ({"p": 0}, "p must be >= 1, got 0"),
    ({"epochs": 0}, "epochs and batch_size must be >= 1"),
    ({"classes": ","}, "classes must name at least one class"),
    ({"classes": "0,x"}, "classes must be comma-separated integers"),
    ({"dataset": "synthetic", "classes": "1,2"}, "the synthetic corpus only provides 0 and 1"),
]


@pytest.mark.parametrize("change, message", CONFIG_REFUSED,
                         ids=["-".join(f"{k}={v}" for k, v in change.items())
                              for change, _ in CONFIG_REFUSED])
def test_a_config_checks_itself_however_it_is_made(change, message):
    # construction and replace() refuse what resolve_config refuses
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**change)
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(ExperimentConfig(), **change)


def test_eval_refuses_a_manifest_train_would_refuse(tmp_path, capsys):
    code, runs = run_train(tmp_path)
    assert code == 0
    manifest = json.loads(runs[0].read_text())
    manifest["config"]["batch_size"] = 0
    runs[0].write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--run", str(runs[0].parent)]) == 1
    assert "config error: epochs and batch_size must be >= 1" in capsys.readouterr().err
    assert not (runs[0].parent / "eval.csv").exists()


# ------------------------------------------------------------------- train

def test_train_writes_manifest_weights_and_curve(tmp_path):
    code, runs = run_train(tmp_path)
    assert code == 0
    assert len(runs) == 1
    run_dir = runs[0].parent
    assert (run_dir / "weights.bin").exists()
    curve = (run_dir / "curve.csv").read_text().splitlines()
    assert curve[0] == "config_id,epoch,train_loss,val_ssim"
    assert len(curve) == 2  # one epoch
    manifest = json.loads(runs[0].read_text())
    assert manifest["config"]["qubits"] == 2
    assert manifest["config_id"] == run_dir.name


def test_train_is_byte_identical_across_repeats(tmp_path):
    _, runs_a = run_train(tmp_path)
    run_dir = runs_a[0].parent
    snapshot = {name: (run_dir / name).read_bytes()
                for name in ("curve.csv", "weights.bin", "manifest.json")}
    _, runs_b = run_train(tmp_path)  # identical command, same output dir
    assert runs_b[0].parent == run_dir
    for name, blob in snapshot.items():
        assert (run_dir / name).read_bytes() == blob


def test_train_usage_error_exit_code(tmp_path, capsys):
    assert main(["train", "--p", "0", "--output-dir", str(tmp_path)]) == 1
    assert main(["train", "--no-such-flag"]) == 1
    assert main(["bogus-verb"]) == 1
    assert main([]) == 1  # no subcommand
    assert "usage: qcae" in capsys.readouterr().out


def test_missing_dataset_is_a_config_error(tmp_path):
    code = main([
        "train", "--dataset", "idx", "--data-dir", str(tmp_path / "nowhere"),
        "--output-dir", str(tmp_path / "runs"),
    ])
    assert code == 1


def test_data_errors_leave_no_run_directory(tmp_path):
    # the data loads before the run directory is made
    assert main(["train", "--dataset", "idx", "--data-dir", str(tmp_path / "nowhere"),
                 "--output-dir", str(tmp_path / "runs")]) == 1
    assert not (tmp_path / "runs").exists()
    code, _ = run_train(tmp_path, "--classes", "2")  # the synthetic corpus has 0s and 1s only
    assert code == 1 and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("split", ["train", "t10k"])
def test_an_idx_split_without_the_classes_makes_no_run(tmp_path, capsys, split):
    # load_split refuses a split with no image of --classes before any
    # directory exists, whichever of the two IDX files lacks them
    data_dir = write_idx_fixtures(tmp_path / "mnist", 8)
    images = data_dir / f"{split}-images-idx3-ubyte"
    labels = data_dir / f"{split}-labels-idx1-ubyte"
    write_idx(filter_classes(load_idx(images, labels), [0]), images, labels)
    code, _ = run_train(tmp_path, "--dataset", "idx", "--data-dir", str(data_dir),
                        "--classes", "1")
    named = "train" if split == "train" else "val"
    assert code == 1
    assert f"config error: {data_dir}: the {named} split has no image of classes 1" in (
        capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()
    out = tmp_path / "sweep"
    assert main(["sweep", *FAST, "--dataset", "idx", "--data-dir", str(data_dir),
                 "--output-dir", str(out), "--axis", "classes=1;0,1"]) == 0
    assert f"the {named} split has no image of classes 1" in capsys.readouterr().err
    with open(next(out.glob("sweep_*.csv")), newline="") as f:
        rows = list(csv.reader(f))
    assert [(row[1], row[-1]) for row in rows[1:]] == [("1", "FAILED"), ("0,1", "ok")]
    assert [m.parent.name for m in out.glob("*/manifest.json")] == [rows[2][0]]


def test_eval_and_denoise_refuse_an_empty_validation_split(tmp_path, capsys):
    data_dir = write_idx_fixtures(tmp_path / "mnist", 8)
    code, runs = run_train(tmp_path, "--dataset", "idx", "--data-dir", str(data_dir))
    assert code == 0
    images, labels = data_dir / "t10k-images-idx3-ubyte", data_dir / "t10k-labels-idx1-ubyte"
    write_idx(filter_classes(load_idx(images, labels), [2]), images, labels)
    capsys.readouterr()
    run_dir = runs[0].parent
    for verb in ("eval", "denoise"):
        assert main([verb, "--run", str(run_dir)]) == 1
        assert "the val split has no image of classes 0,1" in capsys.readouterr().err, verb
    assert not (run_dir / "eval.csv").exists() and not list(run_dir.glob("*.pgm"))


def test_one_qubit_qaoa_is_a_config_error(tmp_path):
    # a one-qubit ring has no edge, so the gamma slots would vanish
    with pytest.raises(ValueError, match="QAOA needs n_qubits >= 2"):
        resolve_config(None, {"qubits": "1", "family": "ours"})
    code, _ = run_train(tmp_path, "--qubits", "1", "--family", "ours")
    assert code == 1 and not (tmp_path / "runs").exists()


def test_idx_files_come_from_data_dir_alone(tmp_path, monkeypatch):
    # the environment names no data location; only --data-dir does
    monkeypatch.setenv("QCAE_DATA_DIR", str(tmp_path / "missing"))
    data_dir = write_idx_fixtures(tmp_path / "mnist", 8)
    code, runs = run_train(tmp_path, "--dataset", "idx", "--data-dir", str(data_dir))
    assert code == 0 and len(runs) == 1
    assert json.loads(runs[0].read_text())["config"]["data_dir"] == str(data_dir)


def test_idx_images_must_match_image_size(tmp_path, capsys):
    data_dir = write_idx_fixtures(tmp_path / "mnist", 28)
    code, _ = run_train(tmp_path, "--dataset", "idx", "--data-dir", str(data_dir),
                        "--model", "ccae")
    assert code == 1
    assert "IDX images are 28x28, image_size is 8" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# ----------------------------------------------------------------- denoise

def test_denoise_writes_reproducible_panels(tmp_path):
    code, runs = run_train(tmp_path)
    assert code == 0
    run_dir = runs[0].parent
    assert main(["denoise", "--run", str(run_dir), "--count", "3"]) == 0
    panels = sorted(run_dir.glob("denoised_*.pgm"))
    assert len(panels) == 3
    first = [p.read_bytes() for p in panels]
    assert main(["denoise", "--run", str(run_dir), "--count", "3"]) == 0
    assert [p.read_bytes() for p in panels] == first


def test_denoise_sigma_override_changes_noisy_panel(tmp_path):
    code, runs = run_train(tmp_path)
    run_dir = runs[0].parent
    main(["denoise", "--run", str(run_dir), "--count", "1"])
    base = (run_dir / "denoised_000.pgm").read_bytes()
    main(["denoise", "--run", str(run_dir), "--count", "1", "--sigma", "1.0"])
    assert (run_dir / "denoised_000.pgm").read_bytes() != base


def test_denoise_missing_weights_is_an_error(tmp_path):
    assert main(["denoise", "--run", str(tmp_path / "ghost")]) == 1


def test_denoise_refuses_a_count_below_one(tmp_path, capsys):
    code, runs = run_train(tmp_path)
    run_dir = runs[0].parent
    assert main(["denoise", "--run", str(run_dir), "--count", "0"]) == 1
    assert "config error: --count must be >= 1, got 0" in capsys.readouterr().err
    assert not list(run_dir.glob("*.pgm"))


# ------------------------------------------------------------------- sweep

def test_sweep_grid_rows_and_determinism(tmp_path):
    out = tmp_path / "runs"
    argv = ["sweep", *FAST, "--output-dir", str(out),
            "--axis", "p=1,2", "--axis", "psr=true,false"]
    assert main(argv) == 0
    sweeps = list(out.glob("sweep_*.csv"))
    assert len(sweeps) == 1
    lines = sweeps[0].read_text().splitlines()
    assert lines[0] == "config_id,p,psr,final_val_ssim,status"
    assert len(lines) == 5  # 2 x 2 grid
    assert all(line.endswith(",ok") for line in lines[1:])
    content = sweeps[0].read_bytes()
    assert main(argv) == 0
    assert sweeps[0].read_bytes() == content


def test_sweeps_over_different_axes_keep_their_own_csvs(tmp_path):
    # one base config swept over two axes: the second CSV must not replace the first
    out = tmp_path / "runs"
    for axis in ("seed=1,2", "learning_rate=0.001,0.003"):
        assert main(["sweep", *FAST, "--output-dir", str(out), "--axis", axis]) == 0
    tables = {}
    for path in out.glob("sweep_*.csv"):
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        tables[header[1]] = [(row[1], row[-1]) for row in rows]
    assert tables == {"seed": [("1", "ok"), ("2", "ok")],
                      "learning_rate": [("0.001", "ok"), ("0.003", "ok")]}


def test_sweep_points_share_the_configured_seed(tmp_path):
    # arms of a comparison train on one corpus from one initialization
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--seed", "3", "--output-dir", str(out),
                 "--axis", "psr=true,false"]) == 0
    manifests = [json.loads(m.read_text()) for m in out.glob("*/manifest.json")]
    assert sorted(m["config"]["psr"] for m in manifests) == [False, True]
    assert [m["config"]["seed"] for m in manifests] == [3, 3]


def test_sweep_continues_past_failing_grid_point(tmp_path):
    out = tmp_path / "runs"
    # the idx point finds no IDX files when it loads its data and must fail
    # that point only
    argv = ["sweep", *FAST, "--output-dir", str(out), "--data-dir", str(tmp_path / "none"),
            "--axis", "dataset=synthetic,idx"]
    assert main(argv) == 0
    lines = next(out.glob("sweep_*.csv")).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [(row[1], row[-1]) for row in rows] == [("synthetic", "ok"), ("idx", "FAILED")]


def test_sweep_loads_each_distinct_dataset_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return make_synthetic_digits(*args)

    monkeypatch.setattr("qcae.cli.make_synthetic_digits", counted)
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--output-dir", str(out),
                 "--axis", "learning_rate=0.001,0.002"]) == 0
    assert len(calls) == 2  # one train and one val split for both points
    # the shared splits leave the second point as a fresh train would
    code, runs = run_train(tmp_path / "alone", "--learning-rate", "0.002")
    assert code == 0
    swept = next(m.parent for m in out.glob("*/manifest.json")
                 if json.loads(m.read_text())["config"]["learning_rate"] == 0.002)
    assert (swept / "weights.bin").read_bytes() == (runs[0].parent / "weights.bin").read_bytes()
    calls.clear()
    assert main(["sweep", *FAST, "--output-dir", str(out), "--axis", "seed=1,2"]) == 0
    assert len(calls) == 4  # a data key on the axis loads each point's own splits


def test_an_idx_seed_sweep_reads_its_files_once(tmp_path, monkeypatch):
    # load_split reads seed only to draw the synthetic corpus, so the IDX
    # points of a seed axis share one train and one val split
    calls = []

    def counted(*paths):
        calls.append(paths)
        return load_idx(*paths)

    monkeypatch.setattr("qcae.cli.load_idx", counted)
    data_dir = write_idx_fixtures(tmp_path / "mnist", 8)
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--dataset", "idx", "--data-dir", str(data_dir),
                 "--output-dir", str(out), "--axis", "seed=1,2,3"]) == 0
    assert [Path(images).name for images, _ in calls] == ["train-images-idx3-ubyte",
                                                        "t10k-images-idx3-ubyte"]
    with open(next(out.glob("sweep_*.csv")), newline="") as f:
        assert [row[-1] for row in csv.reader(f)] == ["status", "ok", "ok", "ok"]


GRID_REFUSED = [
    ("dataset=synthetic,bogus", "dataset", "dataset must be idx or synthetic, got 'bogus'"),
    ("family=c,d", "family", "unknown circuit family 'd'"),
    ("classes=1,2", "classes", "the synthetic corpus only provides 0 and 1"),
]


@pytest.mark.parametrize("axis, key, reason", GRID_REFUSED,
                         ids=[f"{axis}-{key}" for axis, key, _ in GRID_REFUSED])
def test_sweep_refuses_a_grid_point_train_refuses(tmp_path, capsys, axis, key, reason):
    # train refuses --dataset bogus, --family d and synthetic --classes 2 at
    # config time; a sweep over them trains no point and makes no directory
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--output-dir", str(out), "--axis", axis]) == 1
    err = capsys.readouterr().err
    assert f"config error: grid point {{'{key}': " in err and reason in err
    assert not out.exists()


def test_sweep_axis_with_a_semicolon_sweeps_class_sets(tmp_path):
    # values split on ; when the list holds one, so one value can be a class
    # list; the CSV quotes it
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--output-dir", str(out), "--axis", "classes=0;0,1"]) == 0
    with open(next(out.glob("sweep_*.csv")), newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["config_id", "classes", "final_val_ssim", "status"]
    assert [(row[1], row[-1]) for row in rows[1:]] == [("0", "ok"), ("0,1", "ok")]
    manifests = [json.loads(m.read_text()) for m in out.glob("*/manifest.json")]
    assert sorted(m["config"]["classes"] for m in manifests) == ["0", "0,1"]


MALFORMED_AXES = [
    ("p", "axis must look like name=v1,v2,... or name=v1;v2;... got 'p'"),
    ("p=,", "axis 'p' has no values"),
    ("epochs=1,x", "config key 'epochs': cannot parse int from 'x'"),
]


@pytest.mark.parametrize("axis, message", MALFORMED_AXES, ids=[a for a, _ in MALFORMED_AXES])
def test_sweep_refuses_a_malformed_axis(tmp_path, capsys, axis, message):
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--output-dir", str(out), "--axis", axis]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_family_by_depth_grid_shape(tmp_path):
    # families x p in 1..5 gives the 20-row comparison-table layout
    out = tmp_path / "runs"
    argv = ["sweep", *FAST, "--output-dir", str(out),
            "--limit", "12", "--val-limit", "4",
            "--axis", "family=a,b,c,ours", "--axis", "p=1,2,3,4,5"]
    assert main(argv) == 0
    lines = next(out.glob("sweep_*.csv")).read_text().splitlines()
    assert lines[0] == "config_id,family,p,final_val_ssim,status"
    assert len(lines) == 21
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_takes_any_config_key_as_an_axis(tmp_path):
    out = tmp_path / "runs"
    assert main(["sweep", *FAST, "--output-dir", str(out),
                 "--axis", "learning_rate=1e-3,3e-3"]) == 0
    lines = next(out.glob("sweep_*.csv")).read_text().splitlines()
    assert lines[0] == "config_id,learning_rate,final_val_ssim,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [(row[1], row[-1]) for row in rows] == [("0.001", "ok"), ("0.003", "ok")]
    manifests = [json.loads(m.read_text()) for m in out.glob("*/manifest.json")]
    assert sorted(m["config"]["learning_rate"] for m in manifests) == [1e-3, 3e-3]


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    assert main(["sweep", *FAST, "--output-dir", str(tmp_path),
                 "--axis", "qbits=2,3"]) == 1
    assert main(["sweep", *FAST, "--output-dir", str(tmp_path)]) == 1
    # a repeated axis would train one point twice under one config_id
    capsys.readouterr()
    assert main(["sweep", *FAST, "--output-dir", str(tmp_path / "out"),
                 "--axis", "p=1,2", "--axis", "p=3"]) == 1
    assert "'p'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------------- eval

def test_eval_reports_ssim(tmp_path, capsys):
    code, runs = run_train(tmp_path)
    run_dir = runs[0].parent
    assert main(["eval", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "ssim noisy->clean" in out
    eval_lines = (run_dir / "eval.csv").read_text().splitlines()
    assert eval_lines[0] == "config_id,n_images,ssim_noisy,ssim_denoised"
    assert len(eval_lines) == 2


def test_eval_reproduces_final_curve_ssim(tmp_path):
    # eval re-noises the validation images with train()'s own val seed, and
    # the noise channel is exact, so a noisy run's eval also equals its curve
    for name, noise in (("noiseless", []),
                        ("depolarizing", ["--depolarizing-prob", "0.05", "--family", "c"])):
        code, runs = run_train(tmp_path / name, *noise)
        assert code == 0 and len(runs) == 1
        run_dir = runs[0].parent
        assert main(["eval", "--run", str(run_dir)]) == 0
        curve_ssim = (run_dir / "curve.csv").read_text().splitlines()[-1].split(",")[-1]
        eval_ssim = (run_dir / "eval.csv").read_text().splitlines()[-1].split(",")[-1]
        assert eval_ssim == curve_ssim, name


def test_eval_and_denoise_read_only_the_validation_split(tmp_path):
    data_dir = write_idx_fixtures(tmp_path / "mnist", 8)
    code, runs = run_train(tmp_path, "--dataset", "idx", "--data-dir", str(data_dir))
    assert code == 0
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        (data_dir / name).unlink()
    run_dir = runs[0].parent
    assert main(["eval", "--run", str(run_dir)]) == 0
    assert (run_dir / "eval.csv").exists()
    assert main(["denoise", "--run", str(run_dir), "--count", "1"]) == 0


def test_truncated_weights_are_a_config_error_naming_the_file(tmp_path, capsys):
    code, runs = run_train(tmp_path)
    run_dir = runs[0].parent
    path = run_dir / "weights.bin"
    blob = path.read_bytes()
    for cut in (10, 60, len(blob) - 8):  # two cuts inside the header, one in the payload
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*offset"):
            load_weights(path)
        assert main(["eval", "--run", str(run_dir)]) == 1
        assert str(path) in capsys.readouterr().err


def test_unknown_manifest_key_is_a_config_error(tmp_path, capsys):
    code, runs = run_train(tmp_path)
    manifest = json.loads(runs[0].read_text())
    manifest["config"]["x"] = 1
    runs[0].write_text(json.dumps(manifest))
    assert main(["eval", "--run", str(runs[0].parent)]) == 1
    assert "unknown config key 'x'" in capsys.readouterr().err
    assert main(["denoise", "--run", str(runs[0].parent)]) == 1


def test_aborted_run_keeps_manifest_and_partial_curve(tmp_path, monkeypatch):
    from qcae import model

    monkeypatch.setattr(model, "mse_loss", lambda recon, target: (float("nan"), None))
    code, runs = run_train(tmp_path)
    assert code == 2 and len(runs) == 1
    last = (runs[0].parent / "curve.csv").read_text().splitlines()[-1].split(",")
    assert last[-2:] == ["nan", "nan"]
    assert not (runs[0].parent / "weights.bin").exists()


def test_noisy_qubit_cap_is_a_config_error(tmp_path):
    # depolarizing noise simulates 2n-qubit density matrices: n <= MAX_QUBITS // 2
    noisy = {"depolarizing_prob": "0.01"}
    assert resolve_config(None, {**noisy, "qubits": "7"}).qubits == 7
    with pytest.raises(ValueError, match="caps n_qubits at 7"):
        resolve_config(None, {**noisy, "qubits": "8"})
    code, runs = run_train(tmp_path, "--depolarizing-prob", "0.01", "--qubits", "8")
    assert code == 1 and runs == []


def test_qubit_cap_is_a_config_error(tmp_path):
    with pytest.raises(ValueError, match="caps n_qubits at 14"):
        resolve_config(None, {"qubits": "15"})
    assert resolve_config(None, {"qubits": "15", "model": "ccae"}).qubits == 15
    code, runs = run_train(tmp_path, "--qubits", "15")
    assert code == 1 and not (tmp_path / "runs").exists()


REFUSED = [
    ("image_size", "16", "image_size must be one of"),
    ("family", "d", "unknown circuit family"),
    ("learning_rate", "-1", "learning_rate must be"),
    ("learning_rate", "0", "learning_rate must be"),
    ("limit", "0", "sample_limit and val_limit"),
    ("val_limit", "0", "sample_limit and val_limit"),
    ("classes", "x", "classes must be comma-separated integers"),
    ("classes", "", "classes must name at least one class"),
    ("sigma", "nan", "sigma must be finite"),
    ("sigma", "inf", "sigma must be finite"),
    ("model", "bogus", "model must be qcae or ccae, got 'bogus'"),
    # a value that does not parse as its key's type names the key
    ("psr", "maybe", "config key 'psr': cannot parse bool from 'maybe'"),
    ("epochs", "1.5", "config key 'epochs': cannot parse int from '1.5'"),
    ("sigma", "abc", "config key 'sigma': cannot parse float from 'abc'"),
]


@pytest.mark.parametrize("key, value, match", REFUSED,
                         ids=[f"{key}={value}" for key, value, _ in REFUSED])
def test_refused_value_is_a_config_error(tmp_path, key, value, match):
    with pytest.raises(ValueError, match=match):
        resolve_config(None, {key: value})
    code, _ = run_train(tmp_path, f"--{key.replace('_', '-')}", value)
    assert code == 1 and not (tmp_path / "runs").exists()


def test_module_entry_point_prints_usage():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-m", "qcae.cli"], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert "usage: qcae" in result.stdout


def test_outputs_stay_under_output_dir(tmp_path):
    out = tmp_path / "runs"
    code, runs = run_train(tmp_path)
    for artifact in (tmp_path / "runs").rglob("*"):
        assert str(artifact).startswith(str(out))
