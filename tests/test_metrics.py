"""SSIM unit behaviour, closed forms, window-sum oracle and library
cross-checks, CSV output."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcae.data_io import NoiseSpec, add_gaussian_noise, make_synthetic_digits
from qcae import metrics
from qcae.metrics import (C1, C2, EVAL_BLOCK, RunRecord, SsimConfig, eval_blocks, mean_ssim,
                          ssim, ssim_config_for, write_csv)

from oracles import peak_bytes, ssim_direct, ssim_per_image_stacked


def test_ssim_identity_is_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.random((28, 28))
        assert abs(ssim(x, x) - 1.0) < 1e-12


def test_ssim_constant_images_closed_form():
    # all-zero vs all-one: variances vanish, so the contrast term cancels to
    # C2/C2 = 1 and the value reduces to C1 / (1 + C1)
    value = ssim(np.zeros((28, 28)), np.ones((28, 28)), SsimConfig())
    expected = C1 / (1.0 + C1)
    assert abs(value - expected) < 1e-10


def test_ssim_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = rng.random((28, 28)), rng.random((28, 28))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12


def test_ssim_bounded_by_one_in_magnitude():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert abs(ssim(a, b)) <= 1.0 + 1e-12


def test_ssim_matches_skimage_reference():
    skimage_metrics = pytest.importorskip("skimage.metrics")
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.random((28, 28)), rng.random((28, 28))
        ours = ssim(a, b)
        reference = skimage_metrics.structural_similarity(
            a, b, data_range=1.0, gaussian_weights=True, sigma=1.5,
            use_sample_covariance=False,
        )
        assert abs(ours - reference) < 1e-7


@pytest.mark.parametrize("window, shape", [
    ("gaussian11", (28, 28)),
    ("gaussian11", (13, 20)),
    ("uniform8", (8, 8)),
    ("uniform8", (9, 12)),
])
def test_ssim_matches_window_sum_oracle(window, shape):
    cfg = SsimConfig(window=window)
    rng = np.random.default_rng(8)
    clean = rng.random((3, *shape))
    noisy = np.clip(clean + rng.normal(scale=0.2, size=clean.shape), 0.0, 1.0)
    expected = [ssim_direct(a, b, window, C1, C2) for a, b in zip(noisy, clean)]
    for a, b, want in zip(noisy, clean, expected):
        assert abs(ssim(a, b, cfg) - want) < 1e-12
    assert abs(mean_ssim(noisy, clean, cfg) - np.mean(expected)) < 1e-12


def test_mean_ssim_of_a_stack_is_the_mean_of_per_image_ssim():
    rng = np.random.default_rng(9)
    a, b = rng.random((5, 1, 28, 28)), rng.random((5, 1, 28, 28))
    per_image = np.mean([ssim(x, y) for x, y in zip(a, b)])
    assert abs(mean_ssim(a, b) - per_image) < 1e-15
    assert abs(mean_ssim(a[:, 0], b[:, 0]) - per_image) < 1e-15
    with pytest.raises(ValueError):
        mean_ssim(a[0, 0], b[0, 0])
    with pytest.raises(ValueError):
        mean_ssim(np.zeros((2, 2, 28, 28)), np.zeros((2, 2, 28, 28)))


@pytest.mark.parametrize("shape", [(0, 28, 28), (0, 1, 28, 28)])
def test_mean_ssim_refuses_an_empty_stack(shape):
    # a mean over no images is no score, and nan would pass for one
    with pytest.raises(ValueError, match="empty"):
        mean_ssim(np.zeros(shape), np.zeros(shape))


def test_eval_blocks_cut_every_count_into_whole_blocks():
    assert eval_blocks(0) == []
    assert eval_blocks(32) == [slice(0, 32)]
    assert eval_blocks(33) == [slice(0, 16), slice(16, 33)]
    assert eval_blocks(70) == [slice(0, 23), slice(23, 46), slice(46, 70)]
    for count in range(1, 300):
        blocks = eval_blocks(count)
        assert blocks[0].start == 0 and blocks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == -(-count // EVAL_BLOCK) and max(sizes) <= EVAL_BLOCK
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("count", [1, 31, 32, 33, 70, 100])
def test_blocked_mean_ssim_equals_the_mean_of_one_call(count):
    rng = np.random.default_rng(count)
    a, b = rng.random((count, 28, 28)), rng.random((count, 28, 28))
    one_call = metrics._ssim_per_image(a, b, SsimConfig())
    assert mean_ssim(a, b) == float(one_call.mean())


def test_mean_ssim_memory_does_not_grow_with_the_image_count():
    rng = np.random.default_rng(10)
    a, b = rng.random((256, 28, 28)), rng.random((256, 28, 28))
    mean_ssim(a[:32], b[:32])  # warm-up
    # one call over all 256 images held five (256, 18, 28) planes and their products
    assert peak_bytes(mean_ssim, a, b) <= 2 * peak_bytes(mean_ssim, a[:32], b[:32])


@pytest.mark.parametrize("cfg, shape", [(SsimConfig(), (7, 28, 28)),
                                        (SsimConfig("uniform8"), (3, 9, 12))])
def test_ssim_block_matches_the_stacked_form_bit_for_bit(cfg, shape):
    rng = np.random.default_rng(12)
    a, b = rng.random(shape), rng.random(shape)
    rows, cols = metrics._bands(cfg, *shape[1:])
    np.testing.assert_array_equal(metrics._ssim_per_image(a, b, cfg),
                                  ssim_per_image_stacked(a, b, rows, cols, C1, C2))


def test_importing_qcae_leaves_scipy_signal_unloaded():
    # scipy.signal cost most of a fresh process's import time; nothing needs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import qcae, sys; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# numpy is the only runtime dependency (scipy serves only as a test oracle),
# and the package reads local files only, so it loads no network module.
# urllib.parse is allowed: pathlib loads it
UNLOADED_ON_IMPORT = ("scipy", "urllib.request", "http", "email", "ssl", "socket")


@pytest.fixture(scope="module")
def modules_after_import() -> list[str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import qcae, sys; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.parametrize("package", UNLOADED_ON_IMPORT)
def test_importing_qcae_loads_no(modules_after_import, package):
    loaded = [m for m in modules_after_import if m == package or m.startswith(package + ".")]
    assert loaded == []


def test_ssim_degrades_monotonically_with_noise():
    images = make_synthetic_digits(50, seed=4).images
    means = []
    for i, sigma in enumerate((0.25, 0.5, 0.75, 1.0)):
        noisy = add_gaussian_noise(images, NoiseSpec(sigma, seed=100 + i))
        means.append(mean_ssim(noisy, images))
    assert all(means[i + 1] <= means[i] for i in range(3)), means


def test_uniform_and_gaussian_windows_agree_closely():
    # documented cross-check between the two window choices
    images = make_synthetic_digits(20, seed=5).images
    noisy = add_gaussian_noise(images, NoiseSpec(0.5, seed=6))
    gauss = mean_ssim(noisy, images, SsimConfig(window="gaussian11"))
    uniform = mean_ssim(noisy, images, SsimConfig(window="uniform8"))
    assert abs(gauss - uniform) < 0.02


def test_ssim_shape_and_window_validation():
    with pytest.raises(ValueError):
        ssim(np.zeros((28, 28)), np.zeros((27, 28)))
    with pytest.raises(ValueError):
        ssim(np.zeros((7, 7)), np.zeros((7, 7)))  # no window fits
    with pytest.raises(ValueError):
        ssim(np.zeros((28, 28)), np.zeros((28, 28)), SsimConfig(window="box3"))


def test_the_default_window_is_the_one_ssim_config_for_picks():
    rng = np.random.default_rng(12)
    small, large = rng.random((3, 1, 8, 8)), rng.random((3, 1, 28, 28))
    assert mean_ssim(small, small * 0.9) == mean_ssim(small, small * 0.9, SsimConfig("uniform8"))
    assert ssim(small[0], small[0] * 0.9) == ssim(small[0], small[0] * 0.9, SsimConfig("uniform8"))
    assert mean_ssim(large, large * 0.9) == mean_ssim(large, large * 0.9, SsimConfig())


def test_ssim_config_for_refuses_an_image_no_window_fits():
    assert ssim_config_for((8, 8)) == SsimConfig(window="uniform8")
    with pytest.raises(ValueError, match=r"no ssim window fits an image of shape \(1, 7, 7\)"):
        ssim_config_for((1, 7, 7))


def test_ssim_accepts_channel_leading_images():
    rng = np.random.default_rng(7)
    a = rng.random((1, 28, 28))
    assert abs(ssim(a, a) - 1.0) < 1e-12


def test_ssim_is_mean_ssim_of_a_one_image_stack():
    rng = np.random.default_rng(8)
    a, b = rng.random((1, 28, 28)), rng.random((1, 28, 28))
    want = mean_ssim(a[None], b[None])
    assert ssim(a, b) == want
    assert ssim(a[0], b[0]) == want
    with pytest.raises(ValueError):
        ssim(np.zeros((2, 28, 28)), np.zeros((2, 28, 28)))
    with pytest.raises(ValueError):
        ssim(np.zeros(28), np.zeros(28))
    with pytest.raises(ValueError, match="shape mismatch"):
        ssim(a, b[0])


def test_mean_ssim_builds_each_band_matrix_once(monkeypatch):
    rng = np.random.default_rng(10)
    a, b = rng.random((100, 1, 28, 28)), rng.random((100, 1, 28, 28))
    first = mean_ssim(a, b)
    built = []
    real_band = metrics.band
    monkeypatch.setattr(metrics, "band", lambda *args: built.append(args) or real_band(*args))
    assert mean_ssim(a, b) == first
    assert built == []


# ----------------------------------------------------------------- CSV

def test_write_csv_single_record(tmp_path):
    path = tmp_path / "curve.csv"
    write_csv([RunRecord(1, 0.25, 0.5, "abc")], path)
    lines = path.read_text().splitlines()
    assert lines == ["config_id,epoch,train_loss,val_ssim", "abc,1,0.250000,0.500000"]


def test_write_csv_is_reproducible(tmp_path):
    records = [RunRecord(e, 0.1 * e, 0.01 * e, "cfg") for e in range(1, 6)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, p1)
    write_csv(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_row_count(tmp_path):
    records = [RunRecord(e, 0.0, 0.0, c) for c in ("one", "two") for e in range(1, 51)]
    path = tmp_path / "grid.csv"
    write_csv(records, path)
    assert len(path.read_text().splitlines()) == 101


def test_write_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "never.csv")
