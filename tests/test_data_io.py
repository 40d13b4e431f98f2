"""IDX parsing and round trips, filtering, noise, PGM, synthetic corpus."""
import struct

import numpy as np
import pytest

from qcae.data_io import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxParseError,
    MnistSet,
    NoiseSpec,
    add_gaussian_noise,
    export_pgm,
    filter_classes,
    load_idx,
    make_synthetic_digits,
    montage,
    write_idx,
)
from qcae.data_io import _blur


def small_set(count=12, seed=0) -> MnistSet:
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, 1, 28, 28)).astype(np.float64) / 255.0
    labels = rng.integers(0, 10, size=count).astype(np.int64)
    return MnistSet(images, labels)


def write_pair(tmp_path, dataset, stem="set"):
    images_path = tmp_path / f"{stem}-images-idx3-ubyte"
    labels_path = tmp_path / f"{stem}-labels-idx1-ubyte"
    write_idx(dataset, images_path, labels_path)
    return images_path, labels_path


# ----------------------------------------------------------------- IDX

# per file: its index in write_pair's pair, its magic, its header length,
# its payload length at small_set's 12 images
IDX_LAYOUT = {"images": (0, IMAGE_MAGIC, 16, 12 * 784), "labels": (1, LABEL_MAGIC, 8, 12)}


def test_idx_round_trip_is_byte_exact(tmp_path):
    for count in (0, 12):
        original = small_set(count)
        paths = write_pair(tmp_path, original, stem=f"set{count}")
        reloaded = load_idx(*paths)
        second = write_pair(tmp_path, reloaded, stem=f"again{count}")
        assert paths[0].read_bytes()[16:] == second[0].read_bytes()[16:]
        assert paths[0].read_bytes()[:16] == struct.pack(">4I", IMAGE_MAGIC, count, 28, 28)
        assert paths[1].read_bytes()[:8] == struct.pack(">2I", LABEL_MAGIC, count)
        for first, again in zip(paths, second):  # whole files, headers included
            assert first.read_bytes() == again.read_bytes()
        assert (reloaded.images.dtype, reloaded.labels.dtype) == (np.float64, np.int64)
        assert np.array_equal(original.labels, reloaded.labels)
        assert np.array_equal(np.round(original.images * 255),
                              np.round(reloaded.images * 255))


@pytest.mark.parametrize("which", IDX_LAYOUT)
def test_idx_bad_magic_names_offset(tmp_path, which):
    paths = write_pair(tmp_path, small_set())
    index, magic, _, _ = IDX_LAYOUT[which]
    data = bytearray(paths[index].read_bytes())
    data[0:4] = struct.pack(">I", 0xDEADBEEF)
    paths[index].write_bytes(bytes(data))
    with pytest.raises(IdxParseError, match="offset 0") as info:
        load_idx(*paths)
    assert str(info.value) == (f"{paths[index]}: bad magic 0xdeadbeef at offset 0 "
                               f"(expected 0x{magic:08x})")


def test_idx_truncated_payload_names_offset(tmp_path):
    images_path, labels_path = write_pair(tmp_path, small_set())
    data = images_path.read_bytes()
    images_path.write_bytes(data[:-10])
    with pytest.raises(IdxParseError, match="offset"):
        load_idx(images_path, labels_path)


@pytest.mark.parametrize("which", IDX_LAYOUT)
def test_idx_trailing_byte_names_offset(tmp_path, which):
    paths = write_pair(tmp_path, small_set())
    index, _, header, payload = IDX_LAYOUT[which]
    paths[index].write_bytes(paths[index].read_bytes() + b"\x00")
    with pytest.raises(IdxParseError) as info:
        load_idx(*paths)
    assert str(info.value) == (f"{paths[index]}: payload of {payload} bytes expected at "
                               f"offset {header}, file ends at offset {header + payload + 1}")


@pytest.mark.parametrize("which", IDX_LAYOUT)
def test_idx_truncated_header(tmp_path, which):
    paths = write_pair(tmp_path, small_set())
    index, _, header, _ = IDX_LAYOUT[which]
    paths[index].write_bytes(b"\x00\x00")
    with pytest.raises(IdxParseError, match="header") as info:
        load_idx(*paths)
    assert str(info.value) == (f"{paths[index]}: truncated header, file ends at offset 2 "
                               f"(need {header})")


def test_idx_label_count_mismatch(tmp_path):
    images_path, labels_path = write_pair(tmp_path, small_set())
    labels = labels_path.read_bytes()
    shorter = struct.pack(">II", LABEL_MAGIC, 5) + labels[8:13]
    labels_path.write_bytes(shorter)
    with pytest.raises(IdxParseError, match="mismatch"):
        load_idx(images_path, labels_path)


def test_idx_short_label_payload_names_offset(tmp_path):
    images_path, labels_path = write_pair(tmp_path, small_set())
    labels_path.write_bytes(labels_path.read_bytes()[:-3])
    with pytest.raises(IdxParseError, match="payload of 12 bytes expected at offset 8, "
                                            "file ends at offset 17"):
        load_idx(images_path, labels_path)


@pytest.mark.parametrize("field, name, value", [
    ("images", "pixel", 1.5), ("images", "pixel", -0.2), ("images", "pixel", np.nan),
    ("labels", "label", 300), ("labels", "label", -1), ("labels", "label", 2.5)])
def test_write_idx_refuses_a_value_uint8_cannot_hold(tmp_path, field, name, value):
    # uint8 would wrap it: pixel 1.5 read back as 0.494, -0.2 as 0.804, label 300 as 44;
    # it would truncate label 2.5 to 2
    dataset = small_set(3)
    values = getattr(dataset, field)
    values = values.astype(np.result_type(values, value))  # int64 labels cannot hold 2.5
    values.flat[1] = value
    values.flat[-1] = 1000  # a later bad value goes unnamed
    setattr(dataset, field, values)
    with pytest.raises(ValueError, match=f"^{name} {value} is outside"):
        write_pair(tmp_path, dataset)
    assert list(tmp_path.iterdir()) == []  # refused before any file is opened


def test_idx_magic_constants():
    assert IMAGE_MAGIC == 0x00000803
    assert LABEL_MAGIC == 0x00000801


# ------------------------------------------------------------- filtering

def test_filter_keeps_order_and_limit():
    dataset = MnistSet(
        np.arange(6, dtype=float).reshape(6, 1, 1, 1) / 10.0,
        np.array([7, 0, 7, 1, 7, 7]),
    )
    out = filter_classes(dataset, [7], limit=1)
    assert len(out) == 1
    assert out.images[0, 0, 0, 0] == 0.0  # the first 7 in file order
    out = filter_classes(dataset, [0, 1])
    assert list(out.labels) == [0, 1]


def test_filter_is_idempotent():
    dataset = small_set(40, seed=3)
    once = filter_classes(dataset, [0, 1])
    twice = filter_classes(once, [0, 1])
    assert np.array_equal(once.labels, twice.labels)
    assert np.array_equal(once.images, twice.images)


def test_filter_warns_when_limit_exceeds_matches():
    dataset = MnistSet(np.zeros((3, 1, 2, 2)), np.array([4, 4, 5]))
    with pytest.warns(UserWarning, match="only 2 match"):
        out = filter_classes(dataset, [4], limit=10)
    assert len(out) == 2


def test_filter_rejects_empty_class_list():
    with pytest.raises(ValueError):
        filter_classes(small_set(), [])


# ----------------------------------------------------------------- noise

def test_sigma_zero_is_exact_copy():
    images = small_set().images
    out = add_gaussian_noise(images, NoiseSpec(0.0, seed=1))
    assert np.array_equal(out, images)
    assert out is not images


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_noise_spec_refuses_negative_and_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        NoiseSpec(sigma)


def test_noise_is_deterministic_per_seed():
    images = small_set().images
    a = add_gaussian_noise(images, NoiseSpec(0.5, seed=2))
    b = add_gaussian_noise(images, NoiseSpec(0.5, seed=2))
    c = add_gaussian_noise(images, NoiseSpec(0.5, seed=3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_empirical_std_matches_sigma():
    # low sigma on mid-gray never clamps: std of (out - in) is sigma itself
    images = np.full((20, 1, 28, 28), 0.5)
    noisy = add_gaussian_noise(images, NoiseSpec(0.1, seed=4))
    delta = noisy - images
    assert delta.size > 10_000
    assert np.all((noisy > 0) & (noisy < 1))
    assert abs(np.std(delta) / 0.1 - 1.0) < 0.05


def test_noise_unclamped_pixels_follow_truncated_normal():
    # at sigma=0.5 a mid-gray pixel survives unclamped only for draws within
    # +-1 sigma, so the surviving deltas follow a truncated normal with
    # std = sigma * sqrt(1 - 2*phi(1) / (2*Phi(1) - 1)) ~= 0.2698
    from scipy.stats import norm

    images = np.full((20, 1, 28, 28), 0.5)
    noisy = add_gaussian_noise(images, NoiseSpec(0.5, seed=4))
    delta = noisy - images
    interior = delta[(noisy > 0) & (noisy < 1)]
    assert interior.size > 10_000
    expected = 0.5 * np.sqrt(1.0 - 2 * norm.pdf(1) / (2 * norm.cdf(1) - 1))
    assert abs(np.std(interior) / expected - 1.0) < 0.05


def test_noise_stays_clamped_and_clamping_grows_with_sigma():
    images = make_synthetic_digits(10, seed=5).images
    clamped_fractions = []
    for i, sigma in enumerate((0.25, 0.5, 0.75, 1.0)):
        noisy = add_gaussian_noise(images, NoiseSpec(sigma, seed=6))
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0
        clamped_fractions.append(np.mean((noisy == 0.0) | (noisy == 1.0)))
    assert all(b >= a for a, b in zip(clamped_fractions, clamped_fractions[1:]))


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)


# ------------------------------------------------------------------- PGM

def test_pgm_all_zero_and_all_one(tmp_path):
    zero_path, one_path = tmp_path / "zero.pgm", tmp_path / "one.pgm"
    export_pgm(np.zeros((1, 28, 28)), zero_path)
    export_pgm(np.ones((1, 28, 28)), one_path)
    header = b"P5\n28 28\n255\n"
    assert zero_path.read_bytes() == header + bytes(784)
    assert one_path.read_bytes() == header + b"\xff" * 784


def test_pgm_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(7)
    image = rng.random((1, 28, 28))
    path = tmp_path / "rt.pgm"
    export_pgm(image, path)
    magic, size, maxval, body = path.read_bytes().split(b"\n", 3)
    assert (magic, size, maxval) == (b"P5", b"28 28", b"255")
    back = np.frombuffer(body, dtype=np.uint8).reshape(1, 28, 28) / 255.0
    assert np.max(np.abs(back - image)) <= 1.0 / 255.0


def test_pgm_refuses_a_stack_of_images(tmp_path):
    path = tmp_path / "stack.pgm"
    with pytest.raises(ValueError, match=r"2-D image or \(1, H, W\), got shape \(2, 4, 4\)"):
        export_pgm(np.zeros((2, 4, 4)), path)
    assert not path.exists()


def test_pgm_refuses_a_nan_pixel_and_clips_infinities(tmp_path):
    # a NaN has no uint8 value: numpy's cast of it is undefined
    path = tmp_path / "nan.pgm"
    image = np.zeros((2, 2))
    image[1, 0] = np.nan
    with pytest.raises(ValueError, match="^pixel nan has no 8-bit PGM value$"):
        export_pgm(image, path)
    assert not path.exists()
    export_pgm(np.array([[np.inf, -np.inf]]), path)
    assert path.read_bytes() == b"P5\n2 1\n255\n\xff\x00"


def test_montage_layout():
    tiles = [np.full((1, 4, 4), v) for v in (0.0, 0.5, 1.0)]
    grid = montage(tiles)
    assert grid.shape == (4, 4 * 3 + 2)
    assert np.all(grid[:, :4] == 0.0)
    assert np.all(grid[:, 4] == 1.0)  # gap column
    assert np.all(grid[:, 5:9] == 0.5)


def test_montage_refuses_no_tiles_and_mixed_shapes():
    with pytest.raises(ValueError, match="montage needs at least one image"):
        montage([])
    with pytest.raises(ValueError, match="all montage tiles must share one shape"):
        montage([np.zeros((4, 4)), np.zeros((4, 5))])


# ------------------------------------------------------------- synthetic

def test_synthetic_corpus_is_deterministic_and_bounded():
    a = make_synthetic_digits(30, seed=8)
    b = make_synthetic_digits(30, seed=8)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert a.images.shape == (30, 1, 28, 28)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    assert set(np.unique(a.labels)) <= {0, 1}


def test_synthetic_corpus_has_both_classes_and_distinct_shapes():
    dataset = make_synthetic_digits(60, seed=9)
    zeros = dataset.images[dataset.labels == 0]
    ones = dataset.images[dataset.labels == 1]
    assert len(zeros) > 10 and len(ones) > 10
    # rings have a dark centre, strokes a bright one
    centre = (slice(None), 0, slice(12, 16), slice(12, 16))
    assert zeros[centre].mean() < ones[centre].mean()


@pytest.mark.parametrize("shape", [(28, 28), (8, 8), (9, 14)])
def test_blur_matches_scipy_gaussian_filter(shape):
    # uniform noise keeps the border pixels as large as the rest, so a pad
    # mode other than scipy's "reflect" shows
    from scipy.ndimage import gaussian_filter

    x = np.random.default_rng(sum(shape)).random(shape)
    assert np.max(np.abs(_blur(x) - gaussian_filter(x, sigma=0.6))) <= 1e-15


def test_synthetic_corpus_rejects_other_classes():
    with pytest.raises(ValueError):
        make_synthetic_digits(5, classes=(3,))


def test_mnist_set_count_mismatch_rejected():
    with pytest.raises(ValueError):
        MnistSet(np.zeros((3, 1, 2, 2)), np.zeros(4, dtype=np.int64))
