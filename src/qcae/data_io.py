"""Dataset handling: IDX parsing and writing, class filtering, Gaussian
pixel noise, PGM export, and a deterministic synthetic digit corpus for
machines without the real files, blurred with metrics' Gaussian taps.

IDX is the big-endian MNIST container, read and written by one path for both
files: a u32 magic, u32 dims, then exactly prod(dims) uint8 bytes. Images
carry magic 0x00000803 and dims (count, rows, cols), labels 0x00000801 and
(count,). Pixels are scaled to [0, 1] on load.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import band, gaussian_taps

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxParseError(ValueError):
    """Malformed IDX payload; the message names the offending byte offset."""


@dataclass
class MnistSet:
    """Images (N, 1, H, W) scaled to [0, 1] plus integer labels (N,)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian pixel noise; sigma 0 reproduces the input exactly."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < float("inf"):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def _read_idx(path, magic: int, n_dims: int):
    """(dims, uint8 payload view) of an IDX file with the expected magic and length."""
    data = Path(path).read_bytes()
    offset = 4 * (1 + n_dims)
    if len(data) < offset:
        raise IdxParseError(f"{path}: truncated header, file ends at offset {len(data)} "
                            f"(need {offset})")
    found, *dims = struct.unpack_from(f">{1 + n_dims}I", data)
    if found != magic:
        raise IdxParseError(f"{path}: bad magic 0x{found:08x} at offset 0 "
                            f"(expected 0x{magic:08x})")
    size = math.prod(dims)  # exact: a numpy product of uint32 dims can wrap
    if len(data) != offset + size:
        raise IdxParseError(f"{path}: payload of {size} bytes expected at offset {offset}, "
                            f"file ends at offset {len(data)}")
    return dims, np.frombuffer(data, dtype=np.uint8, offset=offset)


def load_idx(images_path, labels_path) -> MnistSet:
    """Parse an images/labels IDX pair into a checked, [0, 1]-scaled set."""
    (count, rows, cols), pixels = _read_idx(images_path, IMAGE_MAGIC, 3)
    (lbl_count,), labels = _read_idx(labels_path, LABEL_MAGIC, 1)
    if lbl_count != count:
        raise IdxParseError(f"count mismatch: {count} images in {images_path} vs "
                            f"{lbl_count} labels in {labels_path}")
    return MnistSet(pixels.reshape(count, 1, rows, cols) / 255.0, labels.astype(np.int64))


def write_idx(dataset: MnistSet, images_path, labels_path) -> None:
    """Inverse of load_idx; pixel floats are rounded back to uint8. A pixel
    outside [0, 1] (NaN included) or a label that is not an integer in
    0..255 is refused before any file is opened."""
    images, labels = dataset.images, dataset.labels
    for name, values, ok, allowed in (
            ("pixel", images, (images >= 0) & (images <= 1), "[0, 1]"),
            ("label", labels, np.isin(labels, np.arange(256)), "the integers 0..255")):
        if not ok.all():
            raise ValueError(f"{name} {values[~ok][0]} is outside {allowed}, "
                             "which IDX uint8 cannot hold")
    count, rows, cols = len(dataset), images.shape[2], images.shape[3]
    for path, magic, dims, payload in (
            (images_path, IMAGE_MAGIC, (count, rows, cols), np.round(images * 255.0)),
            (labels_path, LABEL_MAGIC, (count,), labels)):
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + len(dims)}I", magic, *dims))
            f.write(payload.astype(np.uint8).tobytes())


def filter_classes(dataset: MnistSet, classes, limit: int | None = None) -> MnistSet:
    """Keep samples whose label is listed, in file order, up to limit.

    Asking for more matches than exist returns everything found and emits a
    warning rather than failing.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("classes must be nonempty")
    mask = np.isin(dataset.labels, classes)
    idx = np.flatnonzero(mask)
    if limit is not None:
        if limit > idx.size:
            warnings.warn(
                f"requested {limit} samples but only {idx.size} match classes {classes}",
                stacklevel=2,
            )
        idx = idx[:limit]
    return MnistSet(dataset.images[idx], dataset.labels[idx])


def add_gaussian_noise(images: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """clamp(x + sigma * g, 0, 1) with g standard normal from the seeded rng."""
    if spec.sigma == 0.0:
        return images.copy()
    # one buffer: x + sigma * g built in place, bit for bit the out-of-place sum
    noisy = np.random.default_rng(spec.seed).standard_normal(images.shape)
    noisy *= spec.sigma
    noisy += images
    return np.clip(noisy, 0.0, 1.0, out=noisy)


def _as_plane(image) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    if image.ndim == 3 and image.shape[0] == 1:
        image = image[0]
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image or (1, H, W), got shape {image.shape}")
    return image


def export_pgm(image, path) -> None:
    """8-bit binary PGM (P5), maxval 255, row-major; pixels clip to [0, 1], NaN is refused."""
    image = _as_plane(image)
    if np.isnan(image).any():
        raise ValueError("pixel nan has no 8-bit PGM value")
    height, width = image.shape
    body = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(body.tobytes())


def montage(images) -> np.ndarray:
    """Equally sized images side by side in one row, one white (1.0) pixel apart."""
    images = [_as_plane(im) for im in images]
    if not images:
        raise ValueError("montage needs at least one image")
    height, width = images[0].shape
    if any(im.shape != (height, width) for im in images):
        raise ValueError("all montage tiles must share one shape")
    gap = np.ones((height, 1))
    return np.hstack([part for im in images for part in (gap, im)][1:])


def _blur(img: np.ndarray) -> np.ndarray:
    """scipy.ndimage.gaussian_filter(img, 0.6) on the last two axes: radius-2 taps after
    a mirrored pad (scipy's "reflect", numpy's "symmetric") folded into the bands."""
    rows, cols = (band(gaussian_taps(0.6, 2), n + 4)
                  @ np.pad(np.eye(n), ((2, 2), (0, 0)), mode="symmetric") for n in img.shape[-2:])
    return rows @ img @ cols.T


def make_synthetic_digits(count: int, classes=(0, 1), seed: int = 0,
                          size: int = 28) -> MnistSet:
    """Deterministic MNIST-shaped stand-in corpus of rendered 0s and 1s.

    Strokes vary in position, radius, thickness, slant and intensity, then
    get a light blur for an antialiased look. Only classes 0 and 1 exist;
    use it when the real IDX files are unavailable.
    """
    classes = tuple(classes)
    if not classes or any(c not in (0, 1) for c in classes):
        raise ValueError("synthetic corpus only provides classes 0 and 1")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    images = np.zeros((count, 1, size, size))
    labels = np.zeros(count, dtype=np.int64)
    for i in range(count):
        label = classes[rng.integers(len(classes))]
        cx = size / 2 - 0.5 + rng.uniform(-2.0, 2.0)
        cy = size / 2 - 0.5 + rng.uniform(-2.0, 2.0)
        if label == 0:
            rad_x = rng.uniform(5.0, 7.5)
            rad_y = rng.uniform(7.0, 9.5)
            thickness = rng.uniform(0.14, 0.22)
            r = np.sqrt(((xx - cx) / rad_x) ** 2 + ((yy - cy) / rad_y) ** 2)
            img = np.exp(-((r - 1.0) / thickness) ** 2)
        else:
            slant = rng.uniform(-0.18, 0.18)
            half_width = rng.uniform(0.9, 1.6)
            half_len = rng.uniform(8.0, 10.0)
            dist = np.abs(xx - (cx + slant * (yy - cy)))
            img = np.exp(-((dist / half_width) ** 2))
            img *= np.exp(-np.maximum(np.abs(yy - cy) - half_len, 0.0) ** 2)
        images[i, 0] = img * rng.uniform(0.85, 1.0)
        labels[i] = label
    return MnistSet(np.clip(_blur(images), 0.0, 1.0), labels)
