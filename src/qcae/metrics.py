"""Structural similarity and the per-epoch run record.

mean_ssim averages, over image pairs, the windowed form ((2*mu_a*mu_b + C1)
(2*cov + C2)) / ((mu_a^2 + mu_b^2 + C1)(var_a + var_b + C2)) over valid window
positions, with biased (weighted-sum) variance estimates. A window is named:
the canonical 11x11 Gaussian with sigma 1.5, "gaussian11", or on an image too
small for it (or as a cross-check) the 8x8 uniform "uniform8"; ssim_config_for
picks it from the image shape unless one is given. Pixels are assumed in
[0, 1], so the dynamic range is 1. Each band matrix is built once.
gaussian_taps and band also build data_io's corpus blur.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

C1, C2 = 0.01 ** 2, 0.03 ** 2  # (k1 * range)**2, (k2 * range)**2 with range 1
EVAL_BLOCK = 32  # most images per block of mean_ssim and DenoisingAutoencoder.denoise


@dataclass(frozen=True)
class RunRecord:
    """One training epoch's outcome, as persisted to CSV."""

    epoch: int
    train_loss: float
    val_ssim: float


def gaussian_taps(sigma: float, radius: int) -> np.ndarray:
    """Normalised 1-D Gaussian taps exp(-d^2 / (2 sigma^2)) at d = -radius..radius."""
    taps = np.exp(-np.arange(-radius, radius + 1.0) ** 2 / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _window_taps(window: str) -> np.ndarray:
    """1-D taps of the separable window: its 2-D weights are outer(taps, taps)."""
    if window == "gaussian11":
        return gaussian_taps(1.5, 5)
    if window == "uniform8":
        return np.full(8, 1.0 / 8)
    raise ValueError(f"unknown ssim window {window!r}")


def band(taps: np.ndarray, size: int) -> np.ndarray:
    """(size - k + 1, size) matrix whose row i holds the k taps at columns i..i+k-1."""
    valid = size - taps.size + 1
    return sum(t * np.eye(valid, size, u) for u, t in enumerate(taps))


@cache
def _bands(window: str, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only band(taps, height) and band(taps, width) of the window."""
    taps = _window_taps(window)
    if min(height, width) < taps.size:
        raise ValueError(f"image {(height, width)} smaller than ssim window {taps.size}")
    bands = band(taps, height), band(taps, width)
    for matrix in bands:
        matrix.setflags(write=False)
    return bands


def _ssim_per_image(a: np.ndarray, b: np.ndarray, window: str) -> np.ndarray:
    """SSIM of each image pair in two (N, H, W) stacks; all five local means of
    all images are one product R @ [a, b, a*a, b*b, a*b] @ C.T of banded taps."""
    rows, cols = _bands(window, *a.shape[-2:])
    stack = np.empty((5, *a.shape))
    stack[0], stack[1] = a, b
    np.multiply(a, a, out=stack[2])
    np.multiply(b, b, out=stack[3])
    np.multiply(a, b, out=stack[4])
    mu_a, mu_b, aa, bb, ab = rows @ stack @ cols.T
    var_a = aa - mu_a * mu_a
    var_b = bb - mu_b * mu_b
    cov = ab - mu_a * mu_b
    s_map = ((2 * mu_a * mu_b + C1) * (2 * cov + C2)) / (
        (mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2)
    )
    return s_map.mean(axis=(-2, -1))


def eval_blocks(count: int) -> list[slice]:
    """Cut range(count) into the fewest blocks of at most EVAL_BLOCK, of
    near-equal size: a short tail block would pay every layer's per-call
    cost for a few images."""
    n_blocks = -(-count // EVAL_BLOCK)
    edges = [count * i // n_blocks for i in range(1, n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip([0] + edges, edges)]


def ssim_config_for(image_shape) -> str:
    """The default window "gaussian11", or "uniform8" when 11x11 does not fit."""
    height, width = image_shape[-2], image_shape[-1]
    if min(height, width) >= 11:
        return "gaussian11"
    if min(height, width) >= 8:
        return "uniform8"
    raise ValueError(f"no ssim window fits an image of shape {image_shape}")


def mean_ssim(batch_a, batch_b, window: str | None = None) -> float:
    """Mean of per-image SSIM over two equally long (N, H, W) or (N, 1, H, W)
    stacks, scored over the blocks of eval_blocks so memory does not grow with N.
    window defaults to ssim_config_for the images' shape."""
    batch_a, batch_b = np.asarray(batch_a, dtype=float), np.asarray(batch_b, dtype=float)
    if batch_a.shape != batch_b.shape:
        raise ValueError(f"shape mismatch: {batch_a.shape} vs {batch_b.shape}")
    if batch_a.ndim == 4 and batch_a.shape[1] == 1:
        batch_a, batch_b = batch_a[:, 0], batch_b[:, 0]
    if batch_a.ndim != 3:
        raise ValueError(f"expected a stack of images, got shape {batch_a.shape}")
    if len(batch_a) == 0:
        raise ValueError("mean_ssim needs at least one image pair, got an empty stack")
    window = ssim_config_for(batch_a.shape) if window is None else window
    per_image = np.empty(len(batch_a))
    for block in eval_blocks(len(batch_a)):
        per_image[block] = _ssim_per_image(batch_a[block], batch_b[block], window)
    return float(per_image.mean())
