"""Intensity-band feature planes and challenge-address construction.

Every challenge is built in one sequence: ``verifier.challenge_grid``
clears the host's LSB plane, block-averages to the challenge grid
(``downsample``) and clears the grid's LSB plane; ``feature_images`` then
quantizes each cell into L = 8 binary band planes, and ``challenge_matrix``
packs each cell's 8 planes into one address byte: planes 1-4 form the high
nibble, the row of the relative maps, and planes 5-8 the low nibble, the
column. That (D, D) uint8 array of address bytes is the challenge in every
layer: ``puf.puf_query`` splits each byte into its row and column, and the
watermark payload carries the bytes as they are. Both LSB clears live in
``challenge_grid``, which says why each is needed; the quantizer here sees
every level as it is given.

Plane i is computed with a nested signum expression

    plane_i = sign(sign(256/L * i - I) + 1) - sign(sum of planes 1..i-1)

using sign(0) = 0, which makes each band upper-inclusive: plane 1 covers
[0, 32] and plane 8 covers (224, 255]. An overlap > 0 selects double
thresholds: a pixel within overlap/2 of an internal band boundary is
additionally marked in the neighboring plane, trading edit sensitivity for
noise immunity the way a Schmitt trigger does. The overlap is the one
setting of the quantizer; L and the band width are fixed by the nibble
addressing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTENSITY_RANGE = 256        # 8-bit images only
L = 8                        # band planes: the two nibbles of one address byte
BAND = INTENSITY_RANGE // L  # band width, intensity units

# Pixels per strip of the streamed per-pixel kernels (``downsample`` here,
# ``verifier.psnr``): a strip and its buffers fit in L2, and a 512^2 host
# is one strip. Both read it at call time.
STRIP_PIXELS = 1 << 18


@dataclass(frozen=True)
class FeatureConfig:
    """Quantizer setting: the band overlap (> 0: double thresholds)."""

    overlap: float = 0.0        # total width of the desensitized band, intensity units

    def __post_init__(self) -> None:
        if not 0 <= self.overlap < BAND:     # also rejects NaN
            raise ValueError(f"overlap must be in [0, {BAND}), got {self.overlap}")


def _check_gray(img: np.ndarray) -> np.ndarray:
    pixels = np.asarray(img)
    if pixels.ndim != 2 or pixels.size == 0:
        raise ValueError(f"expected a non-empty 2-D grayscale image, got shape {pixels.shape}")
    if pixels.dtype != np.uint8:
        if not np.issubdtype(pixels.dtype, np.integer):
            raise ValueError(f"expected integer pixels, got dtype {pixels.dtype}")
        if pixels.min() < 0 or pixels.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        pixels = pixels.astype(np.uint8)
    return pixels


def feature_images(img: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Quantize an image into L binary band-membership planes, stacked as a
    (L, height, width) uint8 array."""
    level = _check_gray(img).astype(np.int32)
    planes = np.zeros((L,) + level.shape, dtype=np.uint8)
    assigned = np.zeros_like(level)
    for i in range(1, L + 1):
        above = np.sign(np.sign(BAND * i - level) + 1)
        plane = above - np.sign(assigned)
        planes[i - 1] = plane
        assigned += plane
    if cfg.overlap > 0:
        half = cfg.overlap / 2.0
        for t in range(1, L):
            zone = np.abs(level - BAND * t) <= half
            planes[t - 1][zone] = 1
            planes[t][zone] = 1
    return planes


def downsample(img: np.ndarray, grid_dim: int) -> np.ndarray:
    """Block-mean an image down to grid_dim x grid_dim, truncating toward zero.

    Integer arithmetic throughout, so the result is bit-exact regardless of
    platform. Both image dimensions must be divisible by grid_dim.

    The host is streamed k block-rows at a time, with k * bh * w about
    ``STRIP_PIXELS``, so each strip stays in cache and one row buffer serves
    every strip. A strip's bh pixel rows are first summed along axis 0 into
    uint32, which is exact because bh * 255 < 2**32 (uint64 for taller
    blocks), then each block's bw columns into the int64 block sums.
    """
    pixels = _check_gray(img)
    h, w = pixels.shape
    if grid_dim < 1 or h % grid_dim != 0 or w % grid_dim != 0:
        raise ValueError(
            f"image {h}x{w} not divisible into a {grid_dim}x{grid_dim} grid")
    bh, bw = h // grid_dim, w // grid_dim
    k = min(grid_dim, max(1, STRIP_PIXELS // (bh * w)))
    rows = np.empty((k, w), dtype=np.uint32 if bh * 255 < 2 ** 32 else np.uint64)
    sums = np.empty((grid_dim, grid_dim), dtype=np.int64)
    for top in range(0, grid_dim, k):
        n = min(k, grid_dim - top)
        strip = pixels[top * bh:(top + n) * bh].reshape(n, bh, w)
        np.sum(strip, axis=1, dtype=rows.dtype, out=rows[:n])
        np.sum(rows[:n].reshape(n, grid_dim, bw), axis=2, dtype=np.int64,
               out=sums[top:top + n])
    return (sums // (bh * bw)).astype(np.uint8)


def challenge_matrix(planes: np.ndarray) -> np.ndarray:
    """Pack each cell's 8 planes, plane 1 first, into one address byte.

    The high nibble (planes 1-4) is the map row, the low nibble (planes
    5-8) the map column. Only L = 8 has a defined packing.
    """
    if planes.shape[0] != 8:
        raise ValueError(f"challenge addresses are defined for L = 8 only, got L = {planes.shape[0]}")
    if planes.shape[1] != planes.shape[2]:
        raise ValueError(f"challenge grid must be square, got {planes.shape[1]}x{planes.shape[2]}")
    # the same bytes as np.packbits(planes, axis=0)[0], which is ~15x slower
    weights = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8).reshape(8, 1, 1)
    return (planes * weights).sum(axis=0, dtype=np.uint8)
