"""Intensity-band feature planes and challenge-address construction.

Every challenge is built in one sequence: ``verifier.challenge_grid``
block-averages the host to the challenge grid with its LSB plane cleared
(``downsample``, which masks strip by strip) and clears the grid's LSB
plane; ``challenge_matrix`` then maps each cell's level to one address
byte, its L = 8 ``feature_images`` band planes packed plane 1 first:
planes 1-4 form the high nibble, the row of the relative maps, and planes
5-8 the low nibble, the column. A byte depends on its cell's level alone,
so the 256 levels are quantized once into a lookup table and the planes
never leave this module. That uint8 array of address bytes is the
challenge in every layer: ``puf.puf_query`` splits each byte into its row
and column, two cells share a band when their bytes AND to nonzero, and
the watermark payload carries the bytes. Both LSB clears live in
``challenge_grid``, which says why each is needed.

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


def downsample(img: np.ndarray, grid_dim: int, *, clear_lsb: bool = False) -> np.ndarray:
    """Block-mean an image down to grid_dim x grid_dim, truncating toward zero.

    Integer arithmetic throughout, so the result is bit-exact regardless of
    platform. Both image dimensions must be divisible by grid_dim. With
    ``clear_lsb`` the means are those of ``img & 0xFE``, without a
    full-size copy: each strip is masked into one reused strip buffer.

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
    masked = np.empty((k, bh, w), dtype=np.uint8) if clear_lsb else None
    for top in range(0, grid_dim, k):
        n = min(k, grid_dim - top)
        strip = pixels[top * bh:(top + n) * bh].reshape(n, bh, w)
        if clear_lsb:
            strip = np.bitwise_and(strip, 0xFE, out=masked[:n])
        np.sum(strip, axis=1, dtype=rows.dtype, out=rows[:n])
        np.sum(rows[:n].reshape(n, grid_dim, bw), axis=2, dtype=np.int64,
               out=sums[top:top + n])
    return (sums // (bh * bw)).astype(np.uint8)


def challenge_matrix(grid: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Address bytes of a uint8 grid of levels, of any shape.

    Each byte is a level's 8 ``feature_images`` planes, plane 1 first:
    the high nibble (planes 1-4) is the map row, the low nibble (planes
    5-8) the map column. The 256 levels are quantized once into a table
    that every cell indexes. Other dtypes are rejected, not wrapped.
    """
    grid = np.asarray(grid)
    if grid.dtype != np.uint8:
        raise ValueError(f"challenge grid must be uint8 levels, got dtype {grid.dtype}")
    levels = np.arange(INTENSITY_RANGE, dtype=np.uint8).reshape(1, -1)
    table = np.packbits(feature_images(levels, cfg), axis=0)[0, 0]
    return table[grid]
