import numpy as np
import pytest
from hypothesis import given, strategies as st

from spadmark import FeatureConfig, challenge_matrix, downsample, feature_images, features
from spadmark.verifier import challenge_grid, image_challenge
from conftest import FUZZ, traced_peak_bytes

ALL_LEVELS = np.arange(256, dtype=np.uint8).reshape(1, 256)


def band_oracle(value: int, L: int = 8) -> int:
    """Independent band rule: 1-indexed, upper-inclusive bands of width 256/L."""
    width = 256 // L
    return min(max(-(-max(value, 1) // width), 1), L)  # ceil division


def _memberships(cfg: FeatureConfig) -> np.ndarray:
    # (L, 256) membership table over every intensity
    return feature_images(ALL_LEVELS, cfg)[:, 0, :]


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(overlap=-1)
    with pytest.raises(ValueError):
        FeatureConfig(overlap=32)
    with pytest.raises(ValueError):
        FeatureConfig(overlap=float("nan"))


def test_single_mode_matches_band_oracle():
    planes = _memberships(FeatureConfig())
    for value in range(256):
        active = np.nonzero(planes[:, value])[0]
        assert active.size == 1
        assert active[0] + 1 == band_oracle(value)


def test_challenge_grid_shifts_oracle_input():
    # every level as one constant 2x2 block of a 16x16 grid
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    img = np.repeat(np.repeat(levels, 2, axis=0), 2, axis=1)
    assert np.array_equal(challenge_grid(img, 16), levels & 0xFE)
    addrs = image_challenge(img, FeatureConfig(), 16).ravel()
    for value in range(256):
        assert addrs[value] == 0x80 >> (band_oracle(value & 0xFE) - 1)


def test_band_edge_examples():
    planes = _memberships(FeatureConfig())
    assert np.array_equal(np.nonzero(planes[:, 0])[0], [0])      # plane 1 only
    assert np.array_equal(np.nonzero(planes[:, 32])[0], [0])     # boundary inclusive
    assert np.array_equal(np.nonzero(planes[:, 33])[0], [1])
    assert np.array_equal(np.nonzero(planes[:, 255])[0], [7])    # plane 8


def test_double_mode_overlap_examples():
    planes = _memberships(FeatureConfig(overlap=6))
    assert np.array_equal(np.nonzero(planes[:, 30])[0], [0, 1])  # |30-32| <= 3
    assert np.array_equal(np.nonzero(planes[:, 35])[0], [0, 1])
    assert np.array_equal(np.nonzero(planes[:, 36])[0], [1])
    assert np.array_equal(np.nonzero(planes[:, 28])[0], [0])


def test_popcount_invariants():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (40, 56)).astype(np.uint8)
    single = feature_images(img, FeatureConfig()).sum(axis=0)
    assert np.all(single == 1)
    double = feature_images(img, FeatureConfig(overlap=12)).sum(axis=0)
    assert np.all((double >= 1) & (double <= 2))


def test_lsb_plane_is_ignored_when_masked():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    scrambled = (img & 0xFE) | rng.integers(0, 2, img.shape).astype(np.uint8)
    cfg = FeatureConfig()
    for grid_dim in (32, 16):
        assert np.array_equal(challenge_grid(img, grid_dim),
                              challenge_grid(scrambled, grid_dim))
        assert np.array_equal(image_challenge(img, cfg, grid_dim),
                              image_challenge(scrambled, cfg, grid_dim))
    assert not np.array_equal(feature_images(img, cfg),
                              feature_images(scrambled, cfg))


def test_challenge_grid_clears_lsb_before_and_after_the_mean():
    # 2x2 blocks of 33 and 35: cleared to 32 and 34, mean 33, cleared to 32
    # (band 1). Without the first clear the mean is 34, without the second
    # it stays 33: band 2 either way.
    img = np.tile(np.array([[33, 35], [35, 33]], dtype=np.uint8), (4, 4))
    assert np.all(challenge_grid(img, 4) == 32)
    assert np.all(image_challenge(img, FeatureConfig(), 4) == 0x80)


def test_small_changes_touch_few_planes():
    # moving a value by less than (band width - overlap) alters at most two
    # planes; staying inside one overlap zone alters at most one
    for overlap in (0, 6, 12):
        cfg = FeatureConfig(overlap=overlap)
        table = _memberships(cfg)
        limit = 32 - overlap
        for a in range(256):
            for b in range(a + 1, min(a + limit, 256)):
                changed = int(np.sum(table[:, a] != table[:, b]))
                assert changed <= 2, (overlap, a, b)
        if overlap:
            half = overlap / 2
            for t in range(32, 256, 32):
                zone = [v for v in range(256) if abs(v - t) <= half]
                for a in zone:
                    for b in zone:
                        assert np.sum(table[:, a] != table[:, b]) <= 1


def test_downsample_examples():
    constant = np.full((64, 64), 77, dtype=np.uint8)
    assert np.all(downsample(constant, 16) == 77)
    tile = np.array([[0, 0], [0, 4]], dtype=np.uint8)
    assert downsample(tile, 1)[0, 0] == 1                 # mean 1.0, truncated
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert np.array_equal(downsample(img, 8), img)        # identity
    with pytest.raises(ValueError):
        downsample(np.zeros((10, 10), dtype=np.uint8), 3)


def test_downsample_truncates_toward_zero():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (48, 48)).astype(np.uint8)
    out = downsample(img, 16)
    blocks = img.reshape(16, 3, 16, 3).astype(np.int64)
    assert np.array_equal(out, blocks.sum(axis=(1, 3)) // 9)


def _reference_downsample(img, grid_dim):
    h, w = img.shape
    bh, bw = h // grid_dim, w // grid_dim
    sums = img.reshape(grid_dim, bh, grid_dim, bw).sum(axis=(1, 3), dtype=np.int64)
    return sums // (bh * bw)


@FUZZ
@given(grid_dim=st.integers(1, 12), bh=st.integers(1, 6), bw=st.integers(1, 6),
       strip=st.integers(1, 1000), seed=st.integers(0, 2 ** 32 - 1))
def test_downsample_strips_match_reference(monkeypatch, grid_dim, bh, bw, strip, seed):
    # non-square hosts and blocks; strips of any number of block-rows,
    # k = strip // (bh * w) dividing the grid side or not
    monkeypatch.setattr(features, "STRIP_PIXELS", strip)
    img = np.random.default_rng(seed).integers(
        0, 256, (grid_dim * bh, grid_dim * bw), dtype=np.uint8)
    assert np.array_equal(downsample(img, grid_dim), _reference_downsample(img, grid_dim))


@pytest.mark.parametrize("strip", [1, 3 * 4 * 35, 2 * 4 * 35 + 1, 10 ** 9])
def test_downsample_short_last_strip(monkeypatch, strip):
    # a 28x35 host on a 7x7 grid (4x5 blocks): one block-row per strip,
    # strips of 3 or 2 block-rows with a short last one, and one strip
    monkeypatch.setattr(features, "STRIP_PIXELS", strip)
    img = np.random.default_rng(11).integers(0, 256, (28, 35), dtype=np.uint8)
    assert np.array_equal(downsample(img, 7), _reference_downsample(img, 7))
    assert np.array_equal(downsample(img.T, 7), _reference_downsample(img.T.copy(), 7))
    assert np.array_equal(downsample(img.astype(np.int64), 7), _reference_downsample(img, 7))


def test_downsample_row_sums_widen_past_uint32():
    # 16843010 rows of 255 in one block: the block's row sum, 255 * 16843010,
    # is 2**32 + 254, which a uint32 accumulator would wrap to 254
    column = np.full((16843010, 1), 255, dtype=np.uint8)
    assert downsample(column, 1)[0, 0] == 255


def test_downsample_streams_in_place():
    img = np.random.default_rng(12).integers(0, 256, (2048, 2048), dtype=np.uint8)
    # a strip-sized row buffer and the block sums, not a copy of the host
    assert traced_peak_bytes(lambda: downsample(img, 64)) / img.size < 0.1


def test_challenge_matrix_band_nibbles():
    cfg = FeatureConfig()
    values = np.array([[16, 255, 140, 100]], dtype=np.uint8)  # bands 1, 8, 5, 4
    img = np.repeat(values, 4, axis=0)
    addrs = challenge_matrix(img, cfg)
    assert addrs.shape == (4, 4) and addrs.dtype == np.uint8
    assert addrs[0, 0] == 0x80   # band 1 -> row MSB
    assert addrs[0, 1] == 0x01   # band 8 -> col LSB
    assert addrs[0, 2] == 0x08   # band 5 -> col MSB
    assert addrs[0, 3] == 0x10   # band 4 -> row LSB


def test_challenge_matrix_double_threshold_cell():
    cfg = FeatureConfig(overlap=6)
    img = np.full((2, 2), 126, dtype=np.uint8)  # |126-128| <= 3: bands 4 and 5
    addrs = challenge_matrix(img, cfg)
    assert addrs[0, 0] == 0x18
    rng = np.random.default_rng(11)
    grid = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    assert np.array_equal(challenge_matrix(grid, cfg),
                          np.packbits(feature_images(grid, cfg), axis=0)[0])


def test_challenge_matrix_rejects_non_uint8_grid():
    # an int64 -1 would index the table's last entry, level 255
    with pytest.raises(ValueError, match="uint8"):
        challenge_matrix(np.array([[-1, 0], [0, 0]], dtype=np.int64), FeatureConfig())


OVERLAPS = st.one_of(st.just(0.0), st.integers(0, 31).map(float),
                     st.floats(0, 32, exclude_max=True, allow_nan=False))


@FUZZ
@given(shape=st.sampled_from([(1, 1), (5, 7), (16, 16), (3, 4, 4), (2, 1, 9)]),
       overlap=OVERLAPS, seed=st.integers(0, 2 ** 32 - 1))
def test_challenge_matrix_equals_packed_planes(shape, overlap, seed):
    # the lookup table against the nested-signum planes, cell by cell; a
    # 3-D stack is compared slice by slice
    cfg = FeatureConfig(overlap=overlap)
    grid = np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)
    addrs = challenge_matrix(grid, cfg)
    assert addrs.shape == grid.shape and addrs.dtype == np.uint8
    for layer, out in zip(grid.reshape((-1,) + shape[-2:]), addrs.reshape((-1,) + shape[-2:])):
        assert np.array_equal(out, np.packbits(feature_images(layer, cfg), axis=0)[0])


def test_feature_images_rejects_bad_input():
    with pytest.raises(ValueError):
        feature_images(np.zeros((2, 2, 2), dtype=np.uint8), FeatureConfig())
    with pytest.raises(ValueError):
        feature_images(np.array([[300, 0]]), FeatureConfig())
    with pytest.raises(ValueError):
        feature_images(np.array([[0.5, 1.0]]), FeatureConfig())
