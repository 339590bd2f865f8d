import json
import math
import warnings
from contextlib import suppress
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given

from spadmark import (AcquisitionConfig, ChipParams, acquire_dcm, dcr_map,
                      load_chip, new_chip, save_chip)
from conftest import FUZZ, fuzzed_json


def test_params_validation():
    with pytest.raises(ValueError):
        ChipParams(array_dim=1)
    with pytest.raises(ValueError):
        ChipParams(dcr_median=0)
    with pytest.raises(ValueError):
        ChipParams(dcr_sigma=-0.1)
    with pytest.raises(ValueError):
        ChipParams(doubling_temp_mean=0)
    with pytest.raises(ValueError):
        ChipParams(doubling_temp_jitter=-1)
    with pytest.raises(ValueError):
        ChipParams(gate_voltage=1.5)
    with pytest.raises(ValueError):
        ChipParams(array_dim=2.5)
    with pytest.raises(ValueError):
        ChipParams(ref_temp="hot")


def test_acquisition_validation():
    with pytest.raises(ValueError):
        AcquisitionConfig(exposure=-0.1)
    with pytest.raises(ValueError):
        AcquisitionConfig(n_frames=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_float_fields_must_be_finite(value):
    for name in ("dcr_median", "dcr_sigma", "doubling_temp_mean",
                 "doubling_temp_jitter", "ref_temp", "gate_voltage"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            ChipParams(**{name: value})
    for name in ("temperature", "exposure"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            AcquisitionConfig(**{name: value})


def test_new_chip_deterministic():
    a = new_chip("c", 1)
    b = new_chip("c", 1)
    assert np.array_equal(a.dcr_ref, b.dcr_ref)
    assert np.array_equal(a.doubling_temp, b.doubling_temp)


def test_new_chip_seeds_differ():
    a = new_chip("a", 1)
    b = new_chip("b", 2)
    assert not np.array_equal(a.dcr_ref, b.dcr_ref)


def test_zero_sigma_gives_flat_field():
    chip = new_chip("flat", 3, ChipParams(dcr_sigma=0.0))
    assert np.all(chip.dcr_ref == 100.0)


def test_chip_fields_positive():
    chip = new_chip("c", 7)
    assert np.all(chip.dcr_ref > 0)
    assert np.all(chip.doubling_temp > 0)
    assert np.all(chip.doubling_temp >= 0.5 * chip.params.doubling_temp_mean)


def test_dcr_field_median_and_spread():
    chip = new_chip("c", 11, ChipParams(array_dim=64))
    logs = np.log10(chip.dcr_ref / 100.0)
    assert abs(np.median(logs)) < 0.05
    assert abs(logs.std() - 1.0) < 0.05


def test_dcr_map_reference_and_doubling():
    params = ChipParams(dcr_sigma=0.0, doubling_temp_jitter=0.0)
    chip = new_chip("c", 1, params)
    assert dcr_map(chip, 25.0)[0, 0] == pytest.approx(100.0)
    assert dcr_map(chip, 33.0)[10, 20] == pytest.approx(200.0)
    assert dcr_map(chip, 17.0)[10, 20] == pytest.approx(50.0)


def test_dcr_monotone_in_temperature():
    chip = new_chip("c", 5)
    temps = [0.0, 20.0, 25.0, 40.0, 60.0, 80.0]
    for row, col in [(0, 0), (13, 50), (63, 63)]:
        rates = [dcr_map(chip, t)[row, col] for t in temps]
        assert all(a < b for a, b in zip(rates, rates[1:]))


def test_zero_jitter_preserves_pixel_ordering():
    chip = new_chip("c", 5, ChipParams(doubling_temp_jitter=0.0))
    order_ref = np.argsort(dcr_map(chip, 25.0), axis=None)
    for t in (0.0, 50.0, 80.0):
        assert np.array_equal(np.argsort(dcr_map(chip, t), axis=None), order_ref)


def test_acquire_zero_exposure_is_dark():
    chip = new_chip("c", 1)
    counts = acquire_dcm(chip, AcquisitionConfig(exposure=0.0, n_frames=3, rng_seed=1))
    assert counts.shape == (64, 64) and counts.dtype == np.int64
    assert np.all(counts == 0)


def test_acquire_rejects_counts_past_int64():
    # flat 100 cps chip: 5e18 counts a frame is drawable, but two frames'
    # int64 sum, 1e19, wrapped negative without a word
    chip = new_chip("flat", 9, ChipParams(dcr_sigma=0.0))
    one = acquire_dcm(chip, AcquisitionConfig(exposure=5e16, n_frames=1, rng_seed=1))
    assert np.all(one > 0)
    with pytest.raises(ValueError, match="^exposure 5e[+]16 s at temperature 25 C .* 2 frames"):
        acquire_dcm(chip, AcquisitionConfig(exposure=5e16, n_frames=2, rng_seed=1))


def test_huge_jitter_clamps_without_warning():
    # mean + jitter * smooth overflows to +-inf: -inf is clamped to half the
    # mean, and an infinite doubling temperature only freezes that pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chip = new_chip("c", 3, ChipParams(doubling_temp_jitter=1e308))
    assert np.all(chip.doubling_temp >= 4.0)


def test_load_chip_names_file_of_undrawable_rates(tmp_path):
    path = tmp_path / "c.chip.json"
    path.write_text(json.dumps({"chip_id": "c", "seed": 3, "params": {"dcr_sigma": 400}}))
    with pytest.raises(ValueError, match="c.chip.json: dcr_median 100 and dcr_sigma 400 give"):
        load_chip(path)


def test_acquire_deterministic():
    chip = new_chip("c", 1)
    cfg = AcquisitionConfig(temperature=25.0, exposure=0.1, n_frames=10, rng_seed=42)
    assert np.array_equal(acquire_dcm(chip, cfg), acquire_dcm(chip, cfg))
    other = AcquisitionConfig(temperature=25.0, exposure=0.1, n_frames=10, rng_seed=43)
    assert not np.array_equal(acquire_dcm(chip, cfg), acquire_dcm(chip, other))


def test_acquire_poisson_statistics():
    # flat 100 cps chip, 100 frames of 0.1 s: mean 10 per frame per pixel,
    # sigma of the per-frame mean is sqrt(10/100)
    chip = new_chip("flat", 9, ChipParams(dcr_sigma=0.0))
    cfg = AcquisitionConfig(temperature=25.0, exposure=0.1, n_frames=100, rng_seed=11)
    per_frame = acquire_dcm(chip, cfg) / cfg.n_frames
    sigma = np.sqrt(10.0 / cfg.n_frames)
    for row, col in [(0, 0), (31, 7), (63, 63)]:
        assert abs(per_frame[row, col] - 10.0) < 3 * sigma
    # grand mean over all pixels: 5-sigma band of the array average
    assert abs(per_frame.mean() - 10.0) < 5 * sigma / 64


def test_mean_convergence_against_rate():
    chip = new_chip("c", 21)
    cfg = AcquisitionConfig(temperature=25.0, exposure=0.1, n_frames=100, rng_seed=3)
    counts = acquire_dcm(chip, cfg)
    expected = dcr_map(chip, 25.0) * cfg.exposure * cfg.n_frames
    sigma = np.sqrt(np.maximum(expected, 1e-12))
    within = np.abs(counts - expected) <= 5 * sigma
    assert within.mean() > 0.999


def test_chip_json_round_trip(tmp_path):
    chip = new_chip("alpha", 123, ChipParams(array_dim=16, dcr_sigma=0.7))
    path = save_chip(chip, tmp_path)
    assert path.name == "alpha.chip.json"
    payload = json.loads(path.read_text())
    assert set(payload) == {"chip_id", "seed", "params"}
    loaded = load_chip(path)
    assert loaded.chip_id == chip.chip_id
    assert np.array_equal(loaded.dcr_ref, chip.dcr_ref)
    assert np.array_equal(loaded.doubling_temp, chip.doubling_temp)


@FUZZ
@given(raw=fuzzed_json({"chip_id": "c", "seed": 1, "params": asdict(ChipParams(array_dim=4))}))
def test_load_chip_returns_or_raises_value_error(tmp_path, raw):
    path = tmp_path / "c.chip.json"
    path.write_bytes(raw)
    with suppress(ValueError):
        load_chip(path)
