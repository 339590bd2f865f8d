import tracemalloc
from contextlib import suppress
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given

from spadmark import (AcquisitionConfig, ChipParams,
                      acquire_dcm, enroll, fingerprint, golden_acquisition,
                      hamming_frac, load_enrollment, load_enrollment_db,
                      new_chip, puf_query, rdcm, save_enrollment)
from spadmark.imager import DarkCountMap
from spadmark.puf import (HORIZONTAL, VERTICAL, EnrollmentRecord, Fingerprint,
                          RelativeDCM, bits_to_hex, hex_to_bits)
from conftest import FUZZ, fuzzed_json


def _dcm(counts, chip_id="t"):
    cfg = AcquisitionConfig(exposure=0.1, n_frames=1, rng_seed=0)
    return DarkCountMap(counts=np.asarray(counts), config=cfg, chip_id=chip_id)


def _record(h_bits, v_bits, chip_id="t"):
    h = RelativeDCM(bits=np.asarray(h_bits, dtype=np.uint8), direction=HORIZONTAL, chip_id=chip_id)
    v = RelativeDCM(bits=np.asarray(v_bits, dtype=np.uint8), direction=VERTICAL, chip_id=chip_id)
    return EnrollmentRecord(chip_id=chip_id, rdcm_h=h, rdcm_v=v,
                            fingerprint=fingerprint(h, v),
                            enrollment_cfg=AcquisitionConfig(rng_seed=0))


def test_rdcm_hand_examples():
    dcm = _dcm([[5, 3], [2, 2]])
    assert np.array_equal(rdcm(dcm, HORIZONTAL).bits, [[1, 0], [0, 0]])
    assert np.array_equal(rdcm(dcm, VERTICAL).bits, [[1, 1], [0, 0]])


def test_rdcm_constant_counts_all_zero():
    dcm = _dcm(np.full((8, 8), 7))
    assert not rdcm(dcm, HORIZONTAL).bits.any()
    assert not rdcm(dcm, VERTICAL).bits.any()


def test_rdcm_input_validation():
    with pytest.raises(ValueError):
        rdcm(_dcm(np.zeros((4, 5), dtype=int)), HORIZONTAL)
    with pytest.raises(ValueError):
        rdcm(_dcm([[1]]), HORIZONTAL)
    with pytest.raises(ValueError):
        rdcm(_dcm([[1, 2], [3, 4]]), "diagonal")


def test_rdcm_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 5000, (32, 32))
    base_h = rdcm(_dcm(counts), HORIZONTAL).bits
    base_v = rdcm(_dcm(counts), VERTICAL).bits
    for transform in (lambda x: x ** 2, lambda x: 3 * x + 7):
        assert np.array_equal(rdcm(_dcm(transform(counts)), HORIZONTAL).bits, base_h)
        assert np.array_equal(rdcm(_dcm(transform(counts)), VERTICAL).bits, base_v)


def test_fingerprint_xor_and_errors():
    dcm = _dcm([[5, 3], [2, 2]])
    h, v = rdcm(dcm, HORIZONTAL), rdcm(dcm, VERTICAL)
    fp = fingerprint(h, v)
    assert np.array_equal(fp.bits, [[0, 1], [0, 0]])
    assert not fingerprint(h, h).bits.any()                      # x ^ x = 0
    zero = RelativeDCM(bits=np.zeros((2, 2), dtype=np.uint8), direction=VERTICAL, chip_id="t")
    assert np.array_equal(fingerprint(h, zero).bits, h.bits)     # identity element
    other = RelativeDCM(bits=v.bits, direction=VERTICAL, chip_id="other")
    with pytest.raises(ValueError):
        fingerprint(h, other)
    small = RelativeDCM(bits=np.zeros((3, 3), dtype=np.uint8), direction=VERTICAL, chip_id="t")
    with pytest.raises(ValueError):
        fingerprint(h, small)


def test_fingerprint_involution():
    rng = np.random.default_rng(9)
    h = RelativeDCM(bits=rng.integers(0, 2, (16, 16), dtype=np.uint8),
                    direction=HORIZONTAL, chip_id="t")
    v = RelativeDCM(bits=rng.integers(0, 2, (16, 16), dtype=np.uint8),
                    direction=VERTICAL, chip_id="t")
    assert np.array_equal(np.bitwise_xor(fingerprint(h, v).bits, v.bits), h.bits)


def test_enroll_zero_exposure_all_zero():
    chip = new_chip("c", 1)
    record = enroll(chip, AcquisitionConfig(exposure=0.0, n_frames=1, rng_seed=0))
    assert not record.rdcm_h.bits.any()
    assert not record.rdcm_v.bits.any()
    assert not record.fingerprint.bits.any()


def test_enroll_repeatability(chips):
    for i, chip in enumerate(chips[:3]):
        r1 = enroll(chip, golden_acquisition(chip, rng_seed=100 + i))
        r2 = enroll(chip, golden_acquisition(chip, rng_seed=900 + i))
        assert hamming_frac(r1.fingerprint.bits, r2.fingerprint.bits) <= 0.02
        assert hamming_frac(r1.rdcm_h.bits, r2.rdcm_h.bits) <= 0.02


def test_enroll_uniqueness(records):
    dists = [hamming_frac(records[i].fingerprint.bits, records[j].fingerprint.bits)
             for i in range(len(records)) for j in range(i + 1, len(records))]
    assert len(dists) >= 10
    assert all(0.45 <= d <= 0.55 for d in dists)


def test_rdcm_uniqueness_across_seeds():
    a = new_chip("a", 1)
    b = new_chip("b", 2)
    ha = rdcm(acquire_dcm(a, golden_acquisition(a, rng_seed=5)), HORIZONTAL)
    hb = rdcm(acquire_dcm(b, golden_acquisition(b, rng_seed=6)), HORIZONTAL)
    assert 0.45 <= hamming_frac(ha.bits, hb.bits) <= 0.55


def test_temperature_stability():
    # flips vs golden enrollment stay under 2% across the operating range;
    # cold re-derivations stretch the exposure to cancel the known mean
    # 2^(dT/doubling) rate drop, i.e. shot-noise-suppressed acquisition
    chip = new_chip("c", 1)
    record = enroll(chip, golden_acquisition(chip, rng_seed=0))
    for t in (0.0, 40.0, 60.0, 80.0):
        exposure = 0.1 * 2.0 ** max(0.0, (25.0 - t) / 8.0)
        cfg = AcquisitionConfig(temperature=t, exposure=exposure, n_frames=100,
                                rng_seed=7001)
        dcm = acquire_dcm(chip, cfg)
        flips = 0.5 * (hamming_frac(record.rdcm_h.bits, rdcm(dcm, HORIZONTAL).bits)
                       + hamming_frac(record.rdcm_v.bits, rdcm(dcm, VERTICAL).bits))
        assert flips <= 0.02, f"T={t}: {flips:.4f}"


def test_puf_query_constant_challenge():
    rec = _record([[1, 0], [0, 0]], [[1, 1], [0, 0]])
    challenge = np.zeros((3, 3), dtype=np.uint8)
    response = puf_query(rec, challenge)
    assert np.all(response.r_h == rec.rdcm_h.bits[0, 0])
    assert np.all(response.r_v == rec.rdcm_v.bits[0, 0])


def test_puf_query_all_zero_record():
    rec = _record(np.zeros((4, 4), dtype=int), np.zeros((4, 4), dtype=int))
    rng = np.random.default_rng(2)
    challenge = (16 * rng.integers(0, 4, (5, 5)) + rng.integers(0, 4, (5, 5))).astype(np.uint8)
    response = puf_query(rec, challenge)
    assert not response.r_h.any() and not response.r_v.any()


def test_puf_query_identity_lookup():
    rec = _record([[1, 0], [0, 0]], [[1, 1], [0, 0]])
    challenge = np.array([[0x00, 0x01], [0x10, 0x11]], dtype=np.uint8)
    response = puf_query(rec, challenge)
    assert np.array_equal(response.r_h, [[1, 0], [0, 0]])
    assert np.array_equal(response.r_v, [[1, 1], [0, 0]])


def test_puf_query_window_error():
    rec = _record([[1, 0], [0, 0]], [[1, 1], [0, 0]])
    for byte in (0x22, 0x20, 0x02):      # row, column or both past the edge
        with pytest.raises(ValueError, match="map window"):
            puf_query(rec, np.full((2, 2), byte, dtype=np.uint8))
    # on a 64x64 map, -1 would read row -1 (the last), column 15, and 0x101
    # row 16, column 1; neither is an address byte, so both are rejected
    wide = _record(np.zeros((64, 64), dtype=int), np.zeros((64, 64), dtype=int))
    for wrong in (np.full((2, 2), -1), np.full((2, 2), 0x101), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="uint8"):
            puf_query(wide, wrong)


def test_puf_query_response_map_variants():
    rec = _record([[1, 0], [0, 0]], [[1, 1], [0, 0]])
    challenge = np.array([[0x00, 0x01], [0x10, 0x11]], dtype=np.uint8)
    h_only = puf_query(rec, challenge, response_map="h")
    assert np.array_equal(h_only.r_h, h_only.r_v)
    assert np.array_equal(h_only.r_h, rec.rdcm_h.bits)
    v_only = puf_query(rec, challenge, response_map="v")
    assert np.array_equal(v_only.r_h, rec.rdcm_v.bits)
    with pytest.raises(ValueError):
        puf_query(rec, challenge, response_map="hv")


def test_hex_round_trip():
    rng = np.random.default_rng(8)
    for n in (4, 9, 25, 4096):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        assert np.array_equal(hex_to_bits(bits_to_hex(bits), n), bits)
    with pytest.raises(ValueError):
        hex_to_bits("ff", 64)


def test_enrollment_round_trip(tmp_path, chips):
    record = enroll(chips[0], golden_acquisition(chips[0], rng_seed=100))
    path = save_enrollment(record, tmp_path)
    assert path.name == "chip1.enroll.json"
    loaded = load_enrollment(path)
    assert loaded.chip_id == record.chip_id
    assert np.array_equal(loaded.rdcm_h.bits, record.rdcm_h.bits)
    assert np.array_equal(loaded.rdcm_v.bits, record.rdcm_v.bits)
    assert np.array_equal(loaded.fingerprint.bits, record.fingerprint.bits)
    assert loaded.enrollment_cfg == record.enrollment_cfg


def test_load_enrollment_db_sorted(tmp_path, chips):
    for chip in (chips[2], chips[0], chips[1]):
        save_enrollment(enroll(chip, golden_acquisition(chip, rng_seed=1)), tmp_path)
    db = load_enrollment_db(tmp_path)
    assert [r.chip_id for r in db] == ["chip1", "chip2", "chip3"]


def test_load_enrollment_db_keeps_maps_packed(tmp_path):
    # per 64x64 record: three packed maps (1.5 KB), a fingerprint-matrix row
    # (0.5 KB) and small objects, ~2.5 KB; unpacked to one byte a bit, the
    # three maps alone were 12 KB
    n = 20
    for i in range(n):
        chip = new_chip(f"c{i:02d}", i)
        save_enrollment(enroll(chip, AcquisitionConfig(n_frames=1, rng_seed=i)), tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = load_enrollment_db(tmp_path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(db) == n
    assert kept / n < 4 * 1024


@FUZZ
@given(raw=fuzzed_json({"chip_id": "c", "array_dim": 4, "acquisition": asdict(AcquisitionConfig()),
                        "rdcm_h": "a5c3", "rdcm_v": "0f0f", "fingerprint": "aacc"}))
def test_load_enrollment_returns_or_raises_value_error(tmp_path, raw):
    path = tmp_path / "c.enroll.json"
    path.write_bytes(raw)
    with suppress(ValueError):
        load_enrollment(path)
