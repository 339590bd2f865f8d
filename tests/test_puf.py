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
from spadmark.puf import EnrollmentRecord, bits_to_hex, hex_to_bits
from conftest import FUZZ, fuzzed_json


def _record(h_bits, v_bits, chip_id="t"):
    h = np.asarray(h_bits, dtype=np.uint8)
    v = np.asarray(v_bits, dtype=np.uint8)
    return EnrollmentRecord(chip_id=chip_id, rdcm_h=h, rdcm_v=v,
                            fingerprint=fingerprint(h, v),
                            enrollment_cfg=AcquisitionConfig(rng_seed=0))


def test_rdcm_hand_examples():
    h, v = rdcm(np.array([[5, 3], [2, 2]]))
    assert np.array_equal(h, [[1, 0], [0, 0]])
    assert np.array_equal(v, [[1, 1], [0, 0]])
    assert h.dtype == v.dtype == np.uint8


def test_rdcm_constant_counts_all_zero():
    h, v = rdcm(np.full((8, 8), 7))
    assert not h.any()
    assert not v.any()


def test_rdcm_input_validation():
    with pytest.raises(ValueError):
        rdcm(np.zeros((4, 5), dtype=int))
    with pytest.raises(ValueError):
        rdcm([[1]])


def test_rdcm_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 5000, (32, 32))
    base_h, base_v = rdcm(counts)
    for transform in (lambda x: x ** 2, lambda x: 3 * x + 7):
        h, v = rdcm(transform(counts))
        assert np.array_equal(h, base_h)
        assert np.array_equal(v, base_v)


def test_fingerprint_xor_and_errors():
    h, v = rdcm(np.array([[5, 3], [2, 2]]))
    fp = fingerprint(h, v)
    assert np.array_equal(fp.bits, [[0, 1], [0, 0]])
    assert not fingerprint(h, h).bits.any()                      # x ^ x = 0
    zero = np.zeros((2, 2), dtype=np.uint8)
    assert np.array_equal(fingerprint(h, zero).bits, h)          # identity element
    small = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        fingerprint(h, small)


def test_fingerprint_involution():
    rng = np.random.default_rng(9)
    h = rng.integers(0, 2, (16, 16), dtype=np.uint8)
    v = rng.integers(0, 2, (16, 16), dtype=np.uint8)
    assert np.array_equal(np.bitwise_xor(fingerprint(h, v).bits, v), h)


def test_enroll_zero_exposure_all_zero():
    chip = new_chip("c", 1)
    record = enroll(chip, AcquisitionConfig(exposure=0.0, n_frames=1, rng_seed=0))
    assert not record.rdcm_h.any()
    assert not record.rdcm_v.any()
    assert not record.fingerprint.bits.any()


def test_enroll_repeatability(chips):
    for i, chip in enumerate(chips[:3]):
        r1 = enroll(chip, golden_acquisition(chip, rng_seed=100 + i))
        r2 = enroll(chip, golden_acquisition(chip, rng_seed=900 + i))
        assert hamming_frac(r1.fingerprint.bits, r2.fingerprint.bits) <= 0.02
        assert hamming_frac(r1.rdcm_h, r2.rdcm_h) <= 0.02


def test_enroll_uniqueness(records):
    dists = [hamming_frac(records[i].fingerprint.bits, records[j].fingerprint.bits)
             for i in range(len(records)) for j in range(i + 1, len(records))]
    assert len(dists) >= 10
    assert all(0.45 <= d <= 0.55 for d in dists)


def test_rdcm_uniqueness_across_seeds():
    a = new_chip("a", 1)
    b = new_chip("b", 2)
    ha, _ = rdcm(acquire_dcm(a, golden_acquisition(a, rng_seed=5)))
    hb, _ = rdcm(acquire_dcm(b, golden_acquisition(b, rng_seed=6)))
    assert 0.45 <= hamming_frac(ha, hb) <= 0.55


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
        h, v = rdcm(acquire_dcm(chip, cfg))
        flips = 0.5 * (hamming_frac(record.rdcm_h, h) + hamming_frac(record.rdcm_v, v))
        assert flips <= 0.02, f"T={t}: {flips:.4f}"


def test_puf_query_constant_challenge():
    rec = _record([[1, 0], [0, 0]], [[1, 1], [0, 0]])
    challenge = np.zeros((3, 3), dtype=np.uint8)
    response = puf_query(rec, challenge)
    assert response.shape == (2, 3, 3) and response.dtype == np.uint8
    assert np.all(response[0] == rec.rdcm_h[0, 0])
    assert np.all(response[1] == rec.rdcm_v[0, 0])


def test_puf_query_all_zero_record():
    rec = _record(np.zeros((4, 4), dtype=int), np.zeros((4, 4), dtype=int))
    rng = np.random.default_rng(2)
    challenge = (16 * rng.integers(0, 4, (5, 5)) + rng.integers(0, 4, (5, 5))).astype(np.uint8)
    response = puf_query(rec, challenge)
    assert not response.any()


def test_puf_query_identity_lookup():
    rec = _record([[1, 0], [0, 0]], [[1, 1], [0, 0]])
    challenge = np.array([[0x00, 0x01], [0x10, 0x11]], dtype=np.uint8)
    response = puf_query(rec, challenge)
    assert np.array_equal(response, [[[1, 0], [0, 0]], [[1, 1], [0, 0]]])


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
    assert np.array_equal(h_only[0], h_only[1])
    assert np.array_equal(h_only[0], rec.rdcm_h)
    v_only = puf_query(rec, challenge, response_map="v")
    assert np.array_equal(v_only[0], rec.rdcm_v)
    with pytest.raises(ValueError):
        puf_query(rec, challenge, response_map="hv")


@pytest.mark.parametrize("response_map", ["h", "v", "both"])
def test_puf_query_stack_equals_per_grid_queries(response_map):
    rng = np.random.default_rng(12)
    rec = _record(rng.integers(0, 2, (16, 16)), rng.integers(0, 2, (16, 16)))
    stack = rng.integers(0, 256, (5, 8, 8), dtype=np.uint8)
    response = puf_query(rec, stack, response_map=response_map)
    assert response.shape == (2, 5, 8, 8) and response.dtype == np.uint8
    for i, grid in enumerate(stack):
        assert np.array_equal(response[:, i], puf_query(rec, grid, response_map=response_map))


@pytest.mark.parametrize("dim", [2, 3, 5, 64])
def test_pack_unpack_round_trip(dim):
    # 2^2 = 4, 3^2 = 9 and 5^2 = 25 bits leave padding in the last byte
    rng = np.random.default_rng(dim)
    h = rng.integers(0, 2, (dim, dim), dtype=np.uint8)
    v = rng.integers(0, 2, (dim, dim), dtype=np.uint8)
    record = EnrollmentRecord(chip_id="c", rdcm_h=h, rdcm_v=v, fingerprint=fingerprint(h, v),
                              enrollment_cfg=AcquisitionConfig(rng_seed=3))
    packed = record.pack()
    assert len(packed.rdcm_h) == len(packed.rdcm_v) == len(packed.fingerprint) == -(-dim * dim // 8)
    back = packed.unpack()
    assert back.chip_id == "c" and back.enrollment_cfg == record.enrollment_cfg
    for got, want in ((back.rdcm_h, h), (back.rdcm_v, v), (back.fingerprint.bits, h ^ v)):
        assert got.dtype == np.uint8 and np.array_equal(got, want)


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
    assert np.array_equal(loaded.rdcm_h, record.rdcm_h)
    assert np.array_equal(loaded.rdcm_v, record.rdcm_v)
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
