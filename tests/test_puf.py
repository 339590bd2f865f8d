import errno
import json
import os
import shutil
import tempfile
import tracemalloc
from contextlib import suppress
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spadmark import (AcquisitionConfig, ChipParams,
                      acquire_dcm, enroll, fingerprint, golden_acquisition,
                      hamming_frac, load_enrollment, load_enrollment_db,
                      new_chip, puf_query, rdcm, save_chip, save_enrollment)
from spadmark import imager, puf
from spadmark.puf import INDEX_NAME, EnrollmentRecord, bits_to_hex, hex_to_bits
from conftest import FUZZ, fuzzed_json

_read_record = puf._read_record     # unpatched, for the reference loader


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


# --- record writes and the enrollment index ------------------------------------

class _FailingWrite:
    """A file whose write stores the first half of the data, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fail", ["write", "replace"])
@pytest.mark.parametrize("kind", ["enroll", "chip"])
def test_record_write_that_fails_leaves_the_old_record(tmp_path, monkeypatch, chips, kind, fail):
    chip = chips[0]
    if kind == "enroll":
        save = lambda seed: save_enrollment(enroll(chip, AcquisitionConfig(n_frames=1, rng_seed=seed)),
                                            tmp_path)
    else:
        save = lambda seed: save_chip(new_chip(chip.chip_id, seed), tmp_path)
    path = save(1)
    old = path.read_bytes()
    if fail == "write":
        real_open = open
        monkeypatch.setattr(imager, "open", lambda *a: _FailingWrite(real_open(*a)), raising=False)
    else:
        def refuse(*args):
            raise OSError(errno.EIO, "Input/output error")
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save(2)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == [path.name]
    assert save(2).read_bytes() != old


def _record_bytes(chip_id: str, dim: int, seed: int, compact: bool) -> bytes:
    """A valid record file; ``compact`` JSON is not written as save_enrollment
    writes it, so its fingerprint text never matches an index row."""
    h, v = np.random.default_rng(seed).integers(0, 2, (2, dim, dim), dtype=np.uint8)
    payload = {"chip_id": chip_id, "array_dim": dim,
               "acquisition": asdict(AcquisitionConfig(rng_seed=seed)),
               "rdcm_h": bits_to_hex(h), "rdcm_v": bits_to_hex(v), "fingerprint": bits_to_hex(h ^ v)}
    if compact:
        return json.dumps(payload, separators=(",", ":")).encode()
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _full_parse(db_dir):
    """What load_enrollment_db gave before the index: every record parsed, in
    file-name order, a repeated chip_id rejected naming both files."""
    records, paths = [], {}
    for name in sorted(os.listdir(db_dir)):
        if name.endswith(".enroll.json"):
            path = os.path.join(db_dir, name)
            record = _read_record(path)
            if record.chip_id in paths:
                raise ValueError(f"{paths[record.chip_id]} and {path} both enroll "
                                 f"chip_id {record.chip_id!r}")
            paths[record.chip_id] = path
            records.append(record)
    records.sort(key=lambda r: r.chip_id)
    width = max((len(r.fingerprint) for r in records), default=0)
    return ([r.chip_id for r in records], [r.dim for r in records],
            (len(records), width), b"".join(r.fingerprint.ljust(width, b"\0") for r in records),
            {r.chip_id: r.unpack() for r in records})


def _loaded(db_dir, parses=None):
    """load_enrollment_db's database, its ``_read_record`` calls counted in
    ``parses`` if given, and every record of it."""
    with pytest.MonkeyPatch.context() as m:
        if parses is not None:
            m.setattr(puf, "_read_record", parses)
        db = load_enrollment_db(db_dir)
    return (db.chip_ids, db.dims.tolist(), db.fingerprints.shape, db.fingerprints.tobytes(),
            {chip_id: db.record(chip_id) for chip_id in db.chip_ids})


def _outcome(loader, db_dir):
    """A database as comparable values, or the one-line error it raised."""
    try:
        chip_ids, dims, shape, fingerprints, records = loader(db_dir)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)
    maps = {chip_id: (r.rdcm_h.tobytes(), r.rdcm_v.tobytes(), r.fingerprint.bits.tobytes(),
                      r.rdcm_h.shape, r.enrollment_cfg) for chip_id, r in records.items()}
    return chip_ids, dims, shape, fingerprints, maps


class _CountParses:
    def __init__(self):
        self.n = 0

    def __call__(self, *args):
        self.n += 1
        return _read_record(*args)


def _unindexable(db_dir) -> int:
    """How many records no index row can stand for: a chip_id numpy's U
    dtype cannot hold, or a file not written as save_enrollment writes."""
    count = 0
    for name in os.listdir(db_dir):
        path = os.path.join(db_dir, name)
        if name.endswith(".enroll.json"):
            with open(path, "rb") as f:
                data = f.read()
            count += (_read_record(path).chip_id.endswith("\x00")
                      or b'"fingerprint": "' not in data)
    return count


CHIP_IDS = (st.text(max_size=4) | st.text(max_size=3).map(lambda t: t + "\x00")
            | st.sampled_from(["\ud800", "\x00", "a\x00b", "7"]))
RECORDS = st.tuples(CHIP_IDS, st.sampled_from([2, 3, 5]), st.integers(0, 2 ** 16),
                    st.booleans())
EDITS = st.tuples(st.sampled_from(["rewrite", "rename", "delete", "add", "copy",
                                   "malformed", "directory"]),
                  st.integers(0, 9), RECORDS)


def _edit(db_dir, edit, serial):
    op, pick, record = edit
    names = sorted(n for n in os.listdir(db_dir) if n != INDEX_NAME)
    new = os.path.join(db_dir, f"n{serial}.enroll.json")
    if op == "add" or not names:
        with open(new, "wb") as f:
            f.write(_record_bytes(*record))
        return
    old = os.path.join(db_dir, names[pick % len(names)])
    if op == "directory":
        os.mkdir(new)
    elif os.path.isdir(old):
        if op == "delete":
            os.rmdir(old)
    elif op == "rewrite":     # same size: flip the first fingerprint bit
        with open(old, "rb") as f:
            data = bytearray(f.read())
        at = data.find(b'"fingerprint":')
        at = data.find(b'"', at + 14) + 1 if at >= 0 else 0
        if 0 < at < len(data) and chr(data[at]) in "0123456789abcdef":
            data[at] = ord("0123456789abcdef"[int(chr(data[at]), 16) ^ 8])
            with open(old, "wb") as f:
                f.write(data)
    elif op == "rename":
        os.rename(old, new)
    elif op == "delete":
        os.unlink(old)
    elif op == "copy":
        shutil.copyfile(old, new)
    elif op == "malformed":
        with open(old, "rb") as f:
            data = f.read()
        with open(new, "wb") as f:
            f.write(data[:len(data) // 2])


@FUZZ
@given(initial=st.lists(RECORDS, max_size=4), edits=st.lists(EDITS, max_size=4))
def test_index_load_equals_full_parse(tmp_path, initial, edits):
    # A stale index (the previous state's), a warm one and none must all give
    # the full parse's database or its error, and a warm load parses only the
    # records an index cannot hold.
    with tempfile.TemporaryDirectory(dir=tmp_path) as db_dir:
        for i, record in enumerate(initial):
            _edit(db_dir, ("add", 0, record), f"i{i}")
        for serial, edit in enumerate([None, *edits]):
            if edit:
                _edit(db_dir, edit, serial)
            expected = _outcome(_full_parse, db_dir)
            assert _outcome(_loaded, db_dir) == expected
            parses = _CountParses()
            assert _outcome(lambda d: _loaded(d, parses), db_dir) == expected
            if not isinstance(expected[0], type):
                assert parses.n == _unindexable(db_dir)
            with suppress(FileNotFoundError):
                os.unlink(os.path.join(db_dir, INDEX_NAME))
            assert _outcome(_loaded, db_dir) == expected


def test_index_parses_only_changed_records(tmp_path, monkeypatch):
    def save(i, seed):
        return save_enrollment(enroll(new_chip(f"c{i}", i),
                                      AcquisitionConfig(n_frames=1, rng_seed=seed)), tmp_path)
    for i in range(4):
        save(i, i)
    cold = load_enrollment_db(tmp_path)
    index = tmp_path / INDEX_NAME
    inode = index.stat().st_ino
    parses = _CountParses()
    monkeypatch.setattr(puf, "_read_record", parses)
    warm = load_enrollment_db(tmp_path)
    assert parses.n == 0 and index.stat().st_ino == inode      # not parsed, not rewritten
    assert warm.chip_ids == cold.chip_ids and np.array_equal(warm.fingerprints, cold.fingerprints)
    size = (tmp_path / "c2.enroll.json").stat().st_size
    path = save(2, 9)       # the same size, other maps
    assert path.stat().st_size == size
    changed = load_enrollment_db(tmp_path)
    assert parses.n == 1 and index.stat().st_ino != inode
    assert np.array_equal(changed.record("c2").rdcm_h, load_enrollment(path).rdcm_h)
    assert not np.array_equal(changed.fingerprints[2], cold.fingerprints[2])


@pytest.fixture(scope="module")
def index_bytes(tmp_path_factory):
    db_dir = tmp_path_factory.mktemp("indexed")
    for i, dim in enumerate((2, 3, 5)):
        (db_dir / f"c{i}.enroll.json").write_bytes(_record_bytes(f"c{i}", dim, i, False))
    load_enrollment_db(db_dir)
    return (db_dir / INDEX_NAME).read_bytes()


@FUZZ
@given(cut=st.integers(0, 400), at=st.integers(0, 400), noise=st.binary(max_size=24))
def test_index_reader_returns_rows_or_none(tmp_path, index_bytes, cut, at, noise):
    # garbage, truncated or overwritten index bytes give rows or none, never an error
    path = tmp_path / INDEX_NAME
    for data in (index_bytes[:cut], index_bytes[:at] + noise + index_bytes[at + len(noise):],
                 noise):
        path.write_bytes(data)
        rows = puf._read_index(str(path))
        assert isinstance(rows, dict)


@pytest.mark.parametrize("edit", [
    (b"'<i8'", b"'<i4'"), (b"'chip_id'", b"'chip_ix'"), (b"'|V32'", b"'|V31'"),
    (b"(3,)", b"(4,)"), (b"(3,)", b"(1000000000000,)"), (b"False", b"True "),
    (b"\x01\x00", b"\x02\x00"),
])
def test_index_in_another_layout_counts_as_empty(tmp_path, index_bytes, edit):
    old, new = edit
    assert old in index_bytes
    path = tmp_path / INDEX_NAME
    path.write_bytes(index_bytes.replace(old, new, 1))
    assert puf._read_index(str(path)) == {}
