import base64
import errno
import hashlib
import json
import os
import shutil
import tempfile
import tracemalloc
from contextlib import suppress
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spadmark import (AcquisitionConfig, ChipParams,
                      acquire_dcm, enroll, fingerprint, golden_acquisition,
                      hamming_frac, load_enrollment, load_enrollment_db,
                      new_chip, puf_query, rdcm, save_chip, save_enrollment)
from spadmark import imager, puf
from spadmark.puf import EnrollmentRecord, bits_to_hex, hex_to_bits, pack_bits
from conftest import FUZZ, fuzzed_json

_load_enrollment = puf.load_enrollment     # unpatched, for the reference loader


def _record(h_bits, v_bits, chip_id="t"):
    h = np.asarray(h_bits, dtype=np.uint8)
    v = np.asarray(v_bits, dtype=np.uint8)
    return EnrollmentRecord(chip_id=chip_id, rdcm_h=h, rdcm_v=v,
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


def test_puf_query_stack_equals_per_grid_queries():
    rng = np.random.default_rng(12)
    rec = _record(rng.integers(0, 2, (16, 16)), rng.integers(0, 2, (16, 16)))
    stack = rng.integers(0, 256, (5, 8, 8), dtype=np.uint8)
    response = puf_query(rec, stack)
    assert response.shape == (2, 5, 8, 8) and response.dtype == np.uint8
    for i, grid in enumerate(stack):
        assert np.array_equal(response[:, i], puf_query(rec, grid))


@pytest.mark.parametrize("dim", [2, 3, 5, 64])
def test_pack_unpack_round_trip(tmp_path, dim):
    # save_enrollment packs each map into hex, load_enrollment unpacks it;
    # 2^2 = 4, 3^2 = 9 and 5^2 = 25 bits leave padding in the last byte
    rng = np.random.default_rng(dim)
    h = rng.integers(0, 2, (dim, dim), dtype=np.uint8)
    v = rng.integers(0, 2, (dim, dim), dtype=np.uint8)
    record = EnrollmentRecord(chip_id="c", rdcm_h=h, rdcm_v=v,
                              enrollment_cfg=AcquisitionConfig(rng_seed=3))
    path = save_enrollment(record, tmp_path)
    saved = json.loads(path.read_bytes())
    for key, want in (("rdcm_h", h), ("rdcm_v", v), ("fingerprint", h ^ v)):
        assert len(saved[key]) == 2 * -(-dim * dim // 8)
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(saved[key]), dtype=np.uint8))
        assert np.array_equal(bits[:dim * dim].reshape(dim, dim), want)
        assert not bits[dim * dim:].any()
    back = load_enrollment(path)
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


# --- record writes and the enrollment database ---------------------------------

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


# The digest index older versions kept in a database directory; no load
# reads it now, and a leftover one must change nothing.
INDEX = ".enroll-index"


def _record_bytes(chip_id: str, dim: int, seed: int, compact: bool) -> bytes:
    """A valid record file; ``compact`` JSON is not written as save_enrollment
    writes it, so a load must parse it."""
    h, v = np.random.default_rng(seed).integers(0, 2, (2, dim, dim), dtype=np.uint8)
    payload = {"chip_id": chip_id, "array_dim": dim,
               "acquisition": asdict(AcquisitionConfig(rng_seed=seed)),
               "rdcm_h": bits_to_hex(h), "rdcm_v": bits_to_hex(v), "fingerprint": bits_to_hex(h ^ v)}
    if compact:
        return json.dumps(payload, separators=(",", ":")).encode()
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _flipped(hexstr: str) -> str:
    """``hexstr`` with its first bit flipped."""
    return "%x" % (int(hexstr[0], 16) ^ 8) + hexstr[1:]


def _full_parse(db_dir):
    """The database of every record parsed, in file-name order, a repeated
    chip_id rejected naming both files."""
    records, paths = [], {}
    for name in sorted(os.listdir(db_dir)):
        if name.endswith(".enroll.json"):
            path = os.path.join(db_dir, name)
            record = _load_enrollment(path)
            if record.chip_id in paths:
                raise ValueError(f"{paths[record.chip_id]} and {path} both enroll "
                                 f"chip_id {record.chip_id!r}")
            paths[record.chip_id] = path
            records.append(record)
    records.sort(key=lambda r: r.chip_id)
    fingerprints = [pack_bits(r.fingerprint.bits) for r in records]
    width = max(map(len, fingerprints), default=0)
    return ([r.chip_id for r in records], [r.rdcm_h.shape[0] for r in records],
            (len(records), width), b"".join(fp.ljust(width, b"\0") for fp in fingerprints),
            [paths[r.chip_id] for r in records], {r.chip_id: r for r in records})


def _loaded(db_dir, parses=None):
    """load_enrollment_db's database, its ``load_enrollment`` calls counted
    in ``parses`` if given, and every record of it."""
    with pytest.MonkeyPatch.context() as m:
        if parses is not None:
            m.setattr(puf, "load_enrollment", parses)
        db = load_enrollment_db(db_dir)
    return (db.chip_ids, db.dims.tolist(), db.fingerprints.shape, db.fingerprints.tobytes(),
            db.paths, {chip_id: db.record(chip_id) for chip_id in db.chip_ids})


def _outcome(loader, db_dir):
    """A database as comparable values, or the one-line error it raised."""
    try:
        *fields, records = loader(db_dir)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)
    maps = {chip_id: (r.rdcm_h.tobytes(), r.rdcm_v.tobytes(), r.fingerprint.bits.tobytes(),
                      r.rdcm_h.shape, r.enrollment_cfg) for chip_id, r in records.items()}
    return *fields, maps


class _CountParses:
    def __init__(self):
        self.n = 0

    def __call__(self, *args):
        self.n += 1
        return _load_enrollment(*args)


def _written_as_saved(data: bytes) -> bool:
    """Whether a record file is what save_enrollment writes for its JSON,
    with a chip_id that JSON does not escape: files a load must not parse."""
    try:
        payload = json.loads(data)
    except ValueError:
        return False
    return (isinstance(payload, dict) and "\\" not in json.dumps(payload.get("chip_id"))
            and (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode() == data)


def _unscannable(db_dir) -> int:
    """How many records a load must parse."""
    count = 0
    for name in os.listdir(db_dir):
        if name.endswith(".enroll.json"):
            with open(os.path.join(db_dir, name), "rb") as f:
                count += not _written_as_saved(f.read())
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
    names = sorted(os.listdir(db_dir))
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
    elif op == "rewrite":     # same size: flip the first bit of rdcm_h and of the fingerprint
        with open(old, "rb") as f:
            data = bytearray(f.read())
        ats = [data.find(b'"', at + len(key)) + 1 if (at := data.find(key)) >= 0 else 0
               for key in (b'"rdcm_h":', b'"fingerprint":')]
        if all(0 < at < len(data) and chr(data[at]) in "0123456789abcdef" for at in ats):
            for at in ats:
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
def test_load_equals_full_parse(tmp_path, initial, edits):
    # after every edit the load gives the full parse's database or its
    # error, and parses only the records the scan cannot read
    with tempfile.TemporaryDirectory(dir=tmp_path) as db_dir:
        for i, record in enumerate(initial):
            _edit(db_dir, ("add", 0, record), f"i{i}")
        for serial, edit in enumerate([None, *edits]):
            if edit:
                _edit(db_dir, edit, serial)
            expected = _outcome(_full_parse, db_dir)
            parses = _CountParses()
            assert _outcome(lambda d: _loaded(d, parses), db_dir) == expected
            if not isinstance(expected[0], type):
                assert parses.n == _unscannable(db_dir)


def test_record_checks_its_file_against_the_row(tmp_path):
    # a record rewritten between the load and the verdict is not served
    chip = new_chip("c0", 0)

    def save(seed):
        return save_enrollment(enroll(chip, AcquisitionConfig(n_frames=1, rng_seed=seed)), tmp_path)
    path = save(1)
    db = load_enrollment_db(tmp_path)
    save(2)
    with pytest.raises(ValueError, match="changed since loading") as exc:
        db.record("c0")
    assert str(exc.value).startswith(f"{path}: ")


_SAVED = _record_bytes("c0", 3, 0, False)
_HEX = json.loads(_SAVED)["fingerprint"]
_OTHER_HEX = _flipped(_HEX)


def _line(key: str, value=None) -> bytes:
    return f'"{key}": {json.dumps(json.loads(_SAVED)[key] if value is None else value)}'.encode()


def _text(*lines: bytes) -> bytes:
    """A record file of these lines, indented as save_enrollment indents them."""
    return b"{\n  " + b",\n  ".join(lines) + b"\n}\n"


def _in_map(text: str) -> bytes:
    """A saved record of side 9 whose rdcm_h hex starts with ``text``, the
    line keeping its length."""
    data = _record_bytes("c0", 9, 0, False)
    hexstr = json.loads(data)["rdcm_h"]
    return data.replace(hexstr.encode(), (text + hexstr[len(text):]).encode(), 1)


@pytest.mark.parametrize("data", [
    _SAVED.replace(b'"chip_id": "c0"', b'"chip_id": "c\\u0030"'),
    _SAVED.replace(b'"chip_id": "c0"', b'"chip_id": "c0", "zz": "c1"'),
    _text(_line("chip_id", "c1"), *map(_line, ["acquisition", "array_dim"]), _line("xhip_id", "c0"),
          *map(_line, ["fingerprint", "rdcm_h", "rdcm_v"])),
    _text(_line("fingerprint", _OTHER_HEX), *map(_line, ["acquisition", "array_dim", "chip_id"]),
          _line("xingerprint", _HEX), _line("rdcm_h"), _line("rdcm_v")),
    _SAVED.replace(_HEX.encode(), _HEX.encode() + b"00", 1),
    _SAVED.replace(_HEX.encode(), b"zz" + _HEX[2:].encode(), 1),
    _SAVED.replace(b'"chip_id": "c0"', b'"chip_id": "\xff"'),
    b'{\n"array_dim": 3' + _SAVED[_SAVED.index(b',\n  "chip_id"'):],
    _SAVED.replace(b'"array_dim": 3', b'"array_dim": 3.0'),
    _SAVED.replace(b'"array_dim": 3', b'"array_dim": ' + b"9" * 30),
    _SAVED.replace(b'"array_dim": 3', b'"array_dim": ' + b"1" * 5000),
    _record_bytes("c0", 3, 0, True),
    _SAVED[:-3] + b'00"\n}\n',
    _SAVED + b" ",
    _in_map('", "chip_id": "c1'),
], ids=["escaped-chip_id", "quote-in-chip_id", "key-in-place-of-chip_id",
        "key-in-place-of-fingerprint", "long-fingerprint", "non-hex-fingerprint",
        "non-utf8-chip_id", "no-array_dim-line", "float-array_dim", "30-digit-array_dim",
        "5000-digit-array_dim", "compact", "long-rdcm_v", "byte-after-brace", "key-in-map"])
def test_scan_reads_only_the_lines_save_enrollment_writes(tmp_path, data):
    assert puf._scan_fields(data) is None
    (tmp_path / "c.enroll.json").write_bytes(data)
    assert _outcome(_loaded, tmp_path) == _outcome(_full_parse, tmp_path)


def _nested() -> bytes:
    """A compact record of chip c1 whose last key holds _SAVED's lines."""
    payload = json.dumps({**json.loads(_SAVED), "chip_id": "c1"}, sort_keys=True).encode()
    return b"{\n" + payload[1:-1] + b', "zz": {' + _SAVED[_SAVED.index(b'\n  "array_dim"'):-3] + b"}}\n"


@pytest.mark.parametrize("data", [
    _SAVED[:-3] + b',\n  "chip_id": "c1"\n}\n',
    _SAVED[:-3] + b',\n  "chip\\u005fid": "c1"\n}\n',
    _SAVED[:-3] + b',\n  ' + _line("fingerprint", _OTHER_HEX) + b"\n}\n",
    _SAVED[:-3] + b',\n  "array_dim": 2\n}\n',
    _nested(),
    _SAVED.replace(_HEX.encode(), _HEX[:-1].encode() + b"%x" % (int(_HEX[-1], 16) | 1), 1),
], ids=["later-chip_id", "later-escaped-key", "later-fingerprint", "later-array_dim", "nested",
        "padding-bit-set"])
def test_planted_digest_of_a_misread_record(tmp_path, data):
    # save_enrollment's lines, but JSON reads another row: the scan gives
    # None, so the load parses the file. The digest of it planted in an
    # older version's index, which that version trusted, changes nothing.
    path = tmp_path / "c.enroll.json"
    path.write_bytes(data)
    if json.loads(data)["fingerprint"] == _OTHER_HEX:      # not rdcm_h XOR rdcm_v
        with pytest.raises(ValueError, match=f"^{path}: field 'fingerprint': "):
            _load_enrollment(path)
    else:
        _load_enrollment(path)
    assert puf._scan_fields(data) is None
    (tmp_path / INDEX).write_bytes(hashlib.sha256(data).digest())
    assert _outcome(_loaded, tmp_path) == _outcome(_full_parse, tmp_path)


@FUZZ
@given(at=st.integers(0, len(_SAVED)), cut=st.integers(0, 60),
       noise=st.binary(max_size=24) | st.sampled_from([b"9" * 30, b"1" * 5000, b"\\", b'"', b" ",
                                                      b'"chip_id"', b"\n  ", b"ff"]))
def test_scan_fields_gives_the_parsed_row_or_none(at, cut, noise):
    # never an error, and a splice of a saved record that still parses scans
    # to the parsed row or to None
    data = _SAVED[:at] + noise + _SAVED[at + cut:]
    row = puf._scan_fields(data)
    if row is not None:
        with suppress(ValueError):
            record = _load_enrollment("c.enroll.json", data)
            assert row == (record.chip_id, record.rdcm_h.shape[0],
                           pack_bits(record.fingerprint.bits))
        assert len(row[2]) <= len(data)


@pytest.fixture(scope="module")
def index_bytes():
    """Three saved records of sides 2, 3 and 5, and the index an older
    version wrote for them: their sorted SHA-256 digests."""
    files = {f"c{i}.enroll.json": _record_bytes(f"c{i}", dim, i, False)
             for i, dim in enumerate((2, 3, 5))}
    return files, b"".join(sorted(hashlib.sha256(data).digest() for data in files.values()))


def _write_db(db_dir, files, index: bytes) -> None:
    for name, data in files.items():
        (db_dir / name).write_bytes(data)
    (db_dir / INDEX).write_bytes(index)


def _chunks(data: bytes) -> set[bytes]:
    return {data[at:at + 32] for at in range(0, len(data) - 31, 32)}


@pytest.mark.parametrize("edit", [
    (b"", b"\0"),                                               # shifted by one byte
    (lambda index: index.hex().encode(),),                      # digests as hex text
    (lambda index: b"".join(d[::-1] for d in sorted(_chunks(index))),),     # byte-reversed
    (lambda index: b"".join(index[at:at + 16] for at in range(0, len(index), 32)),),    # halves
    (lambda index: base64.b64encode(index),),
    (lambda index: b"".join(bytes(16) + d + bytes(16) for d in sorted(_chunks(index))),),
    (lambda index: b"".join(hashlib.sha256(d).digest() for d in sorted(_chunks(index))),),
])
def test_index_in_another_layout_counts_as_empty(tmp_path, index_bytes, edit):
    # an older version's index in any layout is never read: each saved
    # record gives its row from its own lines, and the index is left as it is
    files, index = index_bytes
    other = index.replace(*edit, 1) if isinstance(edit[0], bytes) else edit[0](index)
    assert other != index and not _chunks(other) & _chunks(index)
    _write_db(tmp_path, files, other)
    parses = _CountParses()
    assert _outcome(lambda d: _loaded(d, parses), tmp_path) == _outcome(_full_parse, tmp_path)
    assert parses.n == 0
    assert (tmp_path / INDEX).read_bytes() == other


def _crafted_bytes(record, key: str, later: bool) -> bytes:
    """A valid record file as save_enrollment writes it, plus a second
    ``key`` with another valid value, after its standard line (``later``:
    JSON reads that one) or before it."""
    chip_id, dim, seed, _ = record
    data = _record_bytes(chip_id, dim, seed, False)
    value = {"chip_id": chip_id + "x", "array_dim": dim - 1,
             "fingerprint": _flipped(json.loads(data)["fingerprint"])}[key]
    line = f'  "{key}": {json.dumps(value)}'.encode()
    if later:
        return data[:-3] + b",\n" + line + b"\n}\n"
    return b"{\n" + line + b",\n" + data[2:]


FILES = st.tuples(RECORDS, st.sampled_from([None, "chip_id", "array_dim", "fingerprint"]),
                  st.booleans())
INDEX_PARTS = st.tuples(st.sampled_from(["file", "other", "cut", "garbage"]), st.integers(0, 9),
                        st.binary(max_size=40) | st.binary(min_size=32, max_size=32))


@FUZZ
@given(files=st.lists(FILES, max_size=4), parts=st.lists(INDEX_PARTS, max_size=6))
@example(files=[(("c", 2, 0, False), "chip_id", True)], parts=[("file", 0, b"")])
@example(files=[(("c", 2, 0, False), None, False), (("c", 3, 1, False), "chip_id", True)],
         parts=[("garbage", 0, bytes(32)), ("file", 1, b"")])
def test_any_index_bytes_give_the_full_parse(tmp_path, files, parts):
    # whatever an older version's index holds (garbage, digests cut mid-way,
    # repeated, of records not in the directory, planted for a record whose
    # lines disagree with its JSON), under either of its names, the load
    # gives the full parse's database or its error and leaves it as it is
    with tempfile.TemporaryDirectory(dir=tmp_path) as db_dir:
        blobs = [_crafted_bytes(record, key, later) if key else _record_bytes(*record)
                 for record, key, later in files]
        for i, data in enumerate(blobs):
            with open(os.path.join(db_dir, f"r{i}.enroll.json"), "wb") as f:
                f.write(data)
        index = b""
        for kind, pick, noise in parts:
            if kind == "garbage" or not blobs:
                index += noise
            elif kind == "other":
                index += hashlib.sha256(_record_bytes("o", 2, pick, False)).digest()
            else:
                digest = hashlib.sha256(blobs[pick % len(blobs)]).digest()
                index += digest if kind == "file" else digest[:len(noise) % 32]
        for name in (INDEX, INDEX + ".npy"):
            with open(os.path.join(db_dir, name), "wb") as f:
                f.write(index)
        assert _outcome(_loaded, db_dir) == _outcome(_full_parse, db_dir)
        for name in (INDEX, INDEX + ".npy"):
            with open(os.path.join(db_dir, name), "rb") as f:
                assert f.read() == index
