"""Binary PUF artifacts derived from dark count maps.

The relative maps mark, per pixel, whether its dark count beats its right
(horizontal) or lower (vertical) neighbor, with circular wrap at the array
edge. Because the comparison only uses ordering, any monotone rescaling of
the counts -- in particular the common exponential growth with temperature --
leaves the maps unchanged; that is the whole trick behind using them as a
stable device secret. Each map is a plain (P, P) uint8 array of 0/1 bits;
``rdcm`` returns the pair (horizontal, vertical), and the fingerprint is
their XOR.

A challenge is a (D, D) uint8 grid of ``features.challenge_matrix`` address
bytes, or a stack of such grids; ``puf_query`` splits each byte into a map
row (high nibble) and column (low nibble) and returns both response planes
as one array, plane 0 horizontal and plane 1 vertical.

An enrollment record file holds each map as the hex of its packed bits
(``bits_to_hex``); ``load_enrollment`` is the one parser of such a file. An
enrollment database is a directory of ``*.enroll.json`` records, one per
chip_id; ``load_enrollment_db`` rejects a duplicate. In memory it is what
source identification needs: the chip_ids, map sides and packed
fingerprints as one matrix, plus each record's path. A load reads every
record file once; a record's maps are parsed from its file only when the
record itself is asked for. The directory holds nothing else of the
database: the record files are the whole of it, and a load writes nothing.
"""

from __future__ import annotations

import binascii
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .imager import (AcquisitionConfig, ChipModel, acquire_dcm, json_record, read_bytes,
                     record_path, save_json_record)


@dataclass
class Fingerprint:
    """XOR of the horizontal and vertical relative maps.

    The XOR masks the raw comparison bits, so the fingerprint can identify a
    device without exposing the maps that answer challenges.
    """

    bits: np.ndarray            # uint8 {0,1}, array_dim x array_dim


@dataclass
class EnrollmentRecord:
    """Golden PUF data stored with the verifier for one chip; the
    fingerprint is derived from the two maps."""

    chip_id: str
    rdcm_h: np.ndarray          # uint8 {0,1}, array_dim x array_dim
    rdcm_v: np.ndarray
    enrollment_cfg: AcquisitionConfig

    @property
    def fingerprint(self) -> Fingerprint:
        return fingerprint(self.rdcm_h, self.rdcm_v)


def rdcm(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The horizontal and vertical relative maps of a square count map.

    Horizontal: bit(r,c) = counts(r,c) > counts(r, (c+1) mod P).
    Vertical:   bit(r,c) = counts(r,c) > counts((r+1) mod P, c).
    Ties score 0. Circular wrap keeps each map the full P x P.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"dark count map must be square, got shape {counts.shape}")
    if counts.shape[0] < 2:
        raise ValueError("dark count map side must be >= 2")
    return ((counts > np.roll(counts, -1, axis=1)).astype(np.uint8),
            (counts > np.roll(counts, -1, axis=0)).astype(np.uint8))


def fingerprint(h: np.ndarray, v: np.ndarray) -> Fingerprint:
    """Elementwise XOR of the two relative maps."""
    if h.shape != v.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {v.shape}")
    return Fingerprint(bits=np.bitwise_xor(h, v))


def golden_acquisition(chip: ChipModel, rng_seed: int = 0) -> AcquisitionConfig:
    """Default enrollment acquisition: AcquisitionConfig's 100 frames of
    0.4 s at the chip's reference temperature, taken as one Poisson draw
    equal in distribution to their sum. That integration keeps two golden
    acquisitions of a chip within 2 % of map bits with margin."""
    return AcquisitionConfig(temperature=chip.params.ref_temp, rng_seed=rng_seed)


def enroll(chip: ChipModel, cfg: AcquisitionConfig | None = None) -> EnrollmentRecord:
    """Acquire a multi-frame dark map and derive the golden PUF record."""
    cfg = cfg or golden_acquisition(chip)
    h, v = rdcm(acquire_dcm(chip, cfg))
    return EnrollmentRecord(chip_id=chip.chip_id, rdcm_h=h, rdcm_v=v, enrollment_cfg=cfg)


def puf_query(record: EnrollmentRecord, challenge: np.ndarray) -> np.ndarray:
    """Read both relative maps at the challenge's address bytes.

    ``challenge`` holds ``features.challenge_matrix`` bytes, a (D, D) grid or a
    stack: high nibble = map row, low nibble = column. Other dtypes are rejected,
    not wrapped, as is any address at or past the array edge. The result is
    one uint8 {0,1} array of shape (2, *challenge.shape): plane 0 is read
    from the horizontal map, plane 1 from the vertical one.
    """
    challenge = np.asarray(challenge)
    if challenge.dtype != np.uint8:
        raise ValueError(f"challenge must be uint8 address bytes, got dtype {challenge.dtype}")
    rows, cols = challenge >> 4, challenge & 0x0F
    dim = record.rdcm_h.shape[0]
    if rows.max() >= dim or cols.max() >= dim:
        raise ValueError(
            f"challenge address outside the {dim}x{dim} map window "
            f"(rows up to {int(rows.max())}, columns up to {int(cols.max())})")
    return np.array((record.rdcm_h, record.rdcm_v), dtype=np.uint8)[:, rows, cols]


# --- bit packing ------------------------------------------------------------
# Row-major bits, MSB first within each byte. A length that is not a
# multiple of 8 is zero-padded to whole bytes (a 9-bit map is 2 bytes with
# 7 padding bits), and the padding is trimmed on parse.

def pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8).ravel()).tobytes()


def bits_to_hex(bits: np.ndarray) -> str:
    return pack_bits(bits).hex()


def hex_to_bits(hexstr: str, n_bits: int) -> np.ndarray:
    """The first ``n_bits`` of a hex string, as a uint8 {0,1} array."""
    raw = bytes.fromhex(hexstr)
    if 8 * len(raw) < n_bits:
        raise ValueError(f"hex string holds {8 * len(raw)} bits, expected {n_bits}")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n_bits)


# --- enrollment database ----------------------------------------------------

Row = tuple[str, int, bytes]     # chip_id, map side, packed fingerprint


class EnrollmentDB:
    """Enrolled chips in chip_id order, chip_ids distinct: what the
    fingerprint scan needs, and the file each full record is read from.

    Built from (chip_id, map side, packed fingerprint, record path) rows.
    ``fingerprints`` is one (N, W) uint8 matrix, row i the packed
    fingerprint of the i-th chip, zero-filled to the widest row's W bytes;
    ``dims`` holds each map side and ``paths`` each record file. Iterating or
    ``record`` parses a record from its file in full; a file that no longer
    gives the chip_id, map side and fingerprint of its row raises ValueError
    naming it, so a record changed since the load can never name a source.
    """

    def __init__(self, rows: Iterable[tuple[str, int, bytes, str]]):
        ordered = sorted(rows, key=lambda row: row[0])
        self.chip_ids = [row[0] for row in ordered]
        self._rows = {chip_id: i for i, chip_id in enumerate(self.chip_ids)}
        if len(self._rows) != len(ordered):
            raise ValueError("enrollment records must have distinct chip_ids")
        self.dims = np.array([row[1] for row in ordered], dtype=np.int64)
        width = max((len(row[2]) for row in ordered), default=0)
        packed = b"".join(row[2].ljust(width, b"\0") for row in ordered)
        self.fingerprints = np.frombuffer(packed, dtype=np.uint8).reshape(len(ordered), width)
        self.paths = [row[3] for row in ordered]

    def __len__(self) -> int:
        return len(self.chip_ids)

    def __iter__(self) -> Iterator[EnrollmentRecord]:
        return (self.record(chip_id) for chip_id in self.chip_ids)

    def record(self, chip_id: str) -> EnrollmentRecord:
        i = self._rows[chip_id]
        path = self.paths[i]
        record = load_enrollment(path)
        if (record.chip_id != chip_id or record.rdcm_h.shape[0] != self.dims[i]
                or pack_bits(record.fingerprint.bits).ljust(self.fingerprints.shape[1], b"\0")
                != self.fingerprints[i].tobytes()):
            raise ValueError(f"{path}: record does not match the database row of chip_id "
                             f"{chip_id!r} (changed since loading)")
        return record


def enrollment_path(db_dir: str | Path, chip_id: str) -> Path:
    return record_path(db_dir, chip_id, ".enroll.json")


def save_enrollment(record: EnrollmentRecord, db_dir: str | Path) -> Path:
    return save_json_record(enrollment_path(db_dir, record.chip_id), {
        "chip_id": record.chip_id,
        "array_dim": record.rdcm_h.shape[0],
        "acquisition": asdict(record.enrollment_cfg),
        "rdcm_h": bits_to_hex(record.rdcm_h),
        "rdcm_v": bits_to_hex(record.rdcm_v),
        "fingerprint": bits_to_hex(record.fingerprint.bits),
    })


def _array_dim(value) -> int:
    # checked before the maps: a negative side squares to a valid bit count
    dim = int(value)
    if dim < 0:
        raise ValueError(f"must be >= 0, got {dim}")
    return dim


def load_enrollment(path: str | Path, data: bytes | None = None) -> EnrollmentRecord:
    """Parse and check one record file (its bytes ``data`` if already read);
    a malformed file or field, or a fingerprint that is not the XOR of the
    maps, raises ValueError naming the file (and the field)."""
    field = json_record(path, data)
    dim = field("array_dim", _array_dim)
    chip_id = field("chip_id", str)
    h, v, fp = [field(key, lambda text: hex_to_bits(text, dim * dim).reshape(dim, dim))
                for key in ("rdcm_h", "rdcm_v", "fingerprint")]
    if not np.array_equal(fp, h ^ v):
        raise ValueError(f"{path}: field 'fingerprint': not the XOR of rdcm_h and rdcm_v")
    cfg = field("acquisition", lambda acquisition: AcquisitionConfig(**acquisition))
    return EnrollmentRecord(chip_id=chip_id, rdcm_h=h, rdcm_v=v, enrollment_cfg=cfg)


def _scan_fields(data: bytes) -> Row | None:
    """A record file's chip_id, map side and packed fingerprint, read without
    a JSON parse from the lines save_enrollment writes last (its keys are
    sorted): array_dim, chip_id, fingerprint, rdcm_h and rdcm_v, the three
    maps of one length, then the closing brace and the end of the file.
    None, never an error, for a file that does not end so: a backslash
    after the array_dim line, a fingerprint other than the hex of
    ceil(side^2 / 8) bytes with the padding bits clear, or anything after
    the brace.

    Where JSON reads the file, these are the last keys of its top-level
    object: a raw newline is never inside a string, and nothing after the
    array_dim line opens or closes a bracket. So a parse that succeeds
    gives exactly the scanned row; a scanned file can still fail the parse
    in a field the scan does not read, such as the acquisition or a map."""
    at = data.find(b'\n  "array_dim": ') + 16
    comma = data.find(b",", at, at + 10)                # a side of at most 9 digits
    dim = data[at:comma]
    if at < 16 or not dim.isdigit() or not data.startswith(b',\n  "chip_id": "', comma):
        return None
    end = data.find(b'"', comma + 16)                   # closes the chip_id
    chip_id, side = data[comma + 16:end], int(dim)
    n = 2 * -(-side * side // 8)                        # hex digits of one map
    tail = data[end + 21 + n:]                          # from the fingerprint's closing quote
    if (data.find(b"\\", at) >= 0 or tail.count(b'"') != 9
            or not data.startswith(b'",\n  "fingerprint": "', end)
            or tail != b'",\n  "rdcm_h": "%s",\n  "rdcm_v": "%s"\n}\n' % (
                tail[16:16 + n], tail[32 + n:32 + 2 * n])):
        return None
    try:    # binascii decodes the bytes, no str: about half of bytes.fromhex's cost
        row = chip_id.decode(), side, binascii.a2b_hex(data[end + 21:end + 21 + n])
    except ValueError:
        return None
    if n and row[2][-1] & (1 << -side * side % 8) - 1:    # a padding bit set
        return None
    return row


def load_enrollment_db(db_dir: str | Path) -> EnrollmentDB:
    """Every ``*.enroll.json`` record in a directory. A missing directory
    raises OSError. Two files with one chip_id raise ValueError naming both:
    verify names its source by chip_id, so it could not tell which record's
    maps to query.

    Each file is read once. One that ``_scan_fields`` reads gives its row
    from those lines; every other file is parsed by ``load_enrollment``, a
    malformed one raising ValueError naming the file (and the field). A
    scanned file's acquisition and maps are checked by
    ``EnrollmentDB.record``, so a bad one fails only the runs that read that
    record. Nothing is written.
    """
    paths: dict[str, str] = {}
    rows = []
    prefix = os.path.join(db_dir, "")   # prefix + name is os.path.join(db_dir, name)
    for name in sorted(os.listdir(db_dir)):
        if not name.endswith(".enroll.json"):
            continue
        path = prefix + name
        data = read_bytes(path)
        row = _scan_fields(data)
        if row is None:
            record = load_enrollment(path, data)
            row = (record.chip_id, record.rdcm_h.shape[0], pack_bits(record.fingerprint.bits))
        if row[0] in paths:
            raise ValueError(f"{paths[row[0]]} and {path} both enroll chip_id {row[0]!r}")
        paths[row[0]] = path
        rows.append((*row, path))
    return EnrollmentDB(rows)
