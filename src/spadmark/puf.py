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

An enrollment database is a directory of ``*.enroll.json`` records, one per
chip_id; ``load_enrollment_db`` rejects a duplicate. In memory it is what
source identification needs: the chip_ids, map sides and packed
fingerprints as one matrix, plus each record's path. A record's maps are
read from its file only when the record itself is asked for. The directory
also holds a derived index, ``.enroll-index.npy``, of those fields keyed by
the SHA-256 of each record file's bytes, so a load parses only the records
that changed since the last one. The records stay the source of truth: the
index is safe to delete, and is not written where the directory is
read-only.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .imager import (AcquisitionConfig, ChipModel, acquire_dcm, json_record,
                     save_json_record, write_atomic)


@dataclass
class Fingerprint:
    """XOR of the horizontal and vertical relative maps.

    The XOR masks the raw comparison bits, so the fingerprint can identify a
    device without exposing the maps that answer challenges.
    """

    bits: np.ndarray            # uint8 {0,1}, array_dim x array_dim


@dataclass
class EnrollmentRecord:
    """Golden PUF data stored with the verifier for one chip."""

    chip_id: str
    rdcm_h: np.ndarray          # uint8 {0,1}, array_dim x array_dim
    rdcm_v: np.ndarray
    fingerprint: Fingerprint
    enrollment_cfg: AcquisitionConfig

    def pack(self) -> PackedRecord:
        return PackedRecord(chip_id=self.chip_id, dim=self.rdcm_h.shape[0],
                            rdcm_h=pack_bits(self.rdcm_h),
                            rdcm_v=pack_bits(self.rdcm_v),
                            fingerprint=pack_bits(self.fingerprint.bits),
                            enrollment_cfg=self.enrollment_cfg)


@dataclass(frozen=True, slots=True)
class PackedRecord:
    """An enrollment record as stored: each dim x dim map is ceil(dim^2 / 8)
    bytes, row-major, MSB first, with the padding bits zero."""

    chip_id: str
    dim: int
    rdcm_h: bytes
    rdcm_v: bytes
    fingerprint: bytes
    enrollment_cfg: AcquisitionConfig

    def unpack(self) -> EnrollmentRecord:
        def bits(packed: bytes) -> np.ndarray:
            raw = np.frombuffer(packed, dtype=np.uint8)
            return np.unpackbits(raw, count=self.dim * self.dim).reshape(self.dim, self.dim)
        return EnrollmentRecord(chip_id=self.chip_id,
                                rdcm_h=bits(self.rdcm_h), rdcm_v=bits(self.rdcm_v),
                                fingerprint=Fingerprint(bits=bits(self.fingerprint)),
                                enrollment_cfg=self.enrollment_cfg)


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
    """Default enrollment acquisition: 100 frames of 0.1 s at the reference
    temperature, enough integration to suppress shot noise on most pixels."""
    return AcquisitionConfig(temperature=chip.params.ref_temp, exposure=0.1,
                             n_frames=100, rng_seed=rng_seed)


def enroll(chip: ChipModel, cfg: AcquisitionConfig | None = None) -> EnrollmentRecord:
    """Acquire a multi-frame dark map and derive the golden PUF record."""
    cfg = cfg or golden_acquisition(chip)
    h, v = rdcm(acquire_dcm(chip, cfg))
    return EnrollmentRecord(chip_id=chip.chip_id, rdcm_h=h, rdcm_v=v,
                            fingerprint=fingerprint(h, v), enrollment_cfg=cfg)


def puf_query(record: EnrollmentRecord, challenge: np.ndarray,
              response_map: str = "both") -> np.ndarray:
    """Read both relative maps at the challenge's address bytes.

    ``challenge`` holds ``features.challenge_matrix`` bytes, a (D, D) grid or a
    stack: high nibble = map row, low nibble = column. Other dtypes are rejected,
    not wrapped, as is any address at or past the array edge. The result is
    one uint8 {0,1} array of shape (2, *challenge.shape): plane 0 is read
    from the horizontal map, plane 1 from the vertical one.
    ``response_map`` selects which map feeds the two response planes:
    "both" (default) uses horizontal and vertical, "h"/"v" duplicate a
    single map into both planes so the serialized layout stays fixed.
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
    lookup = {
        "both": (record.rdcm_h, record.rdcm_v),
        "h": (record.rdcm_h, record.rdcm_h),
        "v": (record.rdcm_v, record.rdcm_v),
    }
    if response_map not in lookup:
        raise ValueError(f"response_map must be 'h', 'v' or 'both', got {response_map!r}")
    return np.array(lookup[response_map], dtype=np.uint8)[:, rows, cols]


# --- bit packing ------------------------------------------------------------
# Row-major bits, MSB first within each byte. A length that is not a
# multiple of 8 is zero-padded to whole bytes (a 9-bit map is 2 bytes with
# 7 padding bits), and the padding is trimmed on parse.

def pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8).ravel()).tobytes()


def bits_to_hex(bits: np.ndarray) -> str:
    return pack_bits(bits).hex()


def hex_to_packed(hexstr: str, n_bits: int) -> bytes:
    """The first ``n_bits`` of a hex string, packed into ceil(n_bits / 8)
    bytes; the padding bits of the last byte are cleared."""
    raw = bytes.fromhex(hexstr)
    if 8 * len(raw) < n_bits:
        raise ValueError(f"hex string holds {8 * len(raw)} bits, expected {n_bits}")
    size, pad = -(-n_bits // 8), -n_bits % 8
    if pad:
        return raw[:size - 1] + bytes([raw[size - 1] >> pad << pad])
    return raw[:size]


def hex_to_bits(hexstr: str, n_bits: int) -> np.ndarray:
    raw = np.frombuffer(hex_to_packed(hexstr, n_bits), dtype=np.uint8)
    return np.unpackbits(raw, count=n_bits)


# --- enrollment database ----------------------------------------------------

MAPS = ("rdcm_h", "rdcm_v", "fingerprint")

# A database directory's derived index: one row per record file, keyed by
# the SHA-256 of the file's bytes, holding what the fingerprint scan needs.
# The name does not end in ".enroll.json", so the index is never a record.
INDEX_NAME = ".enroll-index.npy"

Row = tuple[str, int, bytes]     # chip_id, map side, packed fingerprint

# The index is a .npy file (version 1.0) of one structured array, with the
# header numpy writes for it; chip_id width, fingerprint width and row count
# vary. Matching the header text, instead of parsing it as numpy does, keeps
# a damaged file from raising or allocating more than its size.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_INDEX_LAYOUT = (b"{'descr': [('digest', '|V32'), ('chip_id', '<U%d'), ('dim', '<i8'), "
                 b"('fingerprint', '|u1', (%d,))], 'fortran_order': False, 'shape': (%d,), }")
_INDEX_HEADER = re.compile(re.escape(_INDEX_LAYOUT).replace(b"%d", rb"(\d{1,12})") + rb" *\n")


def _index_dtype(id_len: int, fp_len: int) -> np.dtype:
    return np.dtype([("digest", "V32"), ("chip_id", f"<U{id_len}"), ("dim", "<i8"),
                     ("fingerprint", "u1", (fp_len,))])


class EnrollmentDB:
    """Enrolled chips in chip_id order, chip_ids distinct: what the
    fingerprint scan needs, and the file each full record is read from.

    Built from (chip_id, map side, packed fingerprint, record path) rows.
    ``fingerprints`` is one (N, W) uint8 matrix, row i the packed
    fingerprint of the i-th chip, zero-filled to the widest row's W bytes;
    ``dims`` holds each map side and ``paths`` each record file. Iterating or
    ``record`` parses a record from its file; a file that no longer gives
    the chip_id, map side and fingerprint of its row raises ValueError
    naming it, so a stale or forged row can never name a source.
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
        record = _read_record(path)
        if (record.chip_id != chip_id or record.dim != self.dims[i]
                or record.fingerprint.ljust(self.fingerprints.shape[1], b"\0")
                != self.fingerprints[i].tobytes()):
            raise ValueError(f"{path}: record does not match the database row of chip_id "
                             f"{chip_id!r} (changed since loading, or a bad {INDEX_NAME})")
        return record.unpack()


def enrollment_path(db_dir: str | Path, chip_id: str) -> Path:
    return Path(db_dir) / f"{chip_id}.enroll.json"


def save_enrollment(record: EnrollmentRecord, db_dir: str | Path) -> Path:
    packed = record.pack()
    return save_json_record(enrollment_path(db_dir, record.chip_id), {
        "chip_id": packed.chip_id,
        "array_dim": packed.dim,
        "acquisition": asdict(packed.enrollment_cfg),
        **{key: getattr(packed, key).hex() for key in MAPS},
    })


def _array_dim(value) -> int:
    # checked here: the maps stay packed, so no reshape would reject it
    dim = int(value)
    if dim < 0:
        raise ValueError(f"must be >= 0, got {dim}")
    return dim


def _read_record(path: str | Path, data: bytes | None = None) -> PackedRecord:
    """Parse and check one record file (its bytes ``data`` if already read),
    keeping its maps packed; a malformed file or field raises ValueError
    naming the file (and the field)."""
    field = json_record(path, data)
    dim = field("array_dim", _array_dim)
    chip_id = field("chip_id", str)
    maps = {key: field(key, lambda text: hex_to_packed(text, dim * dim)) for key in MAPS}
    cfg = field("acquisition", lambda acquisition: AcquisitionConfig(**acquisition))
    return PackedRecord(chip_id=chip_id, dim=dim, enrollment_cfg=cfg, **maps)


def load_enrollment(path: str | Path) -> EnrollmentRecord:
    """Parse one record; a malformed file or field raises ValueError naming
    the file (and the field)."""
    return _read_record(path).unpack()


def _read_index(path: str) -> dict[bytes, Row]:
    """An index file's rows by record digest. An index that is missing,
    unreadable, truncated or in another layout has none."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return {}
    if not data.startswith(_NPY_MAGIC):
        return {}
    end = 10 + int.from_bytes(data[8:10], "little")
    match = _INDEX_HEADER.fullmatch(data[10:end])
    if not match:
        return {}
    id_len, width, n = map(int, match.groups())
    itemsize = 40 + 4 * id_len + width
    if not n or id_len < 1 or n * itemsize != len(data) - end:
        return {}
    table = np.frombuffer(data, _index_dtype(id_len, width), offset=end)
    dims = table["dim"]
    if ((dims < 0) | (dims > 8 * width) | (dims * dims > 8 * width)).any():
        return {}
    at = end + itemsize - width         # row 0's fingerprint; each row ends with one
    return {digest: (chip_id, dim, data[at + i * itemsize:at + i * itemsize + -(-dim * dim // 8)])
            for i, (digest, chip_id, dim) in enumerate(zip(
                table["digest"].tolist(), table["chip_id"].tolist(), dims.tolist()))}


def _write_index(path: str, rows: dict[bytes, Row]) -> None:
    id_len = max([1] + [len(chip_id) for chip_id, _, _ in rows.values()])
    width = max((len(fp) for _, _, fp in rows.values()), default=0)
    table = np.zeros(len(rows), _index_dtype(id_len, width))
    table["digest"] = list(rows)
    table["chip_id"] = [chip_id for chip_id, _, _ in rows.values()]
    table["dim"] = [dim for _, dim, _ in rows.values()]
    table["fingerprint"] = np.frombuffer(
        b"".join(fp.ljust(width, b"\0") for _, _, fp in rows.values()),
        dtype=np.uint8).reshape(len(rows), width)
    header = _INDEX_LAYOUT % (id_len, width, len(rows))
    header += b" " * (-(len(header) + 11) % 64) + b"\n"     # .npy aligns the data to 64
    write_atomic(path, _NPY_MAGIC + len(header).to_bytes(2, "little") + header, table)


def _indexable(row: Row, data: bytes) -> bool:
    """Whether an index row can stand for the record file ``data``: numpy's
    U dtype keeps its chip_id (it drops trailing NULs), and ``data`` holds its
    fingerprint as save_enrollment writes it, so a damaged row costs a parse
    instead of hiding its chip."""
    chip_id, _, fp = row
    at = data.find(b'"fingerprint": "')
    return (at >= 0 and not chip_id.endswith("\0")
            and data.startswith(b'%s"' % fp.hex().encode(), at + 16))


def _read_bytes(path: str) -> bytes:
    """A file's bytes. os.read costs a third of ``open(path, "rb").read()``
    on a small record; an error names the path, as open's would."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:      # a directory opens, and fails only here
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def load_enrollment_db(db_dir: str | Path) -> EnrollmentDB:
    """Every ``*.enroll.json`` record in a directory, each checked as
    ``load_enrollment`` checks it. A missing directory raises OSError. Two
    files with one chip_id raise ValueError naming both: verify names its
    source by chip_id, so it could not tell which record's maps to query.

    Every file is read in full. One whose SHA-256 has an indexable row in
    the directory's ``INDEX_NAME`` is not parsed; the key is the content, so
    an edited, renamed, added or removed record is never served stale. The
    index is rewritten, atomically, only when the rows it should hold
    changed, and silently not where it cannot be written.
    """
    import hashlib      # loads OpenSSL's libcrypto, ~3.7 MB resident: only loads need it

    index_path = os.path.join(db_dir, INDEX_NAME)
    index = _read_index(index_path)
    paths: dict[str, str] = {}
    rows, fresh = [], {}
    prefix = os.path.join(db_dir, "")   # prefix + name is os.path.join(db_dir, name)
    for name in sorted(os.listdir(db_dir)):
        if not name.endswith(".enroll.json"):
            continue
        path = prefix + name
        data = _read_bytes(path)
        digest = hashlib.sha256(data).digest()
        row = index.get(digest)
        hit = row is not None and _indexable(row, data)
        if not hit:
            record = _read_record(path, data)
            row = (record.chip_id, record.dim, record.fingerprint)
        if row[0] in paths:
            raise ValueError(f"{paths[row[0]]} and {path} both enroll chip_id {row[0]!r}")
        paths[row[0]] = path
        rows.append((*row, path))
        if hit or _indexable(row, data):
            fresh[digest] = row
    if fresh != index:
        with suppress(OSError):
            _write_index(index_path, fresh)
    return EnrollmentDB(rows)
