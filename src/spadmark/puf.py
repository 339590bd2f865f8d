"""Binary PUF artifacts derived from dark count maps.

The relative maps mark, per pixel, whether its dark count beats its right
(horizontal) or lower (vertical) neighbor, with circular wrap at the array
edge. Because the comparison only uses ordering, any monotone rescaling of
the counts -- in particular the common exponential growth with temperature --
leaves the maps unchanged; that is the whole trick behind using them as a
stable device secret.

A challenge is a (D, D) uint8 grid of ``features.challenge_matrix`` address
bytes, or a stack of such grids; ``puf_query`` splits each byte into a map
row (high nibble) and column (low nibble). An enrollment database holds one
record per chip_id; ``load_enrollment_db`` rejects a duplicate. It keeps
every record's maps packed, as stored, and its fingerprints as one matrix;
a record's maps are unpacked only when the record itself is asked for.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .imager import AcquisitionConfig, ChipModel, DarkCountMap, acquire_dcm, json_record

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass
class RelativeDCM:
    """Binary neighbor-comparison map for one direction."""

    bits: np.ndarray            # uint8 {0,1}, array_dim x array_dim
    direction: str              # HORIZONTAL or VERTICAL
    chip_id: str


@dataclass
class Fingerprint:
    """XOR of the horizontal and vertical relative maps.

    The XOR masks the raw comparison bits, so the fingerprint can identify a
    device without exposing the maps that answer challenges.
    """

    bits: np.ndarray            # uint8 {0,1}
    chip_id: str


@dataclass
class EnrollmentRecord:
    """Golden PUF data stored with the verifier for one chip."""

    chip_id: str
    rdcm_h: RelativeDCM
    rdcm_v: RelativeDCM
    fingerprint: Fingerprint
    enrollment_cfg: AcquisitionConfig

    def pack(self) -> PackedRecord:
        return PackedRecord(chip_id=self.chip_id, dim=self.rdcm_h.bits.shape[0],
                            rdcm_h=pack_bits(self.rdcm_h.bits),
                            rdcm_v=pack_bits(self.rdcm_v.bits),
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
        return EnrollmentRecord(
            chip_id=self.chip_id,
            rdcm_h=RelativeDCM(bits=bits(self.rdcm_h), direction=HORIZONTAL, chip_id=self.chip_id),
            rdcm_v=RelativeDCM(bits=bits(self.rdcm_v), direction=VERTICAL, chip_id=self.chip_id),
            fingerprint=Fingerprint(bits=bits(self.fingerprint), chip_id=self.chip_id),
            enrollment_cfg=self.enrollment_cfg)


@dataclass
class ResponsePair:
    """Per-challenge-cell lookups into both relative maps."""

    r_h: np.ndarray             # uint8 {0,1}, the challenge's shape: (D, D) or a stack
    r_v: np.ndarray


def rdcm(dcm: DarkCountMap, direction: str) -> RelativeDCM:
    """Compare each pixel against its next neighbor in the given direction.

    Horizontal: bit(r,c) = counts(r,c) > counts(r, (c+1) mod P).
    Vertical:   bit(r,c) = counts(r,c) > counts((r+1) mod P, c).
    Ties score 0. Circular wrap keeps the map the full P x P.
    """
    counts = np.asarray(dcm.counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"dark count map must be square, got shape {counts.shape}")
    if counts.shape[0] < 2:
        raise ValueError("dark count map side must be >= 2")
    if direction == HORIZONTAL:
        neighbor = np.roll(counts, -1, axis=1)
    elif direction == VERTICAL:
        neighbor = np.roll(counts, -1, axis=0)
    else:
        raise ValueError(f"direction must be {HORIZONTAL!r} or {VERTICAL!r}, got {direction!r}")
    return RelativeDCM(bits=(counts > neighbor).astype(np.uint8),
                       direction=direction, chip_id=dcm.chip_id)


def fingerprint(h: RelativeDCM, v: RelativeDCM) -> Fingerprint:
    """Elementwise XOR of the two relative maps."""
    if h.chip_id != v.chip_id:
        raise ValueError(f"chip_id mismatch: {h.chip_id!r} vs {v.chip_id!r}")
    if h.bits.shape != v.bits.shape:
        raise ValueError(f"shape mismatch: {h.bits.shape} vs {v.bits.shape}")
    return Fingerprint(bits=np.bitwise_xor(h.bits, v.bits), chip_id=h.chip_id)


def golden_acquisition(chip: ChipModel, rng_seed: int = 0) -> AcquisitionConfig:
    """Default enrollment acquisition: 100 frames of 0.1 s at the reference
    temperature, enough integration to suppress shot noise on most pixels."""
    return AcquisitionConfig(temperature=chip.params.ref_temp, exposure=0.1,
                             n_frames=100, rng_seed=rng_seed)


def enroll(chip: ChipModel, cfg: AcquisitionConfig | None = None) -> EnrollmentRecord:
    """Acquire a multi-frame dark map and derive the golden PUF record."""
    cfg = cfg or golden_acquisition(chip)
    dcm = acquire_dcm(chip, cfg)
    h = rdcm(dcm, HORIZONTAL)
    v = rdcm(dcm, VERTICAL)
    return EnrollmentRecord(chip_id=chip.chip_id, rdcm_h=h, rdcm_v=v,
                            fingerprint=fingerprint(h, v), enrollment_cfg=cfg)


def puf_query(record: EnrollmentRecord, challenge: np.ndarray,
              response_map: str = "both") -> ResponsePair:
    """Read both relative maps at the challenge's address bytes.

    ``challenge`` holds ``features.challenge_matrix`` bytes, a (D, D) grid or a
    stack: high nibble = map row, low nibble = column. Other dtypes are rejected,
    not wrapped, as is any address at or past the array edge.
    ``response_map`` selects which map feeds the two response planes:
    "both" (default) uses horizontal and vertical, "h"/"v" duplicate a
    single map into both planes so the serialized layout stays fixed.
    """
    challenge = np.asarray(challenge)
    if challenge.dtype != np.uint8:
        raise ValueError(f"challenge must be uint8 address bytes, got dtype {challenge.dtype}")
    rows, cols = challenge >> 4, challenge & 0x0F
    dim = record.rdcm_h.bits.shape[0]
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
    first, second = lookup[response_map]
    return ResponsePair(r_h=first.bits[rows, cols].astype(np.uint8),
                        r_v=second.bits[rows, cols].astype(np.uint8))


# --- bit packing ------------------------------------------------------------
# Row-major bits, MSB-first within each hex digit. Lengths that are not a
# multiple of 4 are zero-padded on the right and trimmed on parse.

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


class EnrollmentDB:
    """Packed enrollment records in chip_id order, chip_ids distinct.

    ``fingerprints`` is one (N, W) uint8 matrix, row i the packed
    fingerprint of the i-th record, zero-filled to the widest record's
    W bytes; ``dims`` holds each record's map side. Iterating or ``record``
    unpacks the maps.
    """

    def __init__(self, records: Iterable[PackedRecord]):
        ordered = sorted(records, key=lambda r: r.chip_id)
        self._records = {r.chip_id: r for r in ordered}
        if len(self._records) != len(ordered):
            raise ValueError("enrollment records must have distinct chip_ids")
        self.chip_ids = list(self._records)
        self.dims = np.array([r.dim for r in ordered], dtype=np.int64)
        width = max((len(r.fingerprint) for r in ordered), default=0)
        rows = b"".join(r.fingerprint.ljust(width, b"\0") for r in ordered)
        self.fingerprints = np.frombuffer(rows, dtype=np.uint8).reshape(len(ordered), width)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EnrollmentRecord]:
        return (r.unpack() for r in self._records.values())

    def record(self, chip_id: str) -> EnrollmentRecord:
        return self._records[chip_id].unpack()


def enrollment_path(db_dir: str | Path, chip_id: str) -> Path:
    return Path(db_dir) / f"{chip_id}.enroll.json"


def save_enrollment(record: EnrollmentRecord, db_dir: str | Path) -> Path:
    path = enrollment_path(db_dir, record.chip_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    packed = record.pack()
    payload = {
        "chip_id": packed.chip_id,
        "array_dim": packed.dim,
        "acquisition": asdict(packed.enrollment_cfg),
        **{key: getattr(packed, key).hex() for key in MAPS},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _array_dim(value) -> int:
    # checked here: the maps stay packed, so no reshape would reject it
    dim = int(value)
    if dim < 0:
        raise ValueError(f"must be >= 0, got {dim}")
    return dim


def _read_record(path: str | Path) -> PackedRecord:
    """Parse and check one record file, keeping its maps packed; a malformed
    file or field raises ValueError naming the file (and the field)."""
    field = json_record(path)
    dim = field("array_dim", _array_dim)
    chip_id = field("chip_id", str)
    maps = {key: field(key, lambda text: hex_to_packed(text, dim * dim)) for key in MAPS}
    cfg = field("acquisition", lambda acquisition: AcquisitionConfig(**acquisition))
    return PackedRecord(chip_id=chip_id, dim=dim, enrollment_cfg=cfg, **maps)


def load_enrollment(path: str | Path) -> EnrollmentRecord:
    """Parse one record; a malformed file or field raises ValueError naming
    the file (and the field)."""
    return _read_record(path).unpack()


def load_enrollment_db(db_dir: str | Path) -> EnrollmentDB:
    """Every ``*.enroll.json`` record in a directory, each fully checked.
    A missing directory raises OSError. Two files with one chip_id raise
    ValueError naming both: verify names its source by chip_id, so it could
    not tell which record's maps to query."""
    paths: dict[str, str] = {}
    records = []
    for name in sorted(os.listdir(db_dir)):
        if not name.endswith(".enroll.json"):
            continue
        path = os.path.join(db_dir, name)
        record = _read_record(path)
        if record.chip_id in paths:
            raise ValueError(
                f"{paths[record.chip_id]} and {path} both enroll chip_id {record.chip_id!r}")
        paths[record.chip_id] = path
        records.append(record)
    return EnrollmentDB(records)
