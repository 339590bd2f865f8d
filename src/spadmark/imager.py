"""Synthetic SPAD imager chips and dark-frame acquisition.

Each simulated chip owns a per-pixel dark count rate (DCR) field plus a
per-pixel temperature coefficient. Both are drawn deterministically from the
chip seed, so a chip can be persisted as (id, seed, params) alone and
regenerated bit-exactly. Dark frames are Poisson photon-counting draws from
the rate field. ``acquire_dcm`` integrates a configurable number of them into
one int64 count array, the dark count map, as a single Poisson draw: a sum of
independent Poisson frames has the distribution of one draw at their summed
mean. The default acquisition is 100 frames of 0.4 s.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

# The most dark counts a pixel may expect: numpy's Poisson limit (int64 max
# less ten standard deviations), so the one draw of a count map cannot
# overflow. Rates are counts/s; at most this many keep a one-second frame
# drawable.
MAX_COUNTS = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))

# The least map side: a challenge byte addresses a 16x16 window (high
# nibble row, low nibble column), and a smaller map cannot answer every
# challenge. The largest keeps new_chip's float64 fields to tens of MB.
MIN_ARRAY_DIM = 16
MAX_ARRAY_DIM = 1024


@dataclass(frozen=True)
class ChipParams:
    """Generative parameters for a simulated chip.

    ``dcr_sigma`` is the spread of log10(DCR) across the array: the default
    of 1.0 spans roughly two decades around the median, which produces the
    heavy hot-pixel tail seen on real dark count maps. ``doubling_temp_*``
    control the per-pixel exponential temperature response (rate doubles
    every ``doubling_temp`` degrees C).
    """

    array_dim: int = 64
    dcr_median: float = 100.0          # counts/s at ref_temp
    dcr_sigma: float = 1.0             # spread of log10(DCR), dimensionless
    doubling_temp_mean: float = 8.0    # deg C per rate doubling
    doubling_temp_jitter: float = 0.2  # per-pixel std-dev, deg C
    ref_temp: float = 25.0             # deg C
    gate_voltage: float = 0.0          # native operating point; fixed at 0 V

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not isinstance(value, Real) or not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if (not isinstance(self.array_dim, Integral)
                or not MIN_ARRAY_DIM <= self.array_dim <= MAX_ARRAY_DIM):
            raise ValueError(f"array_dim must be an integer from MIN_ARRAY_DIM {MIN_ARRAY_DIM} "
                             f"to MAX_ARRAY_DIM {MAX_ARRAY_DIM}, got {self.array_dim}")
        if self.dcr_median <= 0:
            raise ValueError(f"dcr_median must be > 0, got {self.dcr_median}")
        if self.dcr_sigma < 0:
            raise ValueError(f"dcr_sigma must be >= 0, got {self.dcr_sigma}")
        if self.doubling_temp_mean <= 0:
            raise ValueError(
                f"doubling_temp_mean must be > 0, got {self.doubling_temp_mean}")
        if self.doubling_temp_jitter < 0:
            raise ValueError(
                f"doubling_temp_jitter must be >= 0, got {self.doubling_temp_jitter}")
        if self.gate_voltage != 0.0:
            raise ValueError("only the native gate voltage (0.0 V) is supported")


@dataclass
class ChipModel:
    """One simulated chip: the unclonable ground truth.

    ``dcr_ref`` holds counts/s at ``params.ref_temp``; ``doubling_temp`` the
    per-pixel temperature coefficient in deg C. Both regenerate bit-exactly
    from (seed, params).
    """

    chip_id: str
    seed: int
    params: ChipParams
    dcr_ref: np.ndarray
    doubling_temp: np.ndarray


@dataclass(frozen=True)
class AcquisitionConfig:
    """One dark-frame acquisition: temperature, exposure, frame count, seed."""

    temperature: float = 25.0   # deg C
    exposure: float = 0.4       # seconds per frame
    n_frames: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("temperature", "exposure"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:     # also rejects NaN
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.exposure < 0:
            raise ValueError(f"exposure must be >= 0, got {self.exposure}")
        if (isinstance(self.n_frames, bool) or not isinstance(self.n_frames, Integral)
                or self.n_frames < 1):
            raise ValueError(f"n_frames must be an integer >= 1, got {self.n_frames!r}")
        chip_seed(self.rng_seed, "rng_seed")


def chip_seed(value, name: str = "seed") -> int:
    """A chip seed: a non-negative integer; bools and floats are rejected, so
    a record cannot name one chip and regenerate another."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def new_chip(chip_id: str, seed: int, params: ChipParams | None = None) -> ChipModel:
    """Draw a fresh chip from the manufacturing-variation model.

    DCR is log-normal per pixel with median ``dcr_median`` and log10-scale
    spread ``dcr_sigma``. The unit-variance log field is the normalized
    anti-diagonal difference of an iid Gaussian lattice: each pixel stays
    independent of its right and lower neighbors (so all neighbor-comparison
    statistics match a plain iid draw), but the two comparisons that later
    get XOR'd per pixel are decorrelated. A raw iid field leaves them
    correlated through the shared center pixel, which biases the XOR'd map
    toward 0 and drags cross-chip map distances visibly below one half.

    The doubling temperature is normal with the configured mean/jitter,
    clamped at half the mean so no pixel gets a degenerate near-zero
    coefficient. Everything is fully determined by (seed, params). A rate
    above ``MAX_COUNTS`` counts/s, infinite included, raises ValueError
    naming ``dcr_median`` and ``dcr_sigma``: no acquisition could draw it.
    """
    seed = chip_seed(seed)
    params = params or ChipParams()
    dim = params.array_dim
    rng = np.random.default_rng(seed)
    lattice = rng.standard_normal((dim, dim))
    log_field = (lattice - np.roll(lattice, (1, -1), axis=(0, 1))) * np.sqrt(0.5)
    # Doubling temperatures drift smoothly across the die (2x2 block average,
    # still exactly N(mean, jitter^2) per pixel): neighbors share most of
    # their thermal coefficient, so heating rescales neighbor pairs almost
    # uniformly and their ordering survives.
    grad = rng.standard_normal((dim, dim))
    smooth = 0.5 * (grad + np.roll(grad, 1, axis=0) + np.roll(grad, 1, axis=1)
                    + np.roll(grad, (1, 1), axis=(0, 1)))
    with np.errstate(over="ignore"):    # checked below, or clamped
        dcr_ref = params.dcr_median * 10.0 ** (params.dcr_sigma * log_field)
        doubling = params.doubling_temp_mean + params.doubling_temp_jitter * smooth
    peak = dcr_ref.max()
    if not peak <= MAX_COUNTS:
        raise ValueError(
            f"dcr_median {params.dcr_median:g} and dcr_sigma {params.dcr_sigma:g} give "
            f"dark count rates up to {peak:.3g} counts/s, above the {MAX_COUNTS:.3g} "
            f"an acquisition can draw")
    doubling = np.maximum(doubling, 0.5 * params.doubling_temp_mean)
    return ChipModel(chip_id=chip_id, seed=seed, params=params,
                     dcr_ref=dcr_ref, doubling_temp=doubling)


def dcr_map(chip: ChipModel, temperature: float) -> np.ndarray:
    """Full-array dark count rates (counts/s) at the given temperature.

    Each pixel's rate doubles every ``doubling_temp`` degrees above the
    reference temperature and halves symmetrically below it.
    """
    exponent = (temperature - chip.params.ref_temp) / chip.doubling_temp
    return chip.dcr_ref * 2.0 ** exponent


def acquire_dcm(chip: ChipModel, cfg: AcquisitionConfig) -> np.ndarray:
    """Integrate ``n_frames`` Poisson dark frames into one (array_dim,
    array_dim) int64 count map.

    Each frame counts an independent Poisson number per pixel with mean
    rate * exposure. Their sum has the distribution of one Poisson draw with
    mean n_frames * rate * exposure, so that one draw is taken: equal in
    distribution to the frame sum, not in bits. Deterministic given
    cfg.rng_seed. A zero exposure counts nothing at any temperature.
    Otherwise a pixel expecting more than ``MAX_COUNTS`` over all frames (an
    infinite rate included) raises ValueError naming the exposure and
    temperature before anything is drawn.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = dcr_map(chip, cfg.temperature)
        # an infinite rate times 0 s would be NaN, not 0
        mean = rates * (cfg.n_frames * cfg.exposure) if cfg.exposure else np.zeros_like(rates)
        peak = float(mean.max())
    if not peak <= MAX_COUNTS:
        raise ValueError(
            f"exposure {cfg.exposure:g} s at temperature {cfg.temperature:g} C gives up to "
            f"{peak:.3g} dark counts a pixel over {cfg.n_frames} frames, above the "
            f"{MAX_COUNTS:.3g} a count map holds")
    return rng.poisson(mean).astype(np.int64, copy=False)


# --- record files -------------------------------------------------------------

def read_bytes(path: str | Path) -> bytes:
    """A file's bytes. os.read costs a third of ``open(path, "rb").read()``
    on a small record, and a read of a regular file returns less than it
    asked for only at the end, so a record under 64 KiB takes one read. The
    open does not block, so a FIFO with no writer reads as empty instead of
    hanging. An error names the path, as open's would."""
    path = os.fspath(path)
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        chunks = [os.read(fd, 1 << 16)]
        while len(chunks[-1]) == 1 << 16:
            chunks.append(os.read(fd, 1 << 16))
    except OSError as exc:      # a directory opens, and fails only here
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def json_record(path: str | Path, data: bytes | None = None):
    """Parse a JSON object record, the file's bytes ``data`` if the caller
    already read them; return ``field(key, parse)``, which gives
    ``parse(payload[key])``. Bad UTF-8 or JSON, a non-object, a missing key or
    a value ``parse`` rejects raises ValueError naming the file (and field)."""
    if data is None:
        data = read_bytes(path)
    try:
        payload = json.loads(data)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")

    def field(key, parse):
        if key not in payload:
            raise ValueError(f"{path}: missing field {key!r}")
        try:
            return parse(payload[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: field {key!r}: {exc}") from exc

    return field


def save_json_record(path: Path, payload: dict) -> Path:
    """Write a record as indented JSON with sorted keys, through a temporary
    file in the same directory and ``os.replace``: a reader, or a writer
    killed midway, sees the old record or the new one, never a part. On
    failure the temporary file is removed and the error raised."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a str, not path.with_name: pathlib interns every name it parses, and a
    # fresh random name per write makes the interned-string table rebuild
    # itself (about 1 MB at a time) every few thousand writes
    tmp = os.path.join(path.parent, f".{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


# --- chip persistence -------------------------------------------------------
# Only (chip_id, seed, params) hit disk; the matrices are regenerated.

def record_path(db_dir: str | Path, chip_id: str, suffix: str) -> Path:
    """``db_dir / (chip_id + suffix)``, for a chip_id that is a plain file name."""
    if chip_id in ("", ".", "..") or "/" in chip_id or os.sep in chip_id:
        raise ValueError(f"chip id {chip_id!r} is not a plain file name")
    return Path(db_dir) / f"{chip_id}{suffix}"


def chip_path(db_dir: str | Path, chip_id: str) -> Path:
    return record_path(db_dir, chip_id, ".chip.json")


def save_chip(chip: ChipModel, db_dir: str | Path) -> Path:
    return save_json_record(chip_path(db_dir, chip.chip_id),
                            {"chip_id": chip.chip_id, "seed": chip.seed,
                             "params": asdict(chip.params)})


def load_chip(path: str | Path) -> ChipModel:
    """Regenerate a saved chip; a malformed file raises ValueError naming it."""
    field = json_record(path)
    params = field("params", lambda fields: ChipParams(**fields))
    chip_id, seed = field("chip_id", str), field("seed", chip_seed)
    try:
        return new_chip(chip_id, seed, params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
