"""Source identification, tamper detection and quantitative metrics.

Verification never touches a chip's rate field; it works purely from
enrollment records. The verdict is built in three steps: identify the
claimed source by fingerprint distance against the enrollment database,
recompute the challenge from the received image content (LSB-masked, so the
embedded payload cannot disturb it), then compare both the embedded
challenge and the embedded responses against what the enrolled maps say the
recomputed challenge should produce. Content edits show up as challenge
mismatches with per-cell localization; transplanted or forged payloads show
up as response mismatches.

Marking, verification and the robustness sweep build every challenge the
same way: ``challenge_grid``, then ``image_challenge`` (see ``features``).
``challenge_grid`` is the one place that clears LSBs, twice: on the host,
strip by strip inside ``downsample``, so the payload cannot leak into the
block means, and on the grid, because the served watermark bytes were
defined with that clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import features
from .codec import Watermark, WatermarkLayout, assemble, disassemble, extract_lsb
from .features import FeatureConfig, challenge_matrix, downsample, _check_gray
from .imager import MIN_ARRAY_DIM, chip_seed
from .puf import EnrollmentDB, EnrollmentRecord, Fingerprint, puf_query

AUTHENTIC = "authentic"
TAMPERED = "tampered"
UNKNOWN_SOURCE = "unknown-source"


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds, as mismatch fractions.

    Defaults sit far from both sides of the simulated distributions:
    fingerprint self-distance is ~0 vs ~0.5 across chips, and any content
    edit drives the challenge mismatch above zero.
    """

    tau_fingerprint: float = 0.25
    tau_challenge: float = 0.0
    tau_response: float = 0.05

    def __post_init__(self) -> None:
        for name in ("tau_fingerprint", "tau_challenge", "tau_response"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


@dataclass
class VerifyReport:
    challenge_match_frac: float
    response_match_frac: float
    fingerprint_best_match: tuple[str, float] | None
    verdict: str
    tamper_cells: list[tuple[int, int]] = field(default_factory=list)


def hamming_frac(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of differing bits between two equal-size bit arrays."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError(f"bit strings differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("bit strings are empty")
    return float(np.mean(a != b))


def challenge_grid(img: np.ndarray, grid_dim: int) -> np.ndarray:
    """Block-mean grid of an image, with the LSB plane cleared before and
    after the block mean: the challenge ignores the LSB plane.

    The first clear, of the host's pixels, keeps the payload bits out of
    the means, so the recomputed challenge of a marked image is
    bit-identical to the original's; ``downsample`` makes it strip by
    strip, so the host is neither copied nor written. The second, on the
    grid, is not redundant: a block mean can be odd, and clearing the LSB
    of a mean one above a band edge (33, 65, ...) moves that cell into the
    lower band. Served watermarks depend on it.
    """
    return downsample(img, grid_dim, clear_lsb=True) & 0xFE


def image_challenge(img: np.ndarray, cfg: FeatureConfig, grid_dim: int) -> np.ndarray:
    """Challenge address bytes for an image: ``challenge_grid``, then quantize."""
    return challenge_matrix(challenge_grid(img, grid_dim), cfg)


def generate_watermark(img: np.ndarray, record: EnrollmentRecord,
                       cfg: FeatureConfig | None = None,
                       grid_dim: int = WatermarkLayout.grid_dim) -> Watermark:
    """Full generation pipeline: image content -> challenge -> responses ->
    serialized watermark with the record's fingerprint, of side P, appended."""
    cfg = cfg or FeatureConfig()
    layout = WatermarkLayout(grid_dim=grid_dim, puf_dim=record.rdcm_h.shape[0])
    challenge = image_challenge(img, cfg, grid_dim)
    response = puf_query(record, challenge)
    return assemble(challenge, response, record.fingerprint, layout)


def identify_source(fp: Fingerprint, db: EnrollmentDB,
                    thresholds: Thresholds | None = None) -> tuple[str, float] | None:
    """Nearest enrolled fingerprint by fractional Hamming distance, or None
    if nothing falls below the identification threshold.

    Records whose maps differ in size from ``fp`` are skipped; a tie goes
    to the first chip_id. One XOR and popcount over the packed fingerprint
    matrix; popcount / P^2 equals ``hamming_frac`` exactly.
    """
    thresholds = thresholds or Thresholds()
    bits = np.asarray(fp.bits)
    dim = bits.shape[0] if bits.ndim == 2 and bits.shape[0] == bits.shape[1] > 0 else -1
    same_size = db.dims == dim
    if not same_size.any():
        return None
    query = np.packbits(bits)
    diff = db.fingerprints[:, :query.size] ^ query
    counts = np.bitwise_count(diff, out=diff).sum(axis=1, dtype=np.int64)
    best = int(np.argmin(np.where(same_size, counts, 8 * query.size + 1)))
    distance = int(counts[best]) / bits.size
    if distance < thresholds.tau_fingerprint:
        return db.chip_ids[best], distance
    return None


def verify(img: np.ndarray, db: EnrollmentDB,
           cfg: FeatureConfig | None = None,
           grid_dim: int = WatermarkLayout.grid_dim,
           thresholds: Thresholds | None = None) -> VerifyReport:
    """Check a marked image against the enrollment database.

    Returns unknown-source when no enrolled fingerprint is close enough,
    tampered when the embedded challenge disagrees with the image content or
    the embedded responses disagree with the identified device's maps, and
    authentic otherwise. ``tamper_cells`` lists every challenge-grid cell
    whose recomputed address differs from the embedded one; the response
    match is 0.0 when no source was identified. The map side P comes from
    ``db``: the fingerprint block is read at each enrolled side of at least
    ``imager.MIN_ARRAY_DIM`` whose payload fits the image, or at the default
    side if none does, and the nearest match over all sides, a tie to the
    smaller side, names the source.
    """
    cfg = cfg or FeatureConfig()
    thresholds = thresholds or Thresholds()

    # the enrolled sides, ascending, by bincount: np.unique takes 8x as long
    # and 1.5 MB more peak memory. A side under MIN_ARRAY_DIM cannot answer
    # every challenge, so no such record is named.
    sides = [side for side in np.flatnonzero(np.bincount(db.dims)).tolist()
             if side >= MIN_ARRAY_DIM]
    layouts = [layout for layout in (WatermarkLayout(grid_dim, side) for side in sides)
               if layout.total_bits <= np.size(img)] or [WatermarkLayout(grid_dim)]
    embedded = extract_lsb(img, layouts[-1]).bits   # each side's payload is a prefix of it
    blocks = [disassemble(Watermark(embedded[:layout.total_bits], layout)) for layout in layouts]
    c_emb, r_emb, _ = blocks[0]     # the challenge and responses precede the fingerprint
    c_img = image_challenge(img, cfg, grid_dim)

    c_diff = c_emb ^ c_img
    # popcount / bits equals hamming_frac of the unpacked bits exactly
    c_flips = int(np.bitwise_count(c_diff).sum(dtype=np.int64))
    challenge_match = 1.0 - c_flips / (8 * c_diff.size)
    tamper_cells = [(int(r), int(c)) for r, c in np.argwhere(c_diff)]

    best = min(filter(None, (identify_source(f_emb, db, thresholds) for *_, f_emb in blocks)),
               key=lambda match: match[1], default=None)     # the first of a tie
    if best is None:
        response_match, verdict = 0.0, UNKNOWN_SOURCE
    else:
        response_match = 1.0 - hamming_frac(r_emb, puf_query(db.record(best[0]), c_img))
        tampered = (challenge_match < 1.0 - thresholds.tau_challenge
                    or response_match < 1.0 - thresholds.tau_response)
        verdict = TAMPERED if tampered else AUTHENTIC
    return VerifyReport(challenge_match_frac=challenge_match,
                        response_match_frac=response_match,
                        fingerprint_best_match=best,
                        verdict=verdict,
                        tamper_cells=tamper_cells)


def sensitivity(img_change_frac: float, wm_change_frac: float) -> float:
    """Ratio of watermark change to image change (both as fractions)."""
    if img_change_frac <= 0:
        raise ValueError("sensitivity is undefined for zero image change")
    return wm_change_frac / img_change_frac


def _gaussian_noise(pixels: np.ndarray, sigmas: list[float], seed: int) -> list[np.ndarray]:
    """One noisy uint8 copy of ``pixels`` per sigma, all from one draw of
    the seed's standard normals.

    Each copy is ``pixels + default_rng(seed).normal(0, sigma, shape)``,
    rounded and clamped to [0, 255], bit for bit: ``normal(0, sigma)`` is
    ``0 + sigma * standard_normal``, draw for draw. The normals are drawn
    ``features.STRIP_PIXELS // 8`` pixels at a time (256 KB of float64)
    into reused buffers; consecutive strips continue one stream, so this is
    the whole-image draw without a whole-image float array. Every sigma is
    checked before anything is drawn.
    """
    for sigma in sigmas:
        if not 0 <= sigma < math.inf:       # also rejects NaN
            raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    rng = np.random.default_rng(chip_seed(seed))
    flat = np.ascontiguousarray(pixels).reshape(-1)
    outs = [np.empty(flat.size, dtype=np.uint8) for _ in sigmas]
    step = max(1, features.STRIP_PIXELS // 8)
    normal = np.empty(min(step, flat.size))      # both reused by every strip
    noisy = np.empty_like(normal)
    for start in range(0, flat.size, step):
        stop = min(start + step, flat.size)
        z = rng.standard_normal(out=normal[:stop - start])
        v = noisy[:stop - start]
        for sigma, out in zip(sigmas, outs):
            with np.errstate(over="ignore"):    # a huge sigma clips to 0 or 255
                np.multiply(z, sigma, out=v)
            v += flat[start:stop]
            np.clip(np.rint(v, out=v), 0, 255, out=v)
            out[start:stop] = v
    return [out.reshape(pixels.shape) for out in outs]


def add_gaussian_noise(img: np.ndarray, sigma: float, seed: int = 0) -> np.ndarray:
    """Per-pixel Gaussian perturbation, rounded and clamped to [0, 255]:
    ``img + default_rng(seed).normal(0, sigma, img.shape)``, streamed in
    strips so no full-size float copy is made."""
    return _gaussian_noise(_check_gray(img), [sigma], seed)[0]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images. Exact
    integer arithmetic (uint8 |x - y|, uint16 squares), no float copies.

    Both images are walked in strips of ``features.STRIP_PIXELS`` pixels,
    and no temporary is larger than a strip.
    """
    x = _check_gray(a)
    y = _check_gray(b)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    x = np.ascontiguousarray(x).reshape(-1)
    y = np.ascontiguousarray(y).reshape(-1)
    step = features.STRIP_PIXELS
    diff = np.empty(min(step, x.size), dtype=np.uint8)     # reused by every strip
    sse = 0
    for start in range(0, x.size, step):
        xs, ys = x[start:start + step], y[start:start + step]
        d = diff[:xs.size]
        np.maximum(xs, ys, out=d)
        d -= np.minimum(xs, ys)
        sse += int(np.multiply(d, d, dtype=np.uint16).sum(dtype=np.uint64))
    return _psnr_db(sse, x.size)


def _psnr_db(sse: int, size: int) -> float:
    """PSNR in dB of an exact integer squared-error sum over ``size`` 8-bit
    pixels; +inf when the sum is 0."""
    if sse == 0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / (sse / size))


def tolerant_flip_frac(clean: np.ndarray, noisy: list[np.ndarray],
                       record: EnrollmentRecord, overlaps: list[float]) -> np.ndarray:
    """Challenge+response bit flips, desensitized by the band overlap.

    ``clean`` and each of ``noisy`` are the ``challenge_grid`` of an image;
    the result holds the flip fraction of every noisy grid (columns) at
    every overlap (rows). A grid cell only counts as flipped when its noisy
    address byte ANDs to zero with the clean one at that overlap, i.e. the
    noisy value escaped the clean band widened by overlap/2 on each side
    (the comparator-with-hysteresis behavior the overlap exists to provide).
    Flipped cells are charged their single-threshold bit difference: the
    challenge address bits plus the two response lookups. With overlap 0
    this is exactly the plain Hamming fraction over the challenge and
    response blocks; wider overlaps can only remove flip events, never add
    them, because memberships grow with the overlap. All grids are stacked
    once and quantized and queried together.
    """
    cfgs = [FeatureConfig(overlap=overlap) for overlap in overlaps]
    grids = np.stack([clean, *noisy])
    single = challenge_matrix(grids, FeatureConfig())
    resp = puf_query(record, single)
    charges = np.bitwise_count(single[0] ^ single[1:]) + (resp[:, :1] != resp[:, 1:]).sum(0)
    total = WatermarkLayout(grid_dim=clean.shape[0]).fingerprint_slice.start   # C + R bits
    flips = np.empty((len(cfgs), len(noisy)))
    for i, cfg in enumerate(cfgs):
        bands = challenge_matrix(grids, cfg)
        escaped = (bands[0] & bands[1:]) == 0
        flips[i] = charges.sum(axis=(1, 2), where=escaped, dtype=np.int64) / total
    return flips


def robustness_sweep(img: np.ndarray, record: EnrollmentRecord,
                     sigmas: list[float], overlaps: list[float],
                     seeds: list[int],
                     grid_dim: int = WatermarkLayout.grid_dim) -> list[tuple[float, float, float]]:
    """Flip fraction of the image-dependent watermark bits under noise.

    For each (sigma, overlap): add Gaussian noise to the clean image and
    count challenge+response flips with ``tolerant_flip_frac``, averaged
    over the noise seeds. The fingerprint block is excluded since it never
    depends on the image. Each seed's standard normals are drawn once and
    scaled for every sigma, so the sigma rows see the same noise pattern,
    and the noisy grids are shared across overlaps so the overlap columns
    see identical noise. Every noisy image equals
    ``add_gaussian_noise(img, sigma, seed)``.
    """
    if not sigmas:
        raise ValueError("need at least one noise sigma")
    if not overlaps:
        raise ValueError("need at least one overlap")
    if not seeds:
        raise ValueError("need at least one noise seed")
    for overlap in overlaps:    # checked before any noise is drawn
        FeatureConfig(overlap=overlap)
    d = grid_dim
    pixels = _check_gray(img)
    clean = challenge_grid(pixels, d)
    noisy = []      # seed-major: one draw serves every sigma
    for seed in seeds:
        noisy.extend(challenge_grid(image, d) for image in _gaussian_noise(pixels, sigmas, seed))
    flips = tolerant_flip_frac(clean, noisy, record, overlaps).reshape(
        len(overlaps), len(seeds), len(sigmas))
    table = [(float(sigma), float(overlap), float(np.mean(flips[i, :, j])))
             for i, overlap in enumerate(overlaps) for j, sigma in enumerate(sigmas)]
    table.sort(key=lambda row: (row[0], row[1]))
    return table


# --- report bitmaps ---------------------------------------------------------

def watermark_bitmap(wm: Watermark) -> np.ndarray:
    """Render the watermark blocks as one 0/255 bitmap for visual diffing.

    Challenge bits on top (grid_dim rows, 8 bits per cell laid out along the
    row), responses and fingerprint side by side underneath.
    """
    layout = wm.layout
    d, p = layout.grid_dim, layout.puf_dim
    c_img = wm.bits[layout.challenge_slice].reshape(d, d * 8)
    responses = wm.bits[layout.response_slice].reshape(2, d, d)
    fp = wm.bits[layout.fingerprint_slice].reshape(p, p)
    bottom_h = max(d, p)
    bottom = np.zeros((bottom_h, 2 * d + p), dtype=np.uint8)
    bottom[:d, :2 * d] = np.hstack(responses)
    bottom[:p, 2 * d:] = fp
    width = max(c_img.shape[1], bottom.shape[1])
    canvas = np.zeros((d + bottom_h, width), dtype=np.uint8)
    canvas[:d, :c_img.shape[1]] = c_img
    canvas[d:, :bottom.shape[1]] = bottom
    return canvas * 255


def tamper_bitmap(report: VerifyReport, grid_dim: int) -> np.ndarray:
    """Grid-cell bitmap of the tamper localization (255 = flagged cell)."""
    canvas = np.zeros((grid_dim, grid_dim), dtype=np.uint8)
    for row, col in report.tamper_cells:
        canvas[row, col] = 255
    return canvas
