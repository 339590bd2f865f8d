"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Host images are synthetic 512x512 scenes; chips, enrollments and
noise realizations are all seed-pinned, so every number here is exact and
reproducible.
"""

import hashlib

import numpy as np
import pytest

from spadmark import (AcquisitionConfig, EnrollmentDB, FeatureConfig, WatermarkLayout,
                      acquire_dcm, assemble, disassemble, embed_lsb,
                      enroll, extract_lsb, generate_watermark,
                      golden_acquisition, hamming_frac, new_chip, psnr,
                      rdcm, read_pgm, robustness_sweep, sensitivity, verify,
                      write_pgm)
from spadmark.codec import Watermark
from spadmark.cli import main
from spadmark.verifier import AUTHENTIC, TAMPERED
from conftest import make_image


def _report(number: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def band_oracle(value: int) -> int:
    return min(max(-(-max(value, 1) // 32), 1), 8)


def test_criterion_1_quantizer_oracle_equivalence():
    failures = []
    from spadmark import feature_images
    planes = feature_images(np.arange(256, dtype=np.uint8).reshape(1, 256),
                            FeatureConfig())[:, 0, :]
    for value in range(256):
        active = np.nonzero(planes[:, value])[0]
        if active.size != 1:
            failures.append(f"popcount {active.size} at {value}")
        elif active[0] + 1 != band_oracle(value):
            failures.append(f"band mismatch at {value}")
    _report(1, "nested-sign quantizer equals band oracle on all 256 levels",
            failures)


def test_criterion_2_end_to_end_authenticity(tmp_path, records, host_images):
    failures = []
    db = EnrollmentDB(record.pack() for record in records[:3])
    for i, img in enumerate(host_images):
        path = tmp_path / f"host{i}.pgm"
        write_pgm(img, path)
        host = read_pgm(path)
        for record in db:
            wm = generate_watermark(host, record)
            report = verify(embed_lsb(host, wm), db)
            if report.verdict != AUTHENTIC:
                failures.append(f"img{i}/{record.chip_id}: {report.verdict}")
            if report.challenge_match_frac != 1.0 or report.response_match_frac != 1.0:
                failures.append(
                    f"img{i}/{record.chip_id}: c={report.challenge_match_frac} "
                    f"r={report.response_match_frac}")
    _report(2, "3 chips x 3 hosts verify with exact 1.0 challenge/response match",
            failures)


def test_criterion_3_source_identification(records, host_images):
    failures = []
    layout = WatermarkLayout()
    tail = slice(layout.challenge_bits, layout.total_bits)

    cross_chip = []
    for img in host_images:
        wms = [generate_watermark(img, record) for record in records[:3]]
        for a in range(3):
            for b in range(a + 1, 3):
                c_diff = hamming_frac(wms[a].bits[layout.challenge_slice],
                                      wms[b].bits[layout.challenge_slice])
                rf_diff = hamming_frac(wms[a].bits[tail], wms[b].bits[tail])
                if c_diff != 0:
                    failures.append(f"same-image challenge diff {c_diff}")
                if rf_diff <= 0:
                    failures.append("response+fingerprint blocks identical across chips")
                cross_chip.append(hamming_frac(wms[a].bits, wms[b].bits))

    inter = [hamming_frac(records[i].fingerprint.bits, records[j].fingerprint.bits)
             for i in range(len(records)) for j in range(i + 1, len(records))]
    if len(inter) < 10:
        failures.append(f"only {len(inter)} chip pairs")
    bad = [d for d in inter if not 0.45 <= d <= 0.55]
    if bad:
        failures.append(f"inter-chip fingerprint distances out of band: {bad}")

    intra = []
    for i, record in enumerate(records):
        chip = new_chip(record.chip_id, i + 1)
        again = enroll(chip, golden_acquisition(chip, rng_seed=900 + i))
        intra.append(hamming_frac(record.fingerprint.bits, again.fingerprint.bits))
    if max(intra) > 0.02:
        failures.append(f"re-enrollment drift {max(intra):.4f} > 0.02")

    print(f"\n  same-image cross-chip watermark mismatch "
          f"(response+fingerprint blocks): mean {np.mean(cross_chip):.2%} "
          f"(reported, not toleranced)")
    print(f"  inter-chip fingerprint distance: {min(inter):.4f}..{max(inter):.4f}; "
          f"intra-chip re-enrollment: {min(intra):.4f}..{max(intra):.4f}")
    _report(3, "identical challenges, distinct responses, separated fingerprints",
            failures)


def test_criterion_4_temperature_resilience(chips):
    failures = []
    for i, chip in enumerate(chips[:3]):
        record = enroll(chip, golden_acquisition(chip, rng_seed=100 + i))
        for temperature in (0.0, 40.0, 60.0, 80.0):
            # shot-noise-suppressed re-derivation: stretch the exposure at
            # cold temperatures to cancel the known mean 2^(dT/8) rate drop
            exposure = 0.1 * 2.0 ** max(0.0, (25.0 - temperature) / 8.0)
            cfg = AcquisitionConfig(temperature=temperature, exposure=exposure,
                                    n_frames=100, rng_seed=7000 + i)
            h, v = rdcm(acquire_dcm(chip, cfg))
            flip = 0.5 * (hamming_frac(record.rdcm_h, h) + hamming_frac(record.rdcm_v, v))
            if flip > 0.02:
                failures.append(f"{chip.chip_id} T={temperature}: flips {flip:.4f}")
    _report(4, "relative maps flip <= 2% from 0 to 80 C against 25 C enrollment",
            failures)


def test_criterion_5_tamper_detection(records, enrolled_db, host_images):
    failures = []
    img = host_images[0]
    record = records[0]
    layout = WatermarkLayout()

    marked = embed_lsb(img, generate_watermark(img, record))
    edited = marked.copy()
    patch = edited[256:288, 256:288].astype(np.int32)
    edited[256:288, 256:288] = np.clip(patch + 32, 0, 255).astype(np.uint8)

    report = verify(edited, enrolled_db)
    if report.verdict != TAMPERED:
        failures.append(f"verdict {report.verdict}")
    edited_cells = {(r, c) for r in range(32, 36) for c in range(32, 36)}
    if not edited_cells.issubset(set(report.tamper_cells)):
        failures.append("tamper cells do not cover the edited region")

    reference = generate_watermark(img, record)
    probe = generate_watermark(edited, record)
    flips = np.nonzero(reference.bits != probe.bits)[0]
    if flips.size == 0:
        failures.append("no watermark flips")
    else:
        if flips.max() >= layout.fingerprint_slice.start:
            failures.append("flips reach the fingerprint block")
        patch_extent = 31 * 512 + 32
        spread = int(flips.max() - flips.min())
        if spread <= patch_extent:
            failures.append(f"flip spread {spread} <= patch extent {patch_extent}")

    img_change = float(np.mean(edited != marked))
    wm_change = hamming_frac(reference.bits, probe.bits)
    s = sensitivity(img_change, wm_change)
    print(f"\n  {img_change:.2%} image change -> {wm_change:.2%} watermark change, "
          f"sensitivity S = {s:.3f} (reported)")
    _report(5, "band-shifting edit flagged, localized, nonlocal in the watermark",
            failures)


def test_criterion_6_robustness_monotonicity(records, host_images):
    failures = []
    sigmas = [6.0, 18.0, 54.0]
    overlaps = [0.0, 6.0, 12.0]
    table = robustness_sweep(host_images[0], records[0], sigmas, overlaps,
                             seeds=[101, 102, 103])
    flips = {(sigma, overlap): flip for sigma, overlap, flip in table}
    for sigma in sigmas:
        row = [flips[(sigma, overlap)] for overlap in overlaps]
        if not all(a >= b for a, b in zip(row, row[1:])):
            failures.append(f"overlap ordering broken at sigma {sigma}: {row}")
    for overlap in overlaps:
        col = [flips[(sigma, overlap)] for sigma in sigmas]
        if not all(a <= b for a, b in zip(col, col[1:])):
            failures.append(f"sigma ordering broken at overlap {overlap}: {col}")
    print("\n  flip fractions (rows: sigma, cols: overlap 0/6/12):")
    for sigma in sigmas:
        row = "  ".join(f"{flips[(sigma, overlap)]:.4f}" for overlap in overlaps)
        print(f"    sigma {sigma:4g}: {row}")
    _report(6, "flips fall with overlap and rise with noise on the whole grid",
            failures)


def test_criterion_7_codec_exactness(tmp_path, records, host_images):
    failures = []
    layout = WatermarkLayout()
    rng = np.random.default_rng(2024)
    host = rng.integers(0, 256, (256, 256)).astype(np.uint8)
    for trial in range(1000):
        wm = Watermark(bits=rng.integers(0, 2, layout.total_bits).astype(np.uint8),
                       layout=layout)
        if not np.array_equal(extract_lsb(embed_lsb(host, wm), layout).bits, wm.bits):
            failures.append(f"round trip broke at trial {trial}")
            break

    worst = float("inf")
    for img in host_images:
        marked = embed_lsb(img, generate_watermark(img, records[0]))
        worst = min(worst, psnr(img, marked))
    if worst < 55.77:
        failures.append(f"marked PSNR {worst:.3f} dB < 55.77 dB")

    path_a = tmp_path / "a.pgm"
    path_b = tmp_path / "b.pgm"
    write_pgm(host_images[0], path_a)
    write_pgm(read_pgm(path_a), path_b)
    if path_a.read_bytes() != path_b.read_bytes():
        failures.append("PGM write/read/write not byte-identical")

    print(f"\n  1000 embed/extract round trips exact; "
          f"worst marked-image PSNR {worst:.2f} dB")
    _report(7, "bit-exact codec, PSNR floor respected, byte-exact image files",
            failures)


def test_criterion_8_cli_determinism(tmp_path):
    failures = []
    img = make_image(0)
    img2 = make_image(1)
    img3 = make_image(2)
    digests = []
    for run in ("first", "second"):
        base = tmp_path / run
        db = base / "db"
        out = base / "out"
        base.mkdir()
        for i, image in enumerate((img, img2, img3)):
            write_pgm(image, base / f"img{i}.pgm")
        commands = [
            ["--db-dir", str(db), "chip", "new", "chip1", "--seed", "1"],
            ["--db-dir", str(db), "chip", "new", "chip2", "--seed", "2"],
            ["--db-dir", str(db), "chip", "new", "chip3", "--seed", "3"],
            ["--db-dir", str(db), "chip", "enroll", "chip1", "--seed", "101"],
            ["--db-dir", str(db), "chip", "enroll", "chip2", "--seed", "102"],
            ["--db-dir", str(db), "chip", "enroll", "chip3", "--seed", "103"],
            ["--db-dir", str(db), "mark", str(base / "img0.pgm"),
             "--chip", "chip1", "--out-dir", str(out)],
            ["--db-dir", str(db), "verify", str(out / "img0.marked.pgm"),
             "--out-dir", str(out)],
            ["--db-dir", str(db), "experiment", "source-id",
             "--images", str(base / "img0.pgm"), str(base / "img1.pgm"),
             str(base / "img2.pgm"), "--out-dir", str(out)],
            ["--db-dir", str(db), "experiment", "tamper", "--chip", "chip1",
             "--images", str(base / "img1.pgm"), "--patch-size", "32",
             "--patch-row", "256", "--patch-col", "256", "--out-dir", str(out)],
            ["--db-dir", str(db), "experiment", "robustness", "--chip", "chip1",
             "--image", str(base / "img0.pgm"), "--sigmas", "6,18",
             "--overlaps", "0,6", "--noise-seeds", "101,102",
             "--out-dir", str(out)],
        ]
        for argv in commands:
            code = main(argv)
            if code != 0:
                failures.append(f"{run}: exit {code} for {' '.join(argv[-4:])}")
        listing = []
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            listing.append((str(path.relative_to(base)), digest))
        digests.append(listing)
    if digests[0] != digests[1]:
        names = [a for a, b in zip(digests[0], digests[1]) if a != b]
        failures.append(f"artifacts differ between runs: {names[:5]}")
    print(f"\n  {len(digests[0])} artifacts byte-identical across two full CLI runs")
    _report(8, "every CLI command reproduces byte-identical artifacts", failures)
