import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spadmark import (EnrollmentDB, EnrollmentRecord, FeatureConfig, Fingerprint, Thresholds,
                      WatermarkLayout, add_gaussian_noise, assemble, disassemble, embed_lsb,
                      feature_images, generate_watermark, hamming_frac, identify_source,
                      load_enrollment_db, psnr, puf_query, robustness_sweep, save_enrollment,
                      sensitivity, verify)
from spadmark import features, verifier
from spadmark.verifier import (AUTHENTIC, TAMPERED, UNKNOWN_SOURCE,
                               challenge_grid, tamper_bitmap,
                               tolerant_flip_frac, watermark_bitmap)
from conftest import FUZZ, make_image, traced_peak_bytes


def test_hamming_frac():
    a = np.zeros(45056, dtype=np.uint8)
    assert hamming_frac(a, a) == 0.0
    assert hamming_frac(a, 1 - a) == 1.0
    b = a.copy()
    b[17] = 1
    assert hamming_frac(a, b) == pytest.approx(1 / 45056)
    with pytest.raises(ValueError):
        hamming_frac(a, a[:-1])


def test_sensitivity_reference_points():
    assert sensitivity(0.0063, 0.0049) == pytest.approx(0.49 / 0.63)
    assert round(sensitivity(0.0063, 0.0049), 3) == 0.778
    assert round(sensitivity(0.0194, 0.0110), 3) == 0.567
    assert sensitivity(0.25, 0.25) == 1.0
    with pytest.raises(ValueError):
        sensitivity(0.0, 0.1)


def test_psnr_reference_points():
    base = np.full((64, 64), 100, dtype=np.uint8)
    assert math.isinf(psnr(base, base))
    assert psnr(base, base + 1) == pytest.approx(48.1308, abs=1e-3)
    assert psnr(np.zeros((8, 8), dtype=np.uint8),
                np.full((8, 8), 255, dtype=np.uint8)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        psnr(base, base[:32])


def _reference_psnr(x, y):
    """The float64 formula psnr is held to: 10 log10(255^2 / mean((x - y)^2)),
    evaluated in place so a 4096^2 host costs one float copy, not three."""
    sq = x.astype(float)
    sq -= y
    sq **= 2
    return 10 * math.log10(255 ** 2 / np.mean(sq))


@st.composite
def _image_pairs(draw):
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    shape = draw(array_shapes(min_dims=2, max_dims=2, max_side=64))
    pixels = arrays(dtype, shape, elements=st.integers(0, 255))
    x = draw(pixels)
    kind = draw(st.sampled_from(["equal", "lsb", "any"]))
    if kind == "equal":
        return x, x.copy()
    if kind == "lsb":
        return x, x ^ draw(arrays(dtype, shape, elements=st.integers(0, 1)))
    return x, draw(pixels)


@FUZZ
@given(pair=_image_pairs())
def test_psnr_is_exact(pair):
    x, y = pair
    if np.array_equal(x, y):
        assert psnr(x, y) == math.inf
    else:
        assert psnr(x, y) == _reference_psnr(x, y)


def test_psnr_exact_at_4096():
    zeros = np.zeros((4096, 4096), dtype=np.uint8)
    assert psnr(zeros, np.full_like(zeros, 255)) == 0.0
    # an LSB-only watermark in the first total_bits pixels of a 4096^2 host
    n = WatermarkLayout().total_bits
    rng = np.random.default_rng(9)
    host = rng.integers(0, 256, (4096, 4096), dtype=np.uint8)
    marked = host.copy()
    flat = marked.reshape(-1)
    flat[:n] = (flat[:n] & 0xFE) | rng.integers(0, 2, n, dtype=np.uint8)
    assert psnr(host, marked) == _reference_psnr(host, marked)


def test_psnr_makes_no_float_copies():
    rng = np.random.default_rng(10)
    x = rng.integers(0, 256, (2048, 2048), dtype=np.uint8)
    y = rng.integers(0, 256, (2048, 2048), dtype=np.uint8)
    # 24 bytes per pixel with float64 copies of both images, 3 with
    # whole-image integer temporaries; strips need a strip's worth
    assert traced_peak_bytes(lambda: psnr(x, y)) / x.size < 0.25
    marked = x.copy()
    marked.reshape(-1)[:WatermarkLayout().total_bits] ^= 1
    assert traced_peak_bytes(lambda: psnr(x, marked)) / x.size < 0.25


STRIP = 1000


@pytest.mark.parametrize("pixel", [0, STRIP - 1, STRIP, 2 * STRIP + 7, 64 * 50 - 1])
def test_psnr_strip_edges(monkeypatch, pixel):
    # 3200 pixels in strips of 1000: three full strips and a short last one
    monkeypatch.setattr(features, "STRIP_PIXELS", STRIP)
    x = np.ascontiguousarray(make_image(5, size=64)[:, :50])
    y = x.copy()
    y.reshape(-1)[pixel] ^= 0x5A
    assert psnr(x, y) == _reference_psnr(x, y)
    assert psnr(y, x) == _reference_psnr(x, y)
    assert psnr(x.T, y.T) == _reference_psnr(x, y)
    assert psnr(x.astype(np.int64), y) == _reference_psnr(x, y)


def test_psnr_strided_views_and_equal_images(monkeypatch):
    monkeypatch.setattr(features, "STRIP_PIXELS", STRIP)
    x = make_image(6, size=128)
    y = x ^ np.random.default_rng(14).integers(0, 2, x.shape, dtype=np.uint8)
    for view in (np.transpose, lambda im: im[::2, 1::3], lambda im: im[::-1]):
        assert psnr(view(x), view(y)) == _reference_psnr(view(x), view(y))
    assert psnr(x, x.copy()) == math.inf
    assert psnr(x.T, x.T.astype(np.int64)) == math.inf


def test_add_gaussian_noise():
    img = make_image(4, size=128)
    assert np.array_equal(add_gaussian_noise(img, 0.0, seed=1), img)
    n1 = add_gaussian_noise(img, 10.0, seed=1)
    assert np.array_equal(n1, add_gaussian_noise(img, 10.0, seed=1))
    assert not np.array_equal(n1, add_gaussian_noise(img, 10.0, seed=2))
    assert n1.dtype == np.uint8
    # the in-place arithmetic gives the same bytes as the plain expression
    noise = np.random.default_rng(1).normal(0.0, 10.0, img.shape)
    assert np.array_equal(n1, np.clip(np.rint(img + noise), 0, 255).astype(np.uint8))
    with pytest.raises(ValueError):
        add_gaussian_noise(img, -1.0)


def _reference_noise(img, sigma, seed):
    return np.clip(np.rint(img + np.random.default_rng(seed).normal(0.0, sigma, img.shape)),
                   0, 255).astype(np.uint8)


@FUZZ
@given(shape=array_shapes(min_dims=2, max_dims=2, max_side=48),
       strip_pixels=st.integers(1, 3000),
       sigmas=st.lists(st.sampled_from([0.0, 0.4, 6.0, 18.0]) | st.floats(0, 400),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1),
       transpose=st.booleans(), dtype=st.sampled_from([np.uint8, np.int64]))
@example(shape=(7, 9), strip_pixels=8 * 5, sigmas=[0.0, 10.0, 10.0], seed=3,
         transpose=True, dtype=np.int64)
def test_gaussian_noise_strips_match_reference(monkeypatch, shape, strip_pixels, sigmas,
                                               seed, transpose, dtype):
    # strips of strip_pixels // 8 pixels (at least 1) end mid-row, and the
    # last one is short unless it divides the image
    monkeypatch.setattr(features, "STRIP_PIXELS", strip_pixels)
    img = np.random.default_rng(seed).integers(0, 256, shape).astype(dtype)
    if transpose:
        img = img.T
    noisy = verifier._gaussian_noise(features._check_gray(img), sigmas, seed)
    assert len(noisy) == len(sigmas)
    for sigma, out in zip(sigmas, noisy):
        expected = _reference_noise(img, sigma, seed)
        assert out.dtype == np.uint8 and np.array_equal(out, expected)
        assert np.array_equal(add_gaussian_noise(img, sigma, seed), expected)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.5])
def test_gaussian_noise_rejects_sigma_before_drawing(monkeypatch, sigma):
    def no_draw(seed):
        raise AssertionError("drew noise for an invalid sigma")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
        add_gaussian_noise(img, sigma)
    with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
        verifier._gaussian_noise(img, [6.0, sigma], 1)


def test_robustness_sweep_draws_each_seed_once(records, host_images, monkeypatch):
    # one generator per seed, each stopped exactly H*W standard normals
    # into its stream: K*H*W draws for S*K noisy images
    real = np.random.default_rng
    made = []

    def recorded(seed):
        made.append((seed, real(seed)))
        return made[-1][1]
    monkeypatch.setattr(np.random, "default_rng", recorded)
    img = host_images[0]
    seeds = [101, 102, 103]
    robustness_sweep(img, records[0], [6, 18, 54], [0, 6], seeds)
    assert [seed for seed, _ in made] == seeds
    for seed, rng in made:
        reference = real(seed)
        reference.standard_normal(img.size)
        assert rng.bit_generator.state == reference.bit_generator.state


def test_gaussian_noise_streams_in_strips(records):
    rng = np.random.default_rng(15)
    img = rng.integers(0, 256, (2048, 2048), dtype=np.uint8)
    # the uint8 result, plus two strip buffers; a whole-image float64 draw
    # costs 8 bytes per pixel more
    assert traced_peak_bytes(lambda: add_gaussian_noise(img, 18.0, seed=1)) / img.size < 1.5
    # one seed's noisy images (one byte per pixel and sigma), plus the
    # strip buffers of the one being downsampled
    peak = traced_peak_bytes(lambda: robustness_sweep(img, records[0], [6, 18, 54],
                                                      [0, 6, 12], [101, 102, 103]))
    assert peak / img.size < 4.5


def test_generate_watermark_deterministic(records, host_images):
    a = generate_watermark(host_images[0], records[0])
    b = generate_watermark(host_images[0], records[0])
    assert np.array_equal(a.bits, b.bits)


def test_generate_cross_chip_structure(records, host_images):
    layout = WatermarkLayout()
    wm_a = generate_watermark(host_images[0], records[0])
    wm_b = generate_watermark(host_images[0], records[1])
    assert np.array_equal(wm_a.bits[layout.challenge_slice],
                          wm_b.bits[layout.challenge_slice])
    tail = slice(layout.challenge_bits, layout.total_bits)
    assert hamming_frac(wm_a.bits[tail], wm_b.bits[tail]) > 0


def test_generate_cross_image_structure(records, host_images):
    layout = WatermarkLayout()
    wm_0 = generate_watermark(host_images[0], records[0])
    wm_1 = generate_watermark(host_images[1], records[0])
    assert np.array_equal(wm_0.bits[layout.fingerprint_slice],
                          wm_1.bits[layout.fingerprint_slice])
    assert hamming_frac(wm_0.bits[layout.challenge_slice],
                        wm_1.bits[layout.challenge_slice]) > 0


def test_identify_source(records, enrolled_db):
    hit = identify_source(records[2].fingerprint, enrolled_db)
    assert hit == ("chip3", 0.0)
    from spadmark import enroll, golden_acquisition, new_chip
    ghost = new_chip("ghost", 777)
    outsider = enroll(ghost, golden_acquisition(ghost))
    assert identify_source(outsider.fingerprint, enrolled_db) is None
    assert identify_source(records[0].fingerprint, EnrollmentDB([])) is None
    with pytest.raises(ValueError, match="distinct chip_ids"):
        EnrollmentDB([("chip1", 64, b"", "a.enroll.json"), ("chip1", 64, b"", "b.enroll.json")])


def _reference_identify(fp_bits, rows, tau):
    """The scan identify_source made before the packed matrix: a hamming_frac
    loop over (chip_id, bits) rows in chip_id order, first minimum wins."""
    best = None
    for chip_id, bits in rows:
        if bits.shape != fp_bits.shape:
            continue
        distance = hamming_frac(bits, fp_bits)
        if best is None or distance < best[1]:
            best = (chip_id, distance)
    return best if best is not None and best[1] < tau else None


@FUZZ
@given(chip_ids=st.lists(st.text("abc", min_size=1, max_size=3), unique=True, max_size=6),
       dims=st.lists(st.sampled_from([2, 3, 4, 5, 8]), min_size=1, max_size=3),
       query_dim=st.sampled_from([2, 3, 4, 5, 8]),
       seed=st.integers(0, 2 ** 32 - 1),
       tau=st.floats(0, 1, exclude_max=True))
def test_identify_source_equals_reference_loop(tmp_path_factory, chip_ids, dims,
                                               query_dim, seed, tau):
    # Records are written as files and read by load_enrollment_db. Maps of
    # 3x3 and 5x5 leave padding bits in the last byte; they and extra
    # trailing bytes are set at random and must not count. Fingerprints are
    # drawn from two per size with 0-2 bits flipped, so ties are common.
    from spadmark import load_enrollment_db
    rng = np.random.default_rng(seed)
    pool = {d: rng.integers(0, 2, (2, d, d), dtype=np.uint8) for d in (2, 3, 4, 5, 8)}

    def near(d):
        bits = pool[d][rng.integers(2)].copy()
        bits.flat[rng.integers(d * d, size=rng.integers(3))] ^= 1
        return bits

    def stored_hex(bits):
        raw = bytearray(np.packbits(bits))
        raw[-1] |= int(rng.integers(256)) & ((1 << (-bits.size % 8)) - 1)
        return (bytes(raw) + rng.bytes(int(rng.integers(3)))).hex()

    db_dir = tmp_path_factory.mktemp("db")
    rows = []
    for i, chip_id in enumerate(chip_ids):
        d = dims[i % len(dims)]
        fp = near(d)
        h = rng.integers(0, 2, (d, d), dtype=np.uint8)
        (db_dir / f"{i}.enroll.json").write_text(json.dumps(
            {"chip_id": chip_id, "array_dim": d, "acquisition": {},
             "fingerprint": stored_hex(fp), "rdcm_h": stored_hex(h), "rdcm_v": stored_hex(h ^ fp)}))
        rows.append((chip_id, fp))
    rows.sort(key=lambda row: row[0])
    db = load_enrollment_db(db_dir)
    query = Fingerprint(bits=near(query_dim))

    nearest = _reference_identify(query.bits, rows, 1.0)
    taus = [tau]
    if nearest:
        assert np.array_equal(db.record(nearest[0]).fingerprint.bits, dict(rows)[nearest[0]])
        if nearest[1] < 1:   # a tau equal to the distance rejects it, one float up accepts
            taus += [nearest[1], np.nextafter(nearest[1], 1.0)]
            assert identify_source(query, db, Thresholds(tau_fingerprint=nearest[1])) is None
    for t in taus:
        if t < 1:
            assert identify_source(query, db, Thresholds(tau_fingerprint=t)) == \
                _reference_identify(query.bits, rows, t)


def test_verify_authentic_exact(records, enrolled_db, host_images):
    wm = generate_watermark(host_images[0], records[0])
    marked = embed_lsb(host_images[0], wm)
    report = verify(marked, enrolled_db)
    assert report.verdict == AUTHENTIC
    assert report.challenge_match_frac == 1.0
    assert report.response_match_frac == 1.0
    assert report.fingerprint_best_match == ("chip1", 0.0)
    assert report.tamper_cells == []


def test_verify_skips_sides_with_no_layout(records, enrolled_db, host_images):
    # a hand-edited record may enroll a side of 0 or 1; no payload has one
    db = EnrollmentDB([*zip(enrolled_db.chip_ids, enrolled_db.dims.tolist(),
                            map(bytes, enrolled_db.fingerprints), enrolled_db.paths),
                       ("dot", 1, b"\x80", "dot.enroll.json"), ("none", 0, b"", "none.enroll.json")])
    marked = embed_lsb(host_images[0], generate_watermark(host_images[0], records[0]))
    report = verify(marked, db)
    assert report.verdict == AUTHENTIC and report.fingerprint_best_match == ("chip1", 0.0)


def test_verify_tie_across_sides_goes_to_the_smaller_side(tmp_path, records, host_images):
    # the payload read at side 32 holds the first 32*32 bits of chip1's
    # fingerprint: a 32-side record of those bits is as near as chip1 itself
    head = records[0].fingerprint.bits.reshape(-1)[:32 * 32].reshape(32, 32)
    save_enrollment(records[0], tmp_path)
    save_enrollment(EnrollmentRecord("z32", head, np.zeros_like(head),
                                     records[0].enrollment_cfg), tmp_path)
    marked = embed_lsb(host_images[0], generate_watermark(host_images[0], records[0]))
    report = verify(marked, load_enrollment_db(tmp_path))
    assert report.fingerprint_best_match == ("z32", 0.0)


def test_verify_forged_responses(records, enrolled_db, host_images):
    # keep chip1's fingerprint but answer the challenge with chip2's maps
    wm = generate_watermark(host_images[0], records[0])
    challenge, _, _ = disassemble(wm)
    forged = assemble(challenge, puf_query(records[1], challenge),
                      records[0].fingerprint, wm.layout)
    report = verify(embed_lsb(host_images[0], forged), enrolled_db)
    assert report.verdict == TAMPERED
    assert report.challenge_match_frac == 1.0
    assert report.response_match_frac < 0.95
    assert report.fingerprint_best_match == ("chip1", 0.0)


def test_verify_unknown_source(records, enrolled_db, host_images):
    from spadmark import enroll, golden_acquisition, new_chip
    ghost = enroll(new_chip("ghost", 999), golden_acquisition(new_chip("ghost", 999)))
    wm = generate_watermark(host_images[0], ghost)
    report = verify(embed_lsb(host_images[0], wm), enrolled_db)
    assert report.verdict == UNKNOWN_SOURCE
    assert report.fingerprint_best_match is None
    assert report.response_match_frac == 0.0


def test_verify_patch_edit(records, enrolled_db, host_images):
    wm = generate_watermark(host_images[0], records[0])
    marked = embed_lsb(host_images[0], wm)
    edited = marked.copy()
    patch = edited[256:288, 256:288].astype(np.int32)
    edited[256:288, 256:288] = np.clip(patch + 32, 0, 255).astype(np.uint8)
    report = verify(edited, enrolled_db)
    assert report.verdict == TAMPERED
    assert report.challenge_match_frac < 1.0
    expected_cells = {(r, c) for r in range(32, 36) for c in range(32, 36)}
    assert expected_cells.issubset(set(report.tamper_cells))


def test_tamper_flips_are_nonlocal(records, host_images):
    img = host_images[0]
    edited = img.copy()
    patch = edited[256:288, 256:288].astype(np.int32)
    edited[256:288, 256:288] = np.clip(patch + 32, 0, 255).astype(np.uint8)
    wm_ref = generate_watermark(img, records[0])
    wm_ed = generate_watermark(edited, records[0])
    flips = np.nonzero(wm_ref.bits != wm_ed.bits)[0]
    layout = wm_ref.layout
    assert flips.size > 0
    assert flips.max() < layout.fingerprint_slice.start      # confined to C+R
    patch_extent = 31 * 512 + 32                              # row-major pixel span
    assert flips.max() - flips.min() > patch_extent


def test_single_cell_edit_bit_budget(records, host_images):
    # shift one aligned 8x8 block by a full band: at most 2 challenge bits
    # per nibble and 2 response bits may flip, all in that cell's positions
    img = host_images[0]
    edited = img.copy()
    block = edited[320:328, 320:328].astype(np.int32)
    edited[320:328, 320:328] = np.clip(block + 32, 0, 255).astype(np.uint8)
    wm_ref = generate_watermark(img, records[0])
    wm_ed = generate_watermark(edited, records[0])
    layout = wm_ref.layout
    flips = np.nonzero(wm_ref.bits != wm_ed.bits)[0]
    cell = 40 * 64 + 40
    c_flips = flips[flips < layout.challenge_bits]
    assert set(c_flips) <= set(range(cell * 8, cell * 8 + 8))
    assert len(c_flips) <= 4
    r_flips = flips[flips >= layout.challenge_bits]
    expected_r = {layout.challenge_bits + cell, layout.challenge_bits + layout.response_bits + cell}
    assert set(r_flips) <= expected_r


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(tau_fingerprint=1.0)
    with pytest.raises(ValueError):
        Thresholds(tau_challenge=-0.1)


def test_fingerprint_populations_separate():
    # over ten chips, worst-case re-enrollment drift stays clear of the
    # closest cross-chip distance
    from spadmark import enroll, golden_acquisition, new_chip
    firsts, seconds = [], []
    for seed in range(1, 11):
        chip = new_chip(f"s{seed}", seed)
        firsts.append(enroll(chip, golden_acquisition(chip, rng_seed=100 + seed)))
        seconds.append(enroll(chip, golden_acquisition(chip, rng_seed=900 + seed)))
    intra = [hamming_frac(a.fingerprint.bits, b.fingerprint.bits)
             for a, b in zip(firsts, seconds)]
    inter = [hamming_frac(firsts[i].fingerprint.bits, firsts[j].fingerprint.bits)
             for i in range(10) for j in range(i + 1, 10)]
    assert max(intra) < min(inter)


def test_tolerant_flips_zero_overlap_is_plain_hamming(records, host_images):
    img = host_images[0]
    noisy = add_gaussian_noise(img, 20.0, seed=5)
    layout = WatermarkLayout()
    wm_ref = generate_watermark(img, records[0])
    wm_noisy = generate_watermark(noisy, records[0])
    content = slice(0, layout.fingerprint_slice.start)   # challenge + responses
    plain = hamming_frac(wm_ref.bits[content], wm_noisy.bits[content])
    grids = [challenge_grid(x, layout.grid_dim) for x in (img, noisy)]
    flips = tolerant_flip_frac(grids[0], grids[1:], records[0], [0.0])
    assert flips[0, 0] == pytest.approx(plain)


def test_tolerant_flips_monotone_in_overlap(records, host_images):
    img = host_images[0]
    layout = WatermarkLayout()
    clean = challenge_grid(img, layout.grid_dim)
    noisy = [challenge_grid(add_gaussian_noise(img, 30.0, seed=seed), layout.grid_dim)
             for seed in (1, 2)]
    table = tolerant_flip_frac(clean, noisy, records[0], [0, 2, 4, 6, 8, 10, 12])
    for flips in table.T:   # one column per seed, overlaps down the rows
        assert all(a >= b for a, b in zip(flips, flips[1:]))


def test_robustness_sweep_zero_sigma(records, host_images):
    table = robustness_sweep(host_images[0], records[0], [0.0], [0, 6, 12], [1])
    assert all(flip == 0.0 for _, _, flip in table)


def test_robustness_sweep_table_shape(records, host_images):
    table = robustness_sweep(host_images[0], records[0], [6, 18], [0, 6], [101, 102])
    assert len(table) == 4
    assert table == sorted(table)
    with pytest.raises(ValueError):
        robustness_sweep(host_images[0], records[0], [6], [0], [])


def test_robustness_sweep_downsamples_each_image_once(records, host_images, monkeypatch):
    calls = {}
    for module, name in ((verifier, "downsample"), (verifier, "puf_query"),
                         (features, "feature_images")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    sigmas, overlaps, seeds = [6, 18], [0, 6, 12], [101, 102]
    robustness_sweep(host_images[0], records[0], sigmas, overlaps, seeds)
    grids = 1 + len(sigmas) * len(seeds)
    assert calls["downsample"] == grids
    assert calls["puf_query"] == 1          # one lookup over the stacked grids
    # one 256-level table for single thresholds, one per overlap
    assert calls["feature_images"] == 1 + len(overlaps)


@pytest.mark.parametrize("overlap", [math.nan, -1.0, 32.0, 40.0])
def test_robustness_sweep_rejects_overlap_before_noise(records, host_images, monkeypatch,
                                                         overlap):
    calls = []
    monkeypatch.setattr(verifier, "downsample", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="overlap must be in"):
        robustness_sweep(host_images[0], records[0], [6, 18], [0, overlap], [101])
    assert calls == []


def _reference_flip_frac(clean, noisy, record, overlaps):
    """The per-(overlap, grid) band-plane loop ``tolerant_flip_frac`` replaced."""
    single = FeatureConfig()

    def addresses(grid, cfg):
        return np.packbits(feature_images(grid, cfg), axis=0)[0]
    c_clean = addresses(clean, single)
    resp_clean = puf_query(record, c_clean)
    charges = []
    for grid in noisy:
        c_noisy = addresses(grid, single)
        resp_noisy = puf_query(record, c_noisy)
        charges.append(np.bitwise_count(c_clean ^ c_noisy)
                       + (resp_clean[0] != resp_noisy[0])
                       + (resp_clean[1] != resp_noisy[1]))
    layout = WatermarkLayout(grid_dim=clean.shape[0])
    total = layout.challenge_bits + 2 * layout.response_bits
    flips = np.zeros((len(overlaps), len(noisy)))
    for i, overlap in enumerate(overlaps):
        cfg = FeatureConfig(overlap=overlap)
        clean_planes = feature_images(clean, cfg)
        for j, grid in enumerate(noisy):
            consistent = np.any(clean_planes & feature_images(grid, cfg), axis=0)
            flips[i, j] = int(charges[j][~consistent].sum()) / total
    return flips


@FUZZ
@given(grid_dim=st.integers(1, 16), n_noisy=st.integers(1, 4),
       overlaps=st.lists(st.one_of(st.just(0.0), st.floats(0, 32, exclude_max=True)),
                         min_size=1, max_size=4),
       spread=st.integers(0, 255), seed=st.integers(0, 2 ** 32 - 1))
def test_tolerant_flip_frac_equals_plane_loop(records, grid_dim, n_noisy, overlaps,
                                              spread, seed):
    # noisy grids are the clean one moved by up to +-spread levels
    rng = np.random.default_rng(seed)
    clean = rng.integers(0, 256, (grid_dim, grid_dim), dtype=np.uint8)
    noisy = [np.clip(clean + rng.integers(-spread, spread + 1, clean.shape), 0, 255)
             .astype(np.uint8) for _ in range(n_noisy)]
    flips = tolerant_flip_frac(clean, noisy, records[0], overlaps)
    reference = _reference_flip_frac(clean, noisy, records[0], overlaps)
    assert flips.shape == reference.shape and (flips == reference).all()


def test_report_bitmaps(records, enrolled_db, host_images):
    wm = generate_watermark(host_images[0], records[0])
    bitmap = watermark_bitmap(wm)
    assert bitmap.dtype == np.uint8
    assert set(np.unique(bitmap)) <= {0, 255}
    assert bitmap.shape == (128, 512)
    report = verify(embed_lsb(host_images[0], wm), enrolled_db)
    tmap = tamper_bitmap(report, 64)
    assert tmap.shape == (64, 64) and not tmap.any()
