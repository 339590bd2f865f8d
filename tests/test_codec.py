import os
import threading
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spadmark import (PgmError, Watermark, WatermarkLayout,
                      assemble, disassemble, embed_lsb, extract_lsb,
                      load_watermark, psnr, read_pgm, save_watermark, write_pgm)
from spadmark.puf import Fingerprint
from conftest import FUZZ, traced_peak_bytes


def _parts(layout: WatermarkLayout, rng=None):
    d, p = layout.grid_dim, layout.puf_dim
    if rng is None:
        challenge = np.zeros((d, d), dtype=np.uint8)
        response = np.zeros((2, d, d), dtype=np.uint8)
        fp = Fingerprint(bits=np.zeros((p, p), dtype=np.uint8))
    else:
        challenge = rng.integers(0, 256, (d, d)).astype(np.uint8)
        response = rng.integers(0, 2, (2, d, d)).astype(np.uint8)
        fp = Fingerprint(bits=rng.integers(0, 2, (p, p)).astype(np.uint8))
    return challenge, response, fp


def test_layout_totals():
    layout = WatermarkLayout()
    assert layout.challenge_bits == 32768
    assert layout.response_bits == 4096          # per response plane, two planes
    assert layout.fingerprint_bits == 4096
    assert layout.total_bits == 45056
    small = WatermarkLayout(grid_dim=4, puf_dim=16)
    assert small.total_bits == 4 * 4 * 10 + 256


def test_layout_slices_partition():
    layout = WatermarkLayout(grid_dim=8, puf_dim=16)
    marks = np.zeros(layout.total_bits, dtype=int)
    for s in (layout.challenge_slice, layout.response_slice, layout.fingerprint_slice):
        marks[s] += 1
    assert np.all(marks == 1)


def test_layout_validation():
    with pytest.raises(ValueError):
        WatermarkLayout(grid_dim=0)
    with pytest.raises(ValueError):
        WatermarkLayout(puf_dim=1)


def test_assemble_all_zero():
    layout = WatermarkLayout()
    wm = assemble(*_parts(layout), layout)
    assert wm.bits.size == 45056
    assert not wm.bits.any()


def test_assemble_first_cell_nibbles():
    layout = WatermarkLayout()
    challenge, response, fp = _parts(layout)
    challenge[0, 0] = 0x80
    wm = assemble(challenge, response, fp, layout)
    assert wm.bits[:8].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    challenge[0, 0] = 0x39
    wm = assemble(challenge, response, fp, layout)
    assert wm.bits[:8].tolist() == [0, 0, 1, 1, 1, 0, 0, 1]


def test_assemble_dimension_errors():
    layout = WatermarkLayout()
    challenge, response, fp = _parts(layout)
    for wrong in (np.zeros((8, 8), dtype=np.uint8), np.zeros((64, 64, 2), dtype=np.uint8)):
        with pytest.raises(ValueError):
            assemble(wrong, response, fp, layout)
    small_fp = Fingerprint(bits=np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        assemble(challenge, response, small_fp, layout)


def test_disassemble_round_trip():
    layout = WatermarkLayout(grid_dim=16, puf_dim=32)
    rng = np.random.default_rng(1)
    challenge, response, fp = _parts(layout, rng)
    c2, r2, f2 = disassemble(assemble(challenge, response, fp, layout))
    assert np.array_equal(c2, challenge) and c2.dtype == np.uint8
    assert np.array_equal(r2, response) and r2.shape == (2, 16, 16)
    assert np.array_equal(f2.bits, fp.bits)


def test_disassemble_zero_and_length_error():
    layout = WatermarkLayout(grid_dim=4, puf_dim=4)
    c, r, f = disassemble(Watermark(bits=np.zeros(layout.total_bits, dtype=np.uint8),
                                    layout=layout))
    assert not c.any() and not r.any() and not f.bits.any()
    with pytest.raises(ValueError):
        disassemble(Watermark(bits=np.zeros(10, dtype=np.uint8), layout=layout))


def test_embed_extract_round_trip():
    layout = WatermarkLayout()
    rng = np.random.default_rng(2)
    wm = assemble(*_parts(layout, rng), layout)
    host = rng.integers(0, 256, (512, 512)).astype(np.uint8)
    marked = embed_lsb(host, wm)
    assert np.array_equal(extract_lsb(marked, layout).bits, wm.bits)
    # untouched above the LSB plane and beyond the payload
    assert np.array_equal(marked & 0xFE, host & 0xFE)
    assert np.array_equal(marked.ravel()[layout.total_bits:],
                          host.ravel()[layout.total_bits:])


def test_embed_lsb_into_out():
    layout = WatermarkLayout()
    rng = np.random.default_rng(6)
    wm = assemble(*_parts(layout, rng), layout)
    host = rng.integers(0, 256, (512, 512)).astype(np.uint8)
    expected = embed_lsb(host, wm)
    buffer = np.empty_like(host)
    assert embed_lsb(host, wm, out=buffer) is buffer
    assert np.array_equal(buffer, expected)
    assert embed_lsb(host, wm, out=host) is host       # in place
    assert np.array_equal(host, expected)
    # a transposed out would be written through a reshaped copy and lost
    for bad in (np.empty((256, 1024), np.uint8), np.empty((512, 512), np.int64),
                np.empty((512, 512), np.uint8).T):
        with pytest.raises(ValueError, match="out must be"):
            embed_lsb(expected, wm, out=bad)


def test_embed_all_ones_into_zeros():
    layout = WatermarkLayout()
    wm = Watermark(bits=np.ones(layout.total_bits, dtype=np.uint8), layout=layout)
    marked = embed_lsb(np.zeros((512, 512), dtype=np.uint8), wm)
    flat = marked.ravel()
    assert np.all(flat[:45056] == 1)
    assert not flat[45056:].any()


def test_extract_constant_images():
    layout = WatermarkLayout()
    assert np.all(extract_lsb(np.full((512, 512), 255, dtype=np.uint8), layout).bits == 1)
    assert not extract_lsb(np.full((512, 512), 254, dtype=np.uint8), layout).bits.any()


def test_capacity_errors():
    layout = WatermarkLayout()
    wm = Watermark(bits=np.zeros(layout.total_bits, dtype=np.uint8), layout=layout)
    with pytest.raises(ValueError):
        embed_lsb(np.zeros((128, 128), dtype=np.uint8), wm)
    with pytest.raises(ValueError):
        extract_lsb(np.zeros((128, 128), dtype=np.uint8), layout)


def test_embedding_psnr_and_mse_bounds():
    layout = WatermarkLayout()
    rng = np.random.default_rng(3)
    wm = assemble(*_parts(layout, rng), layout)
    host = rng.integers(0, 256, (512, 512)).astype(np.uint8)
    marked = embed_lsb(host, wm)
    assert psnr(host, marked) >= 55.77
    assert np.max(np.abs(marked.astype(int) - host.astype(int))) <= 1
    mse = np.mean((marked.astype(float) - host.astype(float)) ** 2)
    assert mse <= layout.total_bits / host.size


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (60, 47)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_known_bytes(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5 2 2 255\n" + bytes([5, 3, 2, 2]))
    assert np.array_equal(read_pgm(path), [[5, 3], [2, 2]])


def test_pgm_comments_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 # width\n1\n# more\n255\n" + bytes([9, 8]) + b"\n")
    assert np.array_equal(read_pgm(path), [[9, 8]])


def test_read_pgm_makes_no_copies(tmp_path):
    img = np.random.default_rng(5).integers(0, 256, (1024, 1024), dtype=np.uint8)
    path = write_pgm(img, tmp_path / "big.pgm")
    # 2 bytes per pixel when the pixels were copied out of the file's bytes
    assert traced_peak_bytes(lambda: read_pgm(path)) / img.size < 1.5
    pixels = read_pgm(path)
    assert np.array_equal(pixels, img) and pixels.flags.writeable


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_pgm_from_pipe(tmp_path):
    # a pipe reports size 0, so the file size cannot size the buffer alone
    img = np.random.default_rng(3).integers(0, 256, (300, 300), dtype=np.uint8)
    raw = write_pgm(img, tmp_path / "img.pgm").read_bytes()
    fifo = tmp_path / "fifo.pgm"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    try:
        assert np.array_equal(read_pgm(fifo), img)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_pgm_errors(tmp_path):
    cases = [
        (b"P6\n2 2\n255\n" + bytes(4), "magic"),
        (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated"),
        (b"P5\n2\n", "end of header"),
        (b"P5\nab 2\n255\n" + bytes(4), "width"),
        (b"P5\n0 2\n255\n", "dimensions"),
    ]
    for raw, _ in cases:
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(PgmError) as info:
            read_pgm(path)
        assert "byte offset" in str(info.value)
        assert isinstance(info.value.offset, int)


@pytest.mark.parametrize("view", [
    lambda img: img.T,
    lambda img: img[::2, 1::3],
    lambda img: img.astype(np.int64),
], ids=["transposed", "strided", "int64"])
def test_write_pgm_layouts(tmp_path, view):
    img = view(np.random.default_rng(6).integers(0, 256, (40, 33), dtype=np.uint8))
    path = tmp_path / "v.pgm"
    write_pgm(img, path)
    height, width = img.shape
    pixels = np.ascontiguousarray(img.astype(np.uint8)).tobytes()
    assert path.read_bytes() == b"P5\n%d %d\n255\n" % (width, height) + pixels
    assert np.array_equal(read_pgm(path), img)


def test_write_pgm_makes_no_copies(tmp_path):
    img = np.random.default_rng(7).integers(0, 256, (1024, 1024), dtype=np.uint8)
    path = tmp_path / "big.pgm"
    # 2 bytes per pixel when the header and pixel bytes were concatenated
    assert traced_peak_bytes(lambda: write_pgm(img, path)) / img.size < 0.5
    assert path.stat().st_size == len(b"P5\n1024 1024\n255\n") + img.size


def test_write_pgm_rejects_bad_values(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.array([[256, 0]]), tmp_path / "x.pgm")


def test_sidecar_round_trip(tmp_path):
    layout = WatermarkLayout(grid_dim=16, puf_dim=16)
    rng = np.random.default_rng(5)
    wm = Watermark(bits=rng.integers(0, 2, layout.total_bits).astype(np.uint8),
                   layout=layout)
    path = tmp_path / "x.wm.txt"
    save_watermark(wm, path)
    first = path.read_text().splitlines()[0]
    assert first == "wm v1 D=16 P=16 L=8"
    loaded = load_watermark(path)
    assert loaded.layout == layout
    assert np.array_equal(loaded.bits, wm.bits)


def test_sidecar_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a sidecar\n")
    with pytest.raises(ValueError):
        load_watermark(path)
    path.write_text("wm v1 D=64 L=8\n00\n")
    with pytest.raises(ValueError, match="D=, P= and L="):
        load_watermark(path)
    path.write_text("wm v1 D=64 P=64 L=4\n00\n")
    with pytest.raises(ValueError, match="bad.txt: nibble addressing requires L=8"):
        load_watermark(path)
    path.write_text("wm v1 D=x P=64 L=8\n00\n")
    with pytest.raises(ValueError, match="bad.txt: bad layout"):
        load_watermark(path)
    for header in ("D=+16 P=16", "D=1_6 P=16", "D=016 P=16", "D=16 P=+16", "D=16 P=0_16"):
        path.write_text(f"wm v1 {header} L=8\n00\n")
        with pytest.raises(ValueError, match="bad.txt: bad layout"):
            load_watermark(path)
    path.write_text("wm v1 D64 P=64 L=8\n00\n")
    with pytest.raises(ValueError, match="bad.txt: header fields must be KEY=VALUE"):
        load_watermark(path)


_PGM_HEADERS = st.builds(
    lambda magic, sep, dims, maxval: b"%s%s%s\n%s" % (magic, sep, dims, maxval),
    st.sampled_from([b"P5", b"P6", b"P", b""]), st.sampled_from([b"\n", b" ", b"#c\n", b""]),
    st.sampled_from([b"2 2", b"0 3", b"1", b"a 2", b"99999 99999"]),
    st.sampled_from([b"255\n", b"255", b"65535\n", b"-1\n", b""]))


@FUZZ
@given(raw=st.binary(max_size=40) | st.tuples(_PGM_HEADERS, st.binary(max_size=8)).map(b"".join))
def test_read_pgm_returns_or_raises_pgm_error(tmp_path, raw):
    path = tmp_path / "x.pgm"
    path.write_bytes(raw)
    with suppress(PgmError):
        read_pgm(path)


_SIDECAR_FIELDS = st.lists(st.sampled_from(["D=1", "D=0", "P=2", "P=x", "L=8", "L=4", "D",
                                            "=", "Q=1", "D=99999"]), max_size=5)


@FUZZ
@given(raw=st.binary(max_size=40) | st.builds(
    lambda fields, payload: ("\n".join([" ".join(["wm v1", *fields]), *payload])).encode(),
    _SIDECAR_FIELDS, st.lists(st.text("0123456789abcdefg ", max_size=12), max_size=2)))
def test_load_watermark_returns_or_raises_value_error(tmp_path, raw):
    path = tmp_path / "x.wm.txt"
    path.write_bytes(raw)
    with suppress(ValueError):
        load_watermark(path)
