"""Watermark serialization, LSB embedding and PGM image I/O.

The watermark is a fixed-layout bit string: challenge block (the D x D
``features.challenge_matrix`` bytes, row-major, band plane 1 = MSB first), then
the (2, D, D) response array of ``puf.puf_query`` (horizontal plane, then
vertical), then the device fingerprint. At the defaults (grid 64, map 64)
that is 32768 + 8192 + 4096 = 45056 bits, carried in the least significant
bits of the first 45056 host pixels. LSBs beyond the payload are left untouched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import L, _check_gray
from .puf import Fingerprint, bits_to_hex, hex_to_bits


@dataclass(frozen=True)
class WatermarkLayout:
    """Block sizes and ordering of the serialized watermark."""

    grid_dim: int = 64          # challenge grid side (D)
    puf_dim: int = 64           # relative-map side (P)

    def __post_init__(self) -> None:
        if self.grid_dim < 1:
            raise ValueError(f"grid_dim must be >= 1, got {self.grid_dim}")
        if self.puf_dim < 2:
            raise ValueError(f"puf_dim must be >= 2, got {self.puf_dim}")

    @property
    def challenge_bits(self) -> int:
        return self.grid_dim * self.grid_dim * L     # one address byte per cell

    @property
    def response_bits(self) -> int:
        return self.grid_dim * self.grid_dim        # per plane; there are two

    @property
    def fingerprint_bits(self) -> int:
        return self.puf_dim * self.puf_dim

    @property
    def total_bits(self) -> int:
        return self.challenge_bits + 2 * self.response_bits + self.fingerprint_bits

    # bit-index slices of the serialized string
    @property
    def challenge_slice(self) -> slice:
        return slice(0, self.challenge_bits)

    @property
    def response_slice(self) -> slice:
        return slice(self.challenge_bits, self.challenge_bits + 2 * self.response_bits)

    @property
    def fingerprint_slice(self) -> slice:
        return slice(self.total_bits - self.fingerprint_bits, self.total_bits)


@dataclass
class Watermark:
    """Serialized watermark bits and the layout they follow."""

    bits: np.ndarray            # 1-D uint8 {0,1}, length layout.total_bits
    layout: WatermarkLayout = field(default_factory=WatermarkLayout)


def assemble(challenge: np.ndarray, response: np.ndarray,
             fp: Fingerprint, layout: WatermarkLayout | None = None) -> Watermark:
    """Serialize the (D, D) challenge bytes, the (2, D, D) responses and the
    (P, P) fingerprint per the fixed layout."""
    layout = layout or WatermarkLayout()
    d, p = layout.grid_dim, layout.puf_dim
    if np.shape(challenge) != (d, d):
        raise ValueError(f"challenge shape {np.shape(challenge)} does not match grid_dim {d}")
    if np.shape(response) != (2, d, d):
        raise ValueError(f"response shape {np.shape(response)} is not (2, {d}, {d})")
    if fp.bits.shape != (p, p):
        raise ValueError(f"fingerprint shape {fp.bits.shape} does not match puf_dim {p}")
    bits = np.concatenate([
        np.unpackbits(challenge.reshape(-1)),
        response.ravel().astype(np.uint8),
        fp.bits.ravel().astype(np.uint8),
    ])
    return Watermark(bits=bits, layout=layout)


def disassemble(wm: Watermark) -> tuple[np.ndarray, np.ndarray, Fingerprint]:
    """Exact inverse of assemble: (challenge, responses, fingerprint)."""
    layout = wm.layout
    bits = np.asarray(wm.bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size != layout.total_bits:
        raise ValueError(f"watermark holds {bits.size} bits, layout expects {layout.total_bits}")
    d, p = layout.grid_dim, layout.puf_dim
    challenge = np.packbits(bits[layout.challenge_slice]).reshape(d, d)
    response = bits[layout.response_slice].reshape(2, d, d).copy()
    fp = Fingerprint(bits=bits[layout.fingerprint_slice].reshape(p, p).copy())
    return challenge, response, fp


def embed_lsb(host: np.ndarray, wm: Watermark, out: np.ndarray | None = None) -> np.ndarray:
    """Replace the LSBs of the first total_bits pixels (row-major) with the
    watermark. Upper bit planes and trailing pixels are untouched.

    The marked image is written to ``out`` and returned: by default a new
    copy of the host, else a C-contiguous uint8 array of the host's shape,
    which may be ``host`` itself, marked in place with no full-size pass.
    """
    pixels = _check_gray(host)
    n = wm.layout.total_bits
    if pixels.size < n:
        raise ValueError(f"host has {pixels.size} pixels, watermark needs {n}")
    bits = np.asarray(wm.bits, dtype=np.uint8)
    if bits.size != n:
        raise ValueError(f"watermark holds {bits.size} bits, layout expects {n}")
    if out is None:
        out = pixels.copy()
    elif (out.shape != pixels.shape or out.dtype != np.uint8
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous uint8 array of shape {pixels.shape}")
    elif out is not pixels:
        out[...] = pixels
    flat = out.reshape(-1)
    flat[:n] = (flat[:n] & 0xFE) | bits
    return out


def extract_lsb(img: np.ndarray, layout: WatermarkLayout | None = None) -> Watermark:
    """Read the first total_bits LSBs back out of an image."""
    layout = layout or WatermarkLayout()
    pixels = _check_gray(img)
    n = layout.total_bits
    if pixels.size < n:
        raise ValueError(f"image has {pixels.size} pixels, layout needs {n}")
    return Watermark(bits=(pixels.reshape(-1)[:n] & 1).astype(np.uint8), layout=layout)


# --- PGM (P5) I/O -----------------------------------------------------------

class PgmError(ValueError):
    """Malformed PGM input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytearray, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, then collect one token
    n = len(data)
    while pos < n:
        if data[pos:pos + 1] in _WHITESPACE:
            pos += 1
        elif data[pos:pos + 1] == b"#":
            end = data.find(b"\n", pos)
            pos = n if end < 0 else end + 1
        else:
            break
    if pos >= n:
        raise PgmError("unexpected end of header", pos)
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE:
        pos += 1
    return bytes(data[start:pos]), pos


def _int_token(data: bytearray, pos: int, what: str) -> tuple[int, int]:
    token, end = _next_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"malformed {what} {token!r}", end - len(token))
    return int(token), end


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM file into a 2-D uint8 array: a view of
    the one buffer the file is read into, so the pixels are not copied.

    That buffer is a private ``bytearray`` that nothing else references,
    so the array is writable and the caller owns it: ``wm mark`` embeds
    the watermark into it in place."""
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        del data[f.readinto(data):]
        data += f.read()    # a pipe reports size 0
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"not a binary PGM, magic {magic!r}", pos - len(magic))
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}", pos)
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, only 8-bit (255) images", pos)
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise PgmError("missing whitespace before pixel data", pos)
    pos += 1
    need = width * height
    if len(data) - pos < need:
        raise PgmError(f"truncated pixel data, {len(data) - pos} of {need} bytes", len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return pixels.reshape(height, width)


def write_pgm(img: np.ndarray, path: str | Path) -> Path:
    """Write a 2-D uint8 array as a binary (P5) PGM file."""
    pixels = _check_gray(img)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with path.open("wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(pixels).data)
    return path


# --- watermark sidecar ------------------------------------------------------

def save_watermark(wm: Watermark, path: str | Path) -> Path:
    """Hex dump of the watermark bits with a one-line layout header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    layout = wm.layout
    header = f"wm v1 D={layout.grid_dim} P={layout.puf_dim} L={L}"
    path.write_text(header + "\n" + bits_to_hex(wm.bits) + "\n")
    return path


def _decimal(text: str) -> int:
    """A layout field as ``save_watermark`` writes it: plain decimal, so
    ``int()``'s other spellings (``+16``, ``1_6``, ``016``) are rejected."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not written as a plain decimal")
    return value


def load_watermark(path: str | Path) -> Watermark:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("wm v1 "):
        raise ValueError(f"{path}: not a v1 watermark sidecar")
    tokens = [part.partition("=") for part in lines[0].split()[2:]]
    if not all(sep for _, sep, _ in tokens):
        raise ValueError(f"{path}: header fields must be KEY=VALUE, got {lines[0]!r}")
    fields = {key: value for key, _, value in tokens}
    if not {"D", "P", "L"} <= fields.keys():
        raise ValueError(f"{path}: header needs D=, P= and L=, got {lines[0]!r}")
    if fields["L"] != str(L):
        raise ValueError(f"{path}: nibble addressing requires L={L}, got {lines[0]!r}")
    try:
        layout = WatermarkLayout(grid_dim=_decimal(fields["D"]), puf_dim=_decimal(fields["P"]))
    except ValueError as exc:
        raise ValueError(f"{path}: bad layout in {lines[0]!r}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"{path}: missing bit payload")
    return Watermark(bits=hex_to_bits(lines[1], layout.total_bits), layout=layout)
