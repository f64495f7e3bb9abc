"""Portable pixmap IO, bilinear resize, and CLAHE preprocessing.

Images are 8-bit, row-major, interleaved, 1 (gray) or 3 (RGB) channels.
CLAHE operates on the luma channel of an integer BT.601 luma/chroma
transform so hue is preserved for color inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ImageFormatError(ValueError):
    """Malformed pixmap payload; message carries the byte offset."""


@dataclass
class Image:
    """An 8-bit picture; its width, height and channel count are read off `pixels`."""
    pixels: np.ndarray  # uint8, shape (height, width, channels), channels 1 or 3

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8 or px.ndim != 3 or 0 in px.shape or px.shape[2] not in (1, 3):
            raise ValueError(f"image pixels must be uint8 [H, W, 1|3] with H, W >= 1, "
                             f"got {px.dtype} {px.shape}")
        self.pixels = px

    height = property(lambda self: self.pixels.shape[0])
    width = property(lambda self: self.pixels.shape[1])
    channels = property(lambda self: self.pixels.shape[2])

    def rgb(self) -> np.ndarray:
        """The pixels as [H, W, 3]: gray is repeated into each channel."""
        return self.pixels if self.channels == 3 else np.repeat(self.pixels, 3, axis=2)


LUMA_BINS = 256  # one histogram bin per 8-bit luma value
PLAN_CACHE_SIZE = 4  # plans cached per plan function; a 128 px CLAHE plan is 1.18 MB


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, locked against writes: a cached plan is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class ClaheConfig:
    tiles: int = 8
    clip_limit: float = 2.0

    def __post_init__(self):
        if self.tiles < 1:
            raise ValueError("tiles must be >= 1")
        if self.clip_limit < 1.0:
            raise ValueError("clip_limit must be >= 1")


# ---------------------------------------------------------------------------
# PPM (P6) / PGM (P5) binary, maxval 255


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageFormatError(f"truncated header at byte {pos}")
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_ppm(data: bytes) -> Image:
    """Parse binary P6 (RGB) or P5 (gray) with maxval 255."""
    magic, pos = _next_token(data, 0)
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise ImageFormatError(f"unsupported magic {magic!r} at byte 0")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageFormatError(f"non-numeric header field {tok!r} at byte {pos - len(tok)}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"invalid dimensions {width}x{height} in header (byte {pos})")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} at byte {pos}")
    pos += 1  # exactly one whitespace byte separates header from payload
    need = width * height * channels
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise ImageFormatError(f"truncated payload at byte {pos + len(payload)}: "
                               f"need {need} bytes, have {len(payload)}")
    if len(data) > pos + need:
        raise ImageFormatError(f"{len(data) - pos - need} trailing bytes at byte {pos + need}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(pixels.copy())


def load_ppm(path) -> Image:
    """read_ppm of the file at `path`; a malformed file's error starts with the path."""
    try:
        return read_ppm(Path(path).read_bytes())
    except ImageFormatError as exc:
        raise ImageFormatError(f"{path}: {exc}") from None


def write_ppm(img: Image) -> bytes:
    magic = b"P6" if img.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.pixels.tobytes()


# ---------------------------------------------------------------------------
# bilinear resize, half-pixel centers


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _bilinear_plan(h: int, w: int, target: int, channels: int) -> tuple[np.ndarray, ...]:
    """The geometry of an [h, w, channels] -> [target, target, channels] resize,
    as read-only arrays: the four [target, target * channels] flat gather
    indices of the (y0, x0), (y0, x1), (y1, x0) and (y1, x1) source pixels,
    the [target, 1] row weights wy and 1 - wy, and the [target * channels]
    column weights wx and 1 - wx.

    Source coordinates are clamped to the pixel grid before the floor, so a
    border pixel is reproduced exactly rather than blended with itself.
    """
    ys = np.clip((np.arange(target) + 0.5) * (h / target) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(target) + 0.5) * (w / target) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    wy, wx = ys - y0, xs - x0
    rows = [(y * (w * channels))[:, None] for y in (y0, np.minimum(y0 + 1, h - 1))]
    cols = [(x[:, None] * channels + np.arange(channels)).ravel()
            for x in (x0, np.minimum(x0 + 1, w - 1))]
    return _read_only(*(r + c for r in rows for c in cols), wy[:, None], (1 - wy)[:, None],
                      np.repeat(wx, channels), np.repeat(1 - wx, channels))


def bilinear_stack(values: np.ndarray, target: int) -> np.ndarray:
    """Resample each real [h, w, ...] array of a [B, h, w, ...] stack to a float
    [target, target, ...] one; every output element is its image's own blend."""
    if target < 1:
        raise ValueError("target size must be >= 1")
    b, h, w = values.shape[:3]
    i00, i01, i10, i11, wy, vy, wx, vx = _bilinear_plan(h, w, target, math.prod(values.shape[3:]))
    flat = values.reshape(b, -1)
    top = flat.take(i00, axis=1) * vx + flat.take(i01, axis=1) * wx
    bot = flat.take(i10, axis=1) * vx + flat.take(i11, axis=1) * wx
    return (top * vy + bot * wy).reshape(b, target, target, *values.shape[3:])


def to_uint8(values: np.ndarray) -> np.ndarray:
    """Real pixel values rounded to the nearest 8-bit level."""
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def to_unit(levels: np.ndarray) -> np.ndarray:
    """8-bit levels as float64 in [0, 1]: the one inverse of to_uint8. It divides,
    because multiplying by 1/255 is not the same rounding for every level."""
    return levels / 255.0


def resize_bilinear(img: Image, target: int) -> Image:
    return Image(to_uint8(bilinear_stack(img.pixels[None], target)[0]))  # blends uint8 in float64


# ---------------------------------------------------------------------------
# luma/chroma transform (BT.601, /256 integer approximation)


def rgb_to_ycbcr(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r, g, b = (pixels[..., k].astype(np.int32) for k in range(3))
    y = (77 * r + 150 * g + 29 * b + 128) >> 8
    cb = ((-43 * r - 85 * g + 128 * b + 128) >> 8) + 128
    cr = ((128 * r - 107 * g - 21 * b + 128) >> 8) + 128
    return y, cb, cr


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    y = y.astype(np.int32)
    db, dr = cb.astype(np.int32) - 128, cr.astype(np.int32) - 128
    rgb = np.empty((*y.shape, 3), dtype=np.uint8)
    rgb[..., 0] = np.clip(y + ((359 * dr + 128) >> 8), 0, 255)
    rgb[..., 1] = np.clip(y - ((88 * db + 183 * dr + 128) >> 8), 0, 255)
    rgb[..., 2] = np.clip(y + ((454 * db + 128) >> 8), 0, 255)
    return rgb


# ---------------------------------------------------------------------------
# CLAHE


def _equalize(hist: np.ndarray, total, config: ClaheConfig) -> np.ndarray:
    """Clipped-equalization LUTs of the histograms on the last axis, of `total` pixels each."""
    hist = hist.astype(np.float64)
    clip = config.clip_limit * total / LUMA_BINS
    excess = np.maximum(hist - clip, 0.0).sum(axis=-1, keepdims=True)
    hist = np.minimum(hist, clip) + excess / LUMA_BINS  # uniform redistribution
    cdf = np.cumsum(hist, axis=-1)
    midpoint = cdf - hist / 2.0  # bin-center CDF keeps constant inputs fixed
    return to_uint8(255.0 * midpoint / total)


def _tile_edges(extent: int, tiles: int) -> np.ndarray:
    return np.rint(np.linspace(0, extent, tiles + 1)).astype(int)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _clahe_plan(height: int, width: int, tiles: int) -> tuple[np.ndarray, ...]:
    """Everything CLAHE does that depends only on the image geometry, as
    read-only arrays: the [H, W] (tile, luma) key base of each pixel, the
    [t, t, 1] pixel count of each tile, then the four [H, W] blend weights and
    the four [H, W] flat LUT base indices of the surrounding tile mappings, in
    the order (top, left), (top, right), (bottom, left), (bottom, right)."""
    t, bins = tiles, LUMA_BINS
    ye = _tile_edges(height, t)
    xe = _tile_edges(width, t)
    ty = np.repeat(np.arange(t), np.diff(ye))
    tx = np.repeat(np.arange(t), np.diff(xe))
    keys = (ty * (t * bins))[:, None] + tx * bins
    counts = np.outer(np.diff(ye), np.diff(xe))[..., None]
    cy = (ye[:-1] + ye[1:] - 1) / 2.0
    cx = (xe[:-1] + xe[1:] - 1) / 2.0

    # bilinear blend of the four surrounding tile mappings, clamped at borders
    yy = np.arange(height, dtype=np.float64)
    xx = np.arange(width, dtype=np.float64)
    iy0 = np.clip(np.searchsorted(cy, yy, side="right") - 1, 0, t - 1)
    ix0 = np.clip(np.searchsorted(cx, xx, side="right") - 1, 0, t - 1)
    iy1 = np.minimum(iy0 + 1, t - 1)
    ix1 = np.minimum(ix0 + 1, t - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        wy = np.where(iy1 > iy0, (yy - cy[iy0]) / (cy[iy1] - cy[iy0]), 0.0)
        wx = np.where(ix1 > ix0, (xx - cx[ix0]) / (cx[ix1] - cx[ix0]), 0.0)
    wy = np.clip(wy, 0.0, 1.0)[:, None]
    wx = np.clip(wx, 0.0, 1.0)[None, :]
    weights = ((1 - wy) * (1 - wx), (1 - wy) * wx, wy * (1 - wx), wy * wx)
    # entry (i, j, v) of the flat LUT table sits at i*t*bins + j*bins + v
    rows = [(i * (t * bins))[:, None] for i in (iy0, iy1)]
    cols = [j * bins for j in (ix0, ix1)]
    bases = [r + c for r in rows for c in cols]
    return _read_only(keys, counts, *weights, *bases)


def clahe_stack(pixels: np.ndarray, config: ClaheConfig) -> np.ndarray:
    """CLAHE of each uint8 [H, W, 1|3] image of a [B, H, W, C] stack. Image b
    reads only its own LUTs, through keys offset by b * t * t * LUMA_BINS, so
    its output is bit for bit the one it gets when equalized alone."""
    b, height, width, channels = pixels.shape
    t, bins = config.tiles, LUMA_BINS
    if width < t or height < t:
        raise ValueError(f"tile grid {t}x{t} larger than {width}x{height} image")
    if channels == 3:
        luma, cb, cr = rgb_to_ycbcr(pixels)
    else:
        luma = pixels[..., 0]
    keys, counts, w00, w01, w10, w11, i00, i01, i10, i11 = _clahe_plan(height, width, t)
    # image b's (tile, luma) keys and LUT indices start past the b earlier images' LUTs
    own = luma + (np.arange(b) * (t * t * bins))[:, None, None]

    # every tile's histogram of every image from one bincount over (image, tile, luma) keys
    hist = np.bincount((keys + own).ravel(), minlength=b * t * t * bins).reshape(b, t, t, bins)
    luts = _equalize(hist, counts, config).reshape(-1)
    blended = (w00 * luts.take(i00 + own) + w01 * luts.take(i01 + own)
               + w10 * luts.take(i10 + own) + w11 * luts.take(i11 + own))
    eq = to_uint8(blended)
    return ycbcr_to_rgb(eq, cb, cr) if channels == 3 else eq[..., None]


def clahe(img: Image, config: ClaheConfig) -> Image:
    return Image(clahe_stack(img.pixels[None], config)[0])
