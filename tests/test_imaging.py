import re

import numpy as np
import pytest

from dcan.imaging import (LUMA_BINS, PLAN_CACHE_SIZE, ClaheConfig, Image, ImageFormatError,
                          _bilinear_plan, _clahe_plan, _equalize, bilinear_stack,
                          clahe, clahe_stack, load_ppm, read_ppm, resize_bilinear,
                          rgb_to_ycbcr, to_uint8, write_ppm, ycbcr_to_rgb)


def random_image(rng, w, h, channels=3):
    return Image(rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8))


def tile_lut(values, config):
    """The clipped-equalization transfer function of one tile's luma values."""
    return _equalize(np.bincount(values.ravel(), minlength=LUMA_BINS), values.size, config)


class TestImage:
    def test_dims_are_the_pixel_shape(self):
        img = Image(np.zeros((2, 5, 1), dtype=np.uint8))
        assert (img.height, img.width, img.channels) == img.pixels.shape == (2, 5, 1)
        with pytest.raises(AttributeError):
            img.width = 3

    @pytest.mark.parametrize("pixels, shown", [
        (np.zeros((2, 2, 3)), "float64 (2, 2, 3)"),
        (np.zeros((2, 2), dtype=np.uint8), "uint8 (2, 2)"),
        (np.zeros((2, 2, 4), dtype=np.uint8), "uint8 (2, 2, 4)"),
        (np.full((2, 2, 1), 300), "int64 (2, 2, 1)"),
        (np.zeros((0, 2, 3), dtype=np.uint8), "uint8 (0, 2, 3)"),
    ])
    def test_malformed_pixels_rejected(self, pixels, shown):
        with pytest.raises(ValueError, match=re.escape(f"got {shown}")):
            Image(pixels)

    def test_rgb_repeats_gray(self):
        gray = Image(np.arange(6, dtype=np.uint8).reshape(2, 3, 1))
        np.testing.assert_array_equal(gray.rgb(), np.repeat(gray.pixels, 3, axis=2))
        color = random_image(np.random.default_rng(0), 3, 2)
        assert color.rgb() is color.pixels


class TestPpmIo:
    def test_single_red_pixel(self):
        img = read_ppm(b"P6\n1 1\n255\n\xff\x00\x00")
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        np.testing.assert_array_equal(img.pixels.ravel(), [255, 0, 0])

    def test_pgm_single_pixel(self):
        img = read_ppm(b"P5\n1 1\n255\n\x80")
        assert img.channels == 1
        assert img.pixels.item() == 128

    def test_round_trip(self):
        raw = b"P6\n2 2\n255\n" + bytes(range(12))
        assert write_ppm(read_ppm(raw)) == raw

    def test_corpus_round_trip(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            channels = 3 if i % 2 == 0 else 1
            img = random_image(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), channels)
            again = read_ppm(write_ppm(img))
            np.testing.assert_array_equal(again.pixels, img.pixels)
            assert write_ppm(again) == write_ppm(img)

    def test_comment_in_header(self):
        img = read_ppm(b"P5\n# gray\n1 1\n255\n\x07")
        assert img.pixels.item() == 7

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError, match="byte 0"):
            read_ppm(b"P3\n1 1\n255\n abc")

    def test_bad_maxval(self):
        with pytest.raises(ImageFormatError, match="maxval 65535"):
            read_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    def test_truncated_payload_reports_offset(self):
        with pytest.raises(ImageFormatError, match="byte"):
            read_ppm(b"P6\n2 2\n255\n\xff\x00")

    def test_trailing_bytes_report_count_and_offset(self):
        with pytest.raises(ImageFormatError, match="2 trailing bytes at byte 14"):
            read_ppm(b"P5\n1 3\n255\n\x01\x02\x03\x04\x05")

    def test_header_bit_flips_raise_or_load_the_same_image(self):
        # a flip that shrinks the width or height must not load a smaller, shifted image
        header = b"P6\n5 7\n255\n"
        raw = header + bytes(range(5 * 7 * 3))
        original = read_ppm(raw).pixels
        for bit in range(8 * len(header)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                pixels = read_ppm(bytes(flipped)).pixels
            except ImageFormatError:
                continue
            assert np.array_equal(pixels, original), (bit, bytes(flipped[:len(header)]))

    def test_load_ppm_error_names_the_file_and_keeps_the_offset(self, tmp_path):
        path = tmp_path / "cut.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(10))
        with pytest.raises(ImageFormatError) as info:
            load_ppm(path)
        assert str(info.value) == f"{path}: truncated payload at byte 21: need 12 bytes, have 10"
        path.write_bytes(b"P5\n1 1\n255\n\x07")
        assert load_ppm(path).pixels.item() == 7


class TestResize:
    def test_same_size_near_identity(self):
        rng = np.random.default_rng(1)
        img = random_image(rng, 6, 6)
        out = resize_bilinear(img, 6)
        assert np.max(np.abs(out.pixels.astype(int) - img.pixels.astype(int))) <= 1

    def test_constant_exact(self):
        img = Image(np.full((3, 3, 3), 77, dtype=np.uint8))
        out = resize_bilinear(img, 9)
        np.testing.assert_array_equal(out.pixels, 77)

    def test_checkerboard_matches_interpolation_oracle(self):
        board = Image(np.array([[0, 255], [255, 0]], dtype=np.uint8)[..., None])
        out = resize_bilinear(board, 4)
        src = board.pixels[..., 0].astype(float)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                sy = min(max((i + 0.5) * 0.5 - 0.5, 0.0), 1.0)
                sx = min(max((j + 0.5) * 0.5 - 0.5, 0.0), 1.0)
                y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
                fy, fx = sy - y0, sx - x0
                expected[i, j] = round((src[y0, x0] * (1 - fx) + src[y0, x1] * fx) * (1 - fy)
                                       + (src[y1, x0] * (1 - fx) + src[y1, x1] * fx) * fy)
        np.testing.assert_array_equal(out.pixels[..., 0], expected.astype(np.uint8))

    def test_preserves_channels(self):
        rng = np.random.default_rng(2)
        assert resize_bilinear(random_image(rng, 5, 5, 1), 8).channels == 1

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            resize_bilinear(random_image(np.random.default_rng(3), 4, 4), 0)


def bilinear_loop_reference(values, target):
    """`bilinear_stack` on one image, one output pixel at a time, with the same
    clamped half-pixel source coordinates and the same products and sums in the
    same order."""
    h, w = values.shape[:2]
    out = np.empty((target, target, *values.shape[2:]))
    for i in range(target):
        sy = min(max((i + 0.5) * (h / target) - 0.5, 0), h - 1)
        y0 = int(np.floor(sy))
        y1, fy = min(y0 + 1, h - 1), sy - y0
        for j in range(target):
            sx = min(max((j + 0.5) * (w / target) - 0.5, 0), w - 1)
            x0 = int(np.floor(sx))
            x1, fx = min(x0 + 1, w - 1), sx - x0
            top = values[y0, x0] * (1 - fx) + values[y0, x1] * fx
            bot = values[y1, x0] * (1 - fx) + values[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def plan_arrays_are_read_only(plan):
    for array in plan:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_bilinear_bitwise_matches_loop_reference():
    rng = np.random.default_rng(11)
    cases = [((128, 128, 3), 64), ((8, 8), 64), ((8, 8, 3), 64), ((64, 64, 1), 64),
             ((37, 90, 3), 50), ((90, 37), 21), ((1, 5, 1), 6), ((3, 2), 1)]
    cases += [((int(h), int(w), *c), int(t)) for h, w, t, c in zip(
        rng.integers(1, 141, 6), rng.integers(1, 141, 6), rng.integers(1, 65, 6),
        [(), (1,), (3,)] * 2)]
    for shape, target in cases + cases[::-1]:  # the revisits hit and miss cached plans
        values = (rng.integers(0, 256, shape, dtype=np.uint8) if len(shape) == 3
                  else rng.random(shape))
        out = bilinear_stack(values[None], target)[0]
        assert out.dtype == np.float64
        assert np.array_equal(out, bilinear_loop_reference(values, target)), (shape, target)


def test_bilinear_plans_are_bounded_and_read_only():
    _bilinear_plan.cache_clear()
    for size in range(1, PLAN_CACHE_SIZE + 3):
        bilinear_stack(np.zeros((1, size, size)), 4)
    bilinear_stack(np.zeros((1, size, size)), 4)
    info = _bilinear_plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, PLAN_CACHE_SIZE + 2, PLAN_CACHE_SIZE)
    plan_arrays_are_read_only(_bilinear_plan(size, size, 4, 1))


def test_to_uint8_rounds_halves_to_even_and_clips():
    # the one rounding rule of resize, CLAHE, the corpus renderer and heatmap export
    out = to_uint8(np.array([[0.5, 1.5, 2.5, 254.5], [-3.0, 300.0, 127.49, 127.51]]))
    assert out.dtype == np.uint8
    assert out.tolist() == [[0, 2, 2, 254], [0, 255, 127, 128]]


def global_he_oracle(luma):
    """Plain global histogram equalization (bin-center CDF), loop-free oracle."""
    hist = np.bincount(luma.ravel(), minlength=256).astype(float)
    cdf = np.cumsum(hist)
    lut = np.clip(np.rint(255.0 * (cdf - hist / 2.0) / luma.size), 0, 255).astype(np.uint8)
    return lut[luma]


class TestClahe:
    def test_constant_invariance(self):
        for value in (0, 64, 128, 200, 255):
            img = Image(np.full((64, 64, 3), value, dtype=np.uint8))
            out = clahe(img, ClaheConfig())
            diff = np.abs(out.pixels.astype(int) - value)
            assert diff.max() <= 1, f"value {value}: max diff {diff.max()}"

    def test_global_he_limit(self):
        rng = np.random.default_rng(4)
        gray = Image(rng.integers(0, 256, (32, 32, 1), dtype=np.uint8))
        out = clahe(gray, ClaheConfig(tiles=1, clip_limit=1e12))
        expected = global_he_oracle(gray.pixels[..., 0])
        assert np.max(np.abs(out.pixels[..., 0].astype(int) - expected.astype(int))) <= 1

    def test_two_region_contrast_increases(self):
        rng = np.random.default_rng(5)
        left = rng.normal(60, 4, (128, 64))
        right = rng.normal(180, 4, (128, 64))
        luma = np.clip(np.concatenate([left, right], axis=1), 0, 255).astype(np.uint8)
        img = Image(luma[..., None])
        out = clahe(img, ClaheConfig(tiles=2, clip_limit=4.0))
        for sl in (np.s_[:, :64], np.s_[:, 64:]):
            assert out.pixels[..., 0][sl].std() > luma[sl].std()

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        img = random_image(rng, 40, 40)
        a = clahe(img, ClaheConfig())
        b = clahe(img, ClaheConfig())
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_tile_mapping_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            values = rng.integers(0, 256, size=(16, 16))
            lut = tile_lut(values, ClaheConfig(clip_limit=float(rng.uniform(1, 6))))
            assert np.all(np.diff(lut.astype(int)) >= 0)

    def test_output_stays_valid_uint8(self):
        rng = np.random.default_rng(8)
        img = random_image(rng, 33, 47)
        out = clahe(img, ClaheConfig(tiles=3))
        assert out.pixels.dtype == np.uint8
        assert out.pixels.shape == img.pixels.shape

    def test_tiles_larger_than_image_rejected(self):
        img = Image(np.zeros((4, 4, 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            clahe(img, ClaheConfig(tiles=8))

    def test_preserves_hue_of_color_input(self):
        # constant-hue image: chroma channels must be untouched
        rng = np.random.default_rng(9)
        pixels = np.zeros((32, 32, 3), dtype=np.uint8)
        pixels[..., 0] = rng.integers(80, 220, (32, 32))
        pixels[..., 1] = (pixels[..., 0] * 0.6).astype(np.uint8)
        pixels[..., 2] = (pixels[..., 0] * 0.6).astype(np.uint8)
        img = Image(pixels)
        out = clahe(img, ClaheConfig(tiles=2))
        _, cb_in, cr_in = rgb_to_ycbcr(img.pixels)
        _, cb_out, cr_out = rgb_to_ycbcr(out.pixels)
        assert np.abs(cb_out.astype(int) - cb_in.astype(int)).mean() < 4
        assert np.abs(cr_out.astype(int) - cr_in.astype(int)).mean() < 4


def clahe_loop_reference(img, config):
    """CLAHE as one equalization per tile in a Python loop, blended with
    three-array LUT indexing: the formulation `clahe` must match bit for bit."""
    if img.channels == 3:
        luma, cb, cr = rgb_to_ycbcr(img.pixels)
    else:
        luma = img.pixels[..., 0].astype(np.int32)
    t, bins = config.tiles, LUMA_BINS
    ye = np.rint(np.linspace(0, img.height, t + 1)).astype(int)
    xe = np.rint(np.linspace(0, img.width, t + 1)).astype(int)
    luts = np.empty((t, t, bins), dtype=np.uint8)
    for i in range(t):
        for j in range(t):
            values = luma[ye[i]:ye[i + 1], xe[j]:xe[j + 1]]
            hist = np.bincount(values.ravel(), minlength=bins).astype(np.float64)
            total = values.size
            clip = config.clip_limit * total / bins
            excess = np.maximum(hist - clip, 0.0).sum()
            hist = np.minimum(hist, clip) + excess / bins
            cdf = np.cumsum(hist)
            midpoint = cdf - hist / 2.0
            luts[i, j] = np.clip(np.rint(255.0 * midpoint / total), 0, 255).astype(np.uint8)
    cy = np.array([(ye[i] + ye[i + 1] - 1) / 2.0 for i in range(t)])
    cx = np.array([(xe[j] + xe[j + 1] - 1) / 2.0 for j in range(t)])
    yy = np.arange(img.height, dtype=np.float64)
    xx = np.arange(img.width, dtype=np.float64)
    iy0 = np.clip(np.searchsorted(cy, yy, side="right") - 1, 0, t - 1)
    ix0 = np.clip(np.searchsorted(cx, xx, side="right") - 1, 0, t - 1)
    iy1 = np.minimum(iy0 + 1, t - 1)
    ix1 = np.minimum(ix0 + 1, t - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        wy = np.where(iy1 > iy0, (yy - cy[iy0]) / (cy[iy1] - cy[iy0]), 0.0)
        wx = np.where(ix1 > ix0, (xx - cx[ix0]) / (cx[ix1] - cx[ix0]), 0.0)
    wy = np.clip(wy, 0.0, 1.0)[:, None]
    wx = np.clip(wx, 0.0, 1.0)[None, :]
    a, b, c, d, v = iy0[:, None], iy1[:, None], ix0[None, :], ix1[None, :], luma
    blended = ((1 - wy) * (1 - wx) * luts[a, c, v] + (1 - wy) * wx * luts[a, d, v]
               + wy * (1 - wx) * luts[b, c, v] + wy * wx * luts[b, d, v])
    eq = np.clip(np.rint(blended), 0, 255).astype(np.int32)
    if img.channels == 3:
        return ycbcr_to_rgb(eq, cb, cr)
    return eq.astype(np.uint8)[..., None]


def test_clahe_bitwise_matches_loop_reference():
    rng = np.random.default_rng(10)
    for trial in range(120):
        w, h = (int(v) for v in rng.integers(8, 141, size=2))
        channels = 3 if trial % 2 else 1
        if trial % 3 == 0:  # flat regions make clipped, redistributed histograms
            pixels = np.clip(rng.normal(rng.uniform(0, 255), rng.uniform(1, 30),
                                        (h, w, channels)), 0, 255).astype(np.uint8)
        else:
            pixels = rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
        img = Image(pixels)
        config = ClaheConfig(tiles=int(rng.integers(1, 9)),
                             clip_limit=float(rng.choice([1.0, 2.0, rng.uniform(1, 6)])))
        assert np.array_equal(clahe(img, config).pixels, clahe_loop_reference(img, config)), \
            (w, h, channels, config)

    # cached geometry plans: new pixels on a cached geometry (hits), then more
    # geometries than the cache holds, interleaved (every revisit is a miss)
    geometries = [(128, 128, 8), (64, 64, 8), (33, 47, 3), (47, 33, 1), (8, 140, 8), (140, 9, 2)]
    assert len(geometries) > PLAN_CACHE_SIZE
    _clahe_plan.cache_clear()
    for trial in range(3 * len(geometries)):
        h, w, tiles = geometries[trial % len(geometries)]
        for channels in (1, 3):
            img = random_image(rng, w, h, channels)
            config = ClaheConfig(tiles=tiles, clip_limit=float(rng.uniform(1, 6)))
            assert np.array_equal(clahe(img, config).pixels, clahe_loop_reference(img, config)), \
                (w, h, channels, config)
    after = _clahe_plan.cache_info()
    assert after.misses == 3 * len(geometries)
    assert after.hits == 3 * len(geometries)  # the second channel count
    assert after.currsize == PLAN_CACHE_SIZE
    plan = _clahe_plan(h, w, tiles)
    plan_arrays_are_read_only(plan)
    keys, bases = plan[0], plan[6:]
    assert [a.dtype for a in (keys, *bases)] == [np.int64] * 5


@pytest.mark.parametrize("images", [1, 2, 5])
def test_bilinear_stack_matches_each_image_alone(images):
    rng = np.random.default_rng(12)
    for shape, target in [((9, 13, 3), 6), ((16, 16, 1), 32), ((7, 5), 11), ((12, 12, 2), 12)]:
        stack = (rng.integers(0, 256, (images, *shape), dtype=np.uint8) if len(shape) == 3
                 else rng.random((images, *shape)))  # 2-D float maps
        out = bilinear_stack(stack, target)
        assert out.shape == (images, target, target, *shape[2:])
        for b in range(images):
            alone = bilinear_stack(stack[b][None], target)[0]
            assert np.array_equal(out[b], alone), (shape, target, b)
            assert np.array_equal(out[b], bilinear_loop_reference(stack[b], target))


@pytest.mark.parametrize("images", [1, 2, 5])
def test_clahe_stack_matches_each_image_alone(images):
    rng = np.random.default_rng(13)
    for channels in (1, 3):
        for (h, w), tiles, clip_limit in [((16, 16), 1, 1.0), ((33, 47), 3, 2.0),
                                          ((64, 40), 8, 3.7), ((9, 9), 2, 1e12)]:
            stack = rng.integers(0, 256, (images, h, w, channels), dtype=np.uint8)
            stack[0, : h // 2] = 90  # a flat region clips its histograms
            config = ClaheConfig(tiles=tiles, clip_limit=clip_limit)
            out = clahe_stack(stack, config)
            assert out.shape == stack.shape and out.dtype == np.uint8
            for b in range(images):
                alone = clahe(Image(stack[b]), config).pixels
                assert np.array_equal(out[b], alone), (channels, h, w, config, b)
                assert np.array_equal(alone, clahe_loop_reference(Image(stack[b]), config))
