"""End-to-end codec behaviour."""

import hashlib

import numpy as np
import pytest

from repro.jpeg2000 import (
    CodingParameters,
    EncodingError,
    Jpeg2000Decoder,
    decode_codestream,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.image import Image


def params(size=64, tile=32, lossless=True, components=3, **overrides):
    defaults = dict(
        width=size,
        height=size,
        num_components=components,
        tile_width=tile,
        tile_height=tile,
        num_levels=3,
        lossless=lossless,
        use_mct=components >= 3,
        base_step=1 / 8,
    )
    defaults.update(overrides)
    return CodingParameters(**defaults)


class TestLossless:
    def test_roundtrip_exact_multi_tile(self):
        image = synthetic_image(64, 64, 3, seed=20)
        assert decode_codestream(encode_image(image, params())) == image

    def test_roundtrip_exact_single_tile(self):
        image = synthetic_image(32, 32, 3, seed=21)
        assert decode_codestream(
            encode_image(image, params(size=32, tile=32))
        ) == image

    def test_roundtrip_grayscale(self):
        image = synthetic_image(32, 32, 1, seed=22)
        out = decode_codestream(encode_image(image, params(size=32, components=1)))
        assert out == image

    def test_roundtrip_without_mct(self):
        image = synthetic_image(32, 32, 3, seed=23)
        p = params(size=32, use_mct=False)
        assert decode_codestream(encode_image(image, p)) == image

    def test_non_square_non_tile_aligned(self):
        image = synthetic_image(48, 80, 3, seed=24)
        p = params()
        p.width, p.height = 48, 80
        assert decode_codestream(encode_image(image, p)) == image

    def test_compresses_below_raw(self):
        image = synthetic_image(64, 64, 3, seed=25)
        data = encode_image(image, params())
        assert len(data) < 64 * 64 * 3  # less than 8 bpp raw

    def test_pathological_flat_image(self):
        flat = Image([np.full((32, 32), 200, dtype=np.int64)] * 3, bit_depth=8)
        p = params(size=32)
        data = encode_image(flat, p)
        assert decode_codestream(data) == flat
        assert len(data) < 600  # near-empty packets

    def test_extreme_values(self):
        rng = np.random.default_rng(26)
        extreme = Image(
            [rng.choice([0, 255], size=(32, 32)).astype(np.int64) for _ in range(3)],
            bit_depth=8,
        )
        assert decode_codestream(encode_image(extreme, params(size=32))) == extreme


class TestLossy:
    def test_quality_improves_with_finer_steps(self):
        image = synthetic_image(64, 64, 3, seed=27)
        psnrs = []
        for base in (1 / 2, 1 / 8, 1 / 32):
            p = params(lossless=False, base_step=base)
            out = decode_codestream(encode_image(image, p))
            psnrs.append(out.psnr(image))
        assert psnrs[0] < psnrs[1] < psnrs[2]

    def test_rate_decreases_with_coarser_steps(self):
        image = synthetic_image(64, 64, 3, seed=28)
        fine = len(encode_image(image, params(lossless=False, base_step=1 / 32)))
        coarse = len(encode_image(image, params(lossless=False, base_step=1 / 2)))
        assert coarse < fine

    def test_reasonable_quality_at_moderate_rate(self):
        image = synthetic_image(64, 64, 3, seed=29)
        out = decode_codestream(encode_image(image, params(lossless=False, base_step=1 / 8)))
        assert out.psnr(image) > 35.0


class TestStageInstrumentation:
    def test_ops_recorded_per_stage(self):
        image = synthetic_image(32, 32, 3, seed=30)
        decoder = Jpeg2000Decoder(encode_image(image, params(size=32)))
        decoder.decode()
        ops = decoder.ops
        assert ops["arith"] > 0
        assert ops["iq"] > 0
        assert ops["idwt"] > 0
        assert ops["ict"] == 3 * 32 * 32
        assert ops["dc"] == 3 * 32 * 32

    def test_tile_stages_match_full_decode(self):
        image = synthetic_image(64, 64, 3, seed=31)
        data = encode_image(image, params())
        full = decode_codestream(data)
        decoder = Jpeg2000Decoder(data)
        from repro.jpeg2000 import TileGrid

        grid = TileGrid(64, 64, 32, 32)
        pieces = [
            np.zeros((64, 64), dtype=np.int64) for _ in range(3)
        ]
        for tile_index in range(grid.num_tiles):
            planes = decoder.tile_stages(tile_index).run()
            for target, plane in zip(pieces, planes):
                grid.insert(target, tile_index, plane)
        assert all(
            np.array_equal(a, b) for a, b in zip(pieces, full.components)
        )


class TestEncoderValidation:
    def test_size_mismatch_rejected(self):
        image = synthetic_image(32, 32, 3)
        with pytest.raises(EncodingError, match="size"):
            encode_image(image, params(size=64))

    def test_component_mismatch_rejected(self):
        image = synthetic_image(32, 32, 1)
        with pytest.raises(EncodingError, match="component"):
            encode_image(image, params(size=32, components=3))

    def test_bit_depth_mismatch_rejected(self):
        image = synthetic_image(32, 32, 3, bit_depth=10)
        with pytest.raises(EncodingError, match="depth"):
            encode_image(image, params(size=32))


#: SHA-256 of ``encode_image`` output, recorded with the reference
#: ``t1.CodeBlockEncoder`` doing Tier-1.  name -> ((width, height,
#: components, image seed), CodingParameters overrides, digest).
GOLDEN_CODESTREAMS = {
    "lossless-rgb-cb32": (
        (64, 64, 3, 11),
        dict(tile_width=32, tile_height=32, num_levels=2, codeblock_exp=5,
             lossless=True),
        "221795fc0d2ad9fc9b93989988bc0c44b51f2aa552ac6e3cd219d745a5efdb7b",
    ),
    "lossy-gray-cb64": (
        (96, 72, 1, 12),
        dict(tile_width=96, tile_height=72, num_levels=3, codeblock_exp=6,
             lossless=False, use_mct=False, base_step=1 / 16),
        "5e5cc5d565fc8ac1807832c6e01e3ddb82172473817dad238aa434e74cb798a8",
    ),
    "lossless-gray-cb64-3layers": (
        (80, 64, 1, 13),
        dict(tile_width=80, tile_height=64, num_levels=2, codeblock_exp=6,
             lossless=True, use_mct=False, num_layers=3),
        "0302cd6bae1fc9a071007f6c8452e42da4e2cfb392ffd8eeec918b880f133a14",
    ),
    "lossy-rgb-cb32-3layers": (
        (64, 48, 3, 14),
        dict(tile_width=32, tile_height=48, num_levels=2, codeblock_exp=5,
             lossless=False, num_layers=3, base_step=1 / 32),
        "aaeffb9017f5e6b3e651cc6c301e533759bca7c3e8b84d60211c1581a249f720",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CODESTREAMS))
def test_encoded_codestream_matches_golden_digest(name):
    """Whole-image encode output is pinned byte for byte: a change to
    any encode stage (Tier-1 bytes, pass lengths feeding the layer
    allocator, Tier-2 headers) shows up here."""
    (width, height, components, seed), overrides, digest = GOLDEN_CODESTREAMS[name]
    image = synthetic_image(width, height, components, seed=seed)
    coding = CodingParameters(
        width=width, height=height, num_components=components, **overrides
    )
    assert hashlib.sha256(encode_image(image, coding)).hexdigest() == digest
