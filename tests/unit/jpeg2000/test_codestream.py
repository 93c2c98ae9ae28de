"""Codestream marker syntax: writer/parser inverse, error handling."""

import pytest

from repro.jpeg2000 import DecodeOptions, decode_codestream, encode_image, synthetic_image
from repro.jpeg2000.codestream import (
    EOC,
    QCD,
    CodestreamError,
    CodingParameters,
    TilePart,
    parse_codestream,
    write_codestream,
)
from repro.jpeg2000.quant import StepSize


def params_lossless(**overrides):
    defaults = dict(
        width=256,
        height=256,
        num_components=3,
        tile_width=128,
        tile_height=128,
        num_levels=3,
        lossless=True,
    )
    defaults.update(overrides)
    params = CodingParameters(**defaults)
    params.exponents = [10] * params.num_subbands()
    return params


def params_lossy(**overrides):
    params = params_lossless(lossless=False, **overrides)
    params.exponents = []
    params.step_sizes = [StepSize(12, 512)] * params.num_subbands()
    return params


class TestRoundtrip:
    def test_lossless_header_roundtrip(self):
        params = params_lossless()
        tiles = [TilePart(i, bytes([i] * 10)) for i in range(4)]
        data = write_codestream(params, tiles)
        parsed = parse_codestream(data)
        out = parsed.parameters
        assert (out.width, out.height) == (256, 256)
        assert out.num_components == 3
        assert out.tile_width == 128
        assert out.num_levels == 3
        assert out.lossless
        assert out.exponents == params.exponents
        assert [t.tile_index for t in parsed.tile_parts] == [0, 1, 2, 3]
        assert parsed.tile_parts[2].data == bytes([2] * 10)

    def test_lossy_header_roundtrip(self):
        params = params_lossy(base_step=1 / 16)
        data = write_codestream(params, [TilePart(0, b"xx")])
        out = parse_codestream(data).parameters
        assert not out.lossless
        assert out.step_sizes == params.step_sizes
        assert out.guard_bits == params.guard_bits

    def test_markers_present(self):
        data = write_codestream(params_lossless(), [TilePart(0, b"")])
        assert data.startswith(b"\xff\x4f")  # SOC
        assert data.endswith(b"\xff\xd9")  # EOC
        assert b"\xff\x51" in data  # SIZ
        assert b"\xff\x52" in data  # COD
        assert b"\xff\x5c" in data  # QCD

    def test_empty_tile_list(self):
        data = write_codestream(params_lossless(), [])
        assert parse_codestream(data).tile_parts == []


class TestValidation:
    def test_missing_soc(self):
        with pytest.raises(CodestreamError, match="SOC"):
            parse_codestream(b"\x00\x00")

    def test_truncated_stream(self):
        data = write_codestream(params_lossless(), [TilePart(0, b"abcdef")])
        with pytest.raises(CodestreamError, match="truncated"):
            parse_codestream(data[:20])

    @pytest.mark.parametrize("prefix", [b"", b"\xff", b"\xff\x4f\xff"])
    def test_short_prefix_is_truncated(self, prefix):
        with pytest.raises(CodestreamError, match="truncated"):
            parse_codestream(prefix)

    def test_empty_qcd_body_is_truncated(self):
        data = write_codestream(params_lossless(), [])
        qcd = data.index(QCD.to_bytes(2, "big"))
        stream = data[:qcd] + QCD.to_bytes(2, "big") + b"\x00\x02" + EOC.to_bytes(2, "big")
        with pytest.raises(CodestreamError, match="truncated"):
            parse_codestream(stream)

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_every_prefix_decodes_or_raises_codestream_error(self, kernel):
        """No prefix of a 4-tile stream leaks a raw parser exception."""
        image = synthetic_image(32, 32, 3, seed=5)
        params = CodingParameters(
            width=32, height=32, num_components=3,
            tile_width=16, tile_height=16, num_levels=2, lossless=True,
        )
        data = encode_image(image, params)
        options = DecodeOptions(kernel=kernel, workers=1)
        for end in range(len(data) + 1):
            try:
                decoded = decode_codestream(data[:end], options)
            except CodestreamError:
                continue
            assert end == len(data)
            assert decoded == image

    def test_unknown_marker_rejected(self):
        data = bytearray(write_codestream(params_lossless(), []))
        # Corrupt the COD marker into an unknown one.
        index = bytes(data).find(b"\xff\x52")
        data[index + 1] = 0x7E
        with pytest.raises(CodestreamError, match="unsupported marker"):
            parse_codestream(bytes(data))

    def test_bad_dimensions_rejected(self):
        with pytest.raises(CodestreamError):
            write_codestream(params_lossless(width=0), [])

    def test_mct_needs_three_components(self):
        params = params_lossless(num_components=1, use_mct=True)
        with pytest.raises(CodestreamError, match="colour transform"):
            write_codestream(params, [])

    def test_bit_depth_range(self):
        with pytest.raises(CodestreamError):
            write_codestream(params_lossless(bit_depth=17), [])

    def test_qcd_exponent_count_checked(self):
        params = params_lossless()
        params.exponents = [10]  # wrong count
        data = write_codestream(params_lossless(), [])
        # build bad stream manually: reuse good header but patch levels
        bad = params_lossless(num_levels=2)
        bad.exponents = [10] * params_lossless().num_subbands()  # too many
        with pytest.raises(CodestreamError, match="count"):
            parse_codestream(write_codestream(bad, []))


class TestDerivedProperties:
    def test_num_subbands(self):
        assert params_lossless(num_levels=0).num_subbands() == 1
        assert params_lossless(num_levels=3).num_subbands() == 10

    def test_codeblock_size(self):
        assert params_lossless(codeblock_exp=5).codeblock_size == 32

    def test_transform_name(self):
        assert params_lossless().transform == "5/3"
        assert params_lossy().transform == "9/7"
