"""Property-based parity: the batched Tier-1 kernel vs the reference.

The batched kernel (``t1_fast.decode_codeblock_batch``) exists purely
for speed; these properties pin it to the readable specification kernel
bit for bit — identical coefficients AND identical basic-operation
counts (the Fig. 1 / Table 1 cycle models read the op counter, so a
drift there would silently skew the paper reproduction).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jpeg2000.t1 import CodeBlockDecoder, CodeBlockEncoder
from repro.jpeg2000.t1_fast import decode_codeblock_batch


@st.composite
def coded_blocks(draw):
    """A random encoded code block plus its decode parameters."""
    width = draw(st.integers(min_value=1, max_value=12))
    height = draw(st.integers(min_value=1, max_value=12))
    orientation = draw(st.sampled_from(["LL", "HL", "LH", "HH"]))
    amplitude = draw(st.sampled_from([1, 7, 127, 2047]))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-amplitude, max_value=amplitude),
            min_size=width * height,
            max_size=width * height,
        )
    )
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    if result.num_passes:
        num_passes = draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=result.num_passes))
        )
    else:
        num_passes = None
    if num_passes is None:
        data = result.data
    else:
        data = result.data[: result.bytes_for_passes(num_passes)]
    return data, width, height, orientation, result.num_bitplanes, num_passes, coeffs


def _decode_single(data, width, height, orientation, num_bitplanes, num_passes):
    """One block through the batched kernel (a batch of one)."""
    out, (ops,) = decode_codeblock_batch(
        [(data, width, height, orientation, num_bitplanes, num_passes, 0)]
    )
    return out.tolist(), ops


@given(coded_blocks())
@settings(max_examples=120, deadline=None)
def test_batched_single_block_matches_reference(block):
    data, width, height, orientation, num_bitplanes, num_passes, _ = block
    reference = CodeBlockDecoder(data, width, height, orientation, num_bitplanes, num_passes)
    values, ops = _decode_single(
        data, width, height, orientation, num_bitplanes, num_passes
    )
    assert values == reference.decode()
    assert ops == reference.ops


@given(coded_blocks())
@settings(max_examples=60, deadline=None)
def test_batched_single_block_roundtrips_full_blocks(block):
    data, width, height, orientation, num_bitplanes, num_passes, coeffs = block
    if num_passes is not None:
        return  # truncated segments reconstruct approximations by design
    values, _ = _decode_single(data, width, height, orientation, num_bitplanes, None)
    assert values == coeffs


@given(st.lists(coded_blocks(), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_batched_kernel_matches_single_block_and_reference(blocks):
    """A multi-block batch is a pure re-scheduling of single-block
    batches: random geometries and pass counts must decode bit-for-bit
    like each block alone AND like the reference kernel, op counts
    included.
    """
    batch = []
    offset = 0
    for data, width, height, orientation, num_bitplanes, num_passes, _ in blocks:
        batch.append(
            (data, width, height, orientation, num_bitplanes, num_passes, offset)
        )
        offset += width * height
    out, op_counts = decode_codeblock_batch(batch)
    assert out.dtype == np.int32
    assert len(op_counts) == len(blocks)
    for block, entry, batched_ops in zip(blocks, batch, op_counts):
        data, width, height, orientation, num_bitplanes, num_passes, _ = block
        start = entry[6]
        batched_values = out[start : start + width * height].tolist()
        single_values, single_ops = _decode_single(
            data, width, height, orientation, num_bitplanes, num_passes
        )
        reference = CodeBlockDecoder(
            data, width, height, orientation, num_bitplanes, num_passes
        )
        reference_values = reference.decode()
        assert batched_values == single_values
        assert batched_values == reference_values
        assert batched_ops == single_ops
        assert batched_ops == reference.ops


@given(st.lists(coded_blocks(), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_batched_kernel_writes_into_caller_buffer(blocks):
    """With a caller-supplied output array the batch writes in place at
    the given offsets and leaves untouched gaps at zero."""
    batch = []
    offset = 0
    for data, width, height, orientation, num_bitplanes, num_passes, _ in blocks:
        batch.append(
            (data, width, height, orientation, num_bitplanes, num_passes, offset)
        )
        offset += width * height
    out = np.zeros(offset + 5, dtype=np.int32)  # trailing gap stays zero
    returned, _ = decode_codeblock_batch(batch, out)
    assert returned is out
    auto, _ = decode_codeblock_batch(batch)
    assert out[:offset].tolist() == auto[:offset].tolist()
    assert out[offset:].tolist() == [0] * 5


def _wide_block(width=5, height=7, orientation="HL"):
    """A block whose magnitudes reach 2**31 and beyond (> 30 bit planes)."""
    rng = np.random.default_rng(2008)
    coeffs = [
        int(value) for value in rng.integers(-(2 ** 33), 2 ** 33, width * height)
    ]
    coeffs[0] = 2 ** 31
    coeffs[1] = -(2 ** 31)
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    assert result.num_bitplanes > 30
    return result, coeffs, width, height, orientation


def test_batched_kernel_decodes_more_than_30_bit_planes():
    """Magnitudes of 2**31 and up do not fit int32: the batch switches to
    an int64 output and still matches the reference bit for bit, op
    counts included — alone and next to an ordinary block."""
    result, coeffs, width, height, orientation = _wide_block()
    small = CodeBlockEncoder([3, -1, 0, 7], 2, 2, "LL").encode()
    batch = [
        (small.data, 2, 2, "LL", small.num_bitplanes, None, 0),
        (result.data, width, height, orientation, result.num_bitplanes, None, 4),
    ]
    out, ops = decode_codeblock_batch(batch)
    assert out.dtype == np.int64
    reference = CodeBlockDecoder(
        result.data, width, height, orientation, result.num_bitplanes
    )
    assert out[4:].tolist() == reference.decode() == coeffs
    assert ops[1] == reference.ops
    assert out[:4].tolist() == [3, -1, 0, 7]


def test_batched_kernel_rejects_narrow_buffer_for_wide_block():
    result, _, width, height, orientation = _wide_block()
    block = (result.data, width, height, orientation, result.num_bitplanes, None, 0)
    with pytest.raises(ValueError, match="int64"):
        decode_codeblock_batch([block], np.zeros(width * height, dtype=np.int32))
