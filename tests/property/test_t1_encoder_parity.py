"""Property-based parity: the batched Tier-1 encoder vs the reference.

``t1_fast.encode_codeblock_batch`` exists purely for speed; the
reference ``t1.CodeBlockEncoder`` stays the oracle.  Every field of the
result must match: codeword bytes, pass count, bit-plane count, op
count and the per-pass truncation lengths (the quality-layer allocator
reads those, so a drift there would change every layered codestream).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.jpeg2000.t1 import CodeBlockEncoder
from repro.jpeg2000.t1_fast import decode_codeblock_batch, encode_codeblock_batch

ORIENTATIONS = ["LL", "HL", "LH", "HH"]


def _fields(result):
    return (
        result.data,
        result.num_passes,
        result.num_bitplanes,
        result.ops,
        result.pass_lengths,
    )


def _reference(coeffs, width, height, orientation):
    return CodeBlockEncoder(
        [int(v) for v in coeffs], width, height, orientation
    ).encode()


@st.composite
def raw_blocks(draw, max_side=12, amplitudes=(0, 1, 7, 127, 2047)):
    """A random block of signed coefficients plus its geometry.

    Sides run 1..``max_side`` (so 1xN, Nx1 and heights that are not a
    multiple of the 4-row stripe all occur); a sparsity draw zeroes a
    share of the samples so run-mode columns and isolated significance
    events are both common.
    """
    width = draw(st.integers(min_value=1, max_value=max_side))
    height = draw(st.integers(min_value=1, max_value=max_side))
    orientation = draw(st.sampled_from(ORIENTATIONS))
    amplitude = draw(st.sampled_from(amplitudes))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-amplitude, max_value=amplitude),
            min_size=width * height,
            max_size=width * height,
        )
    )
    keep = draw(st.sampled_from([1, 2, 5]))
    coeffs = [v if i % keep == 0 else 0 for i, v in enumerate(coeffs)]
    return np.array(coeffs, dtype=np.int64), width, height, orientation


@given(raw_blocks())
@settings(max_examples=150, deadline=None)
def test_single_block_matches_reference(block):
    coeffs, width, height, orientation = block
    (result,) = encode_codeblock_batch([block])
    assert _fields(result) == _fields(
        _reference(coeffs, width, height, orientation)
    )


@given(st.lists(raw_blocks(), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mixed_batch_matches_reference(blocks):
    """One batch of mixed shapes and orientations reuses the scratch
    buffers sized to its largest block; each result must still equal
    the block encoded alone by the reference."""
    results = encode_codeblock_batch(blocks)
    assert len(results) == len(blocks)
    for (coeffs, width, height, orientation), result in zip(blocks, results):
        assert _fields(result) == _fields(
            _reference(coeffs, width, height, orientation)
        )


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(ORIENTATIONS),
)
@settings(max_examples=30, deadline=None)
def test_all_zero_block_codes_nothing(width, height, orientation):
    zeros = np.zeros(width * height, dtype=np.int64)
    (result,) = encode_codeblock_batch([(zeros, width, height, orientation)])
    assert _fields(result) == _fields(
        _reference(zeros, width, height, orientation)
    ) == (b"", 0, 0, 0, [])


@given(st.lists(raw_blocks(max_side=7, amplitudes=(2 ** 33, 2 ** 40)),
                min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_more_than_30_bit_planes_match_reference(blocks):
    """Magnitudes up to 2**40 (int64 input) code exactly like the
    reference's arbitrary-precision integers."""
    for (coeffs, width, height, orientation), result in zip(
        blocks, encode_codeblock_batch(blocks)
    ):
        assert _fields(result) == _fields(
            _reference(coeffs, width, height, orientation)
        )


@given(st.lists(raw_blocks(amplitudes=(1, 127, 2047, 2 ** 40)),
                min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_batch_roundtrips_through_batched_decoder(blocks):
    """Encode a batch, decode it with ``decode_codeblock_batch``: the
    input coefficients come back exactly."""
    results = encode_codeblock_batch(blocks)
    tasks = []
    offset = 0
    for (_, width, height, orientation), result in zip(blocks, results):
        tasks.append((result.data, width, height, orientation,
                      result.num_bitplanes, None, offset))
        offset += width * height
    out, _ = decode_codeblock_batch(tasks)
    assert out.tolist() == np.concatenate([b[0] for b in blocks]).tolist()
