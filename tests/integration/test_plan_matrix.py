"""The plan-matrix differential suite (the decode-identity guarantee).

Every decode plan — inline or pool executor × batched or reference
Tier-1 kernel × fast or reference Tier-2 parser, each compiled from the
``DecodeOptions`` that request it — must produce the byte-identical
image and identical basic-operation counts as the reference plan on the
same 4-tile workload, in both case-study modes (lossless 5/3 and lossy
9/7).  The same holds for code blocks with more than 30 bit planes
(magnitudes past ``int32``) and after a worker of a pool plan is killed.

When a plan fails the identity check its canonical JSON is dumped to
``$PLAN_MATRIX_DUMP_DIR`` (CI uploads it as an artifact); the matrix
start method can be forced with ``$PLAN_MATRIX_START_METHOD`` so CI can
sweep fork and spawn.
"""

import itertools
import json
import os
import pathlib
import signal
import time

import numpy as np
import pytest

from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)
from repro.jpeg2000.options import BlockSpec
from repro.jpeg2000.plan import STAGE_ENTROPY, compile_plan
from repro.jpeg2000.stages import entropy
from repro.jpeg2000.t1 import CodeBlockEncoder

#: CI sweeps the whole matrix under fork and under spawn.
START_METHOD = os.environ.get("PLAN_MATRIX_START_METHOD") or None


#: The schedule of each executor row; the pool oversubscribes so it
#: runs two real workers on any host.
EXECUTORS = {
    "inline": {},
    "pool": {
        "workers": 2, "chunk_size": 3, "start_method": START_METHOD,
        "oversubscribe": True,
    },
}

#: Every surviving plan, as the options that compile to it: {inline,
#: pool} x {batched, reference} x Tier-2 {fast, reference}, labelled for
#: CI ("-tier2" = reference Tier-2).
MATRIX = {
    f"{name}-{kernel}" + ("-tier2" if tier2 == "reference" else ""):
        DecodeOptions(kernel=kernel, tier2=tier2, **EXECUTORS[name])
    for name, kernel, tier2 in itertools.product(
        EXECUTORS, ("batched", "reference"), ("fast", "reference"),
    )
}
POOL_PLANS = sorted(label for label in MATRIX if label.startswith("pool-"))


@pytest.fixture(scope="module", params=[True, False], ids=["lossless", "lossy"])
def workload(request):
    lossless = request.param
    image = synthetic_image(96, 96, 3, seed=2008)
    params = CodingParameters(
        width=96, height=96, num_components=3,
        tile_width=48, tile_height=48, num_levels=3,
        lossless=lossless, base_step=1 / 8,
    )
    data = encode_image(image, params)
    # The reference plan: reference kernel and reference Tier-2 inline.
    decoder = Jpeg2000Decoder(data, options=MATRIX["inline-reference-tier2"])
    reference = decoder.decode()
    return data, reference, decoder.ops


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def _dump_failing_plan(label, plan):
    directory = os.environ.get("PLAN_MATRIX_DUMP_DIR")
    if not directory:
        return None
    path = pathlib.Path(directory) / f"failing-plan-{label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"label": label, "digest": plan.digest(), **plan.as_dict()},
        indent=2, sort_keys=True,
    ))
    return path


def _check_identical(label, plan, decoder, image, reference, reference_ops):
    try:
        for ours, theirs in zip(image.components, reference.components):
            assert np.array_equal(ours, theirs), (
                f"plan {label} ({plan.digest()[:12]}) diverged from the "
                "reference image"
            )
        assert decoder.ops.counts == reference_ops.counts, (
            f"plan {label} changed the basic-operation counts"
        )
    except Exception:
        dumped = _dump_failing_plan(label, plan)
        if dumped is not None:
            print(f"failing plan dumped to {dumped}")
        raise


def test_matrix_covers_every_surviving_plan():
    assert len(MATRIX) == 8
    digests = {compile_plan(options).digest() for options in MATRIX.values()}
    assert len(digests) == 8


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_every_valid_plan_is_byte_identical(label, workload):
    data, reference, reference_ops = workload
    decoder = Jpeg2000Decoder(data, options=MATRIX[label])
    image = decoder.decode()
    _check_identical(
        label, decoder.plan, decoder, image, reference, reference_ops
    )


@pytest.mark.parametrize("label", POOL_PLANS)
def test_every_pool_plan_survives_a_killed_worker(label, workload):
    """Kill one worker of the cached pool between two decodes: the next
    decode finds the pool broken, resumes through the in-process path,
    records the rewrite, and is still byte- and op-identical."""
    data, reference, reference_ops = workload
    options = MATRIX[label]
    Jpeg2000Decoder(data, options=options).decode()  # warm: workers exist
    pool = entropy._pool
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    decoder = Jpeg2000Decoder(data, options=options)
    image = decoder.decode()
    _check_identical(
        label, decoder.plan, decoder, image, reference, reference_ops
    )
    rules = [
        rewrite["rule"]
        for rewrite in decoder.fates.fates[STAGE_ENTROPY]["rewrites"]
    ]
    assert rules == ["broken-pool-resume"]


@pytest.fixture(scope="module")
def wide_blocks():
    """Code blocks past 30 bit planes next to ordinary ones, as one
    source buffer plus segment-span specs, with the reference decode."""
    rng = np.random.default_rng(31)
    source = bytearray()
    specs = []
    for index, (width, height, orientation) in enumerate(
        [(5, 7, "HL"), (4, 4, "LL"), (8, 3, "HH"), (6, 6, "LH"), (3, 9, "HL")]
    ):
        amplitude = 2 ** 33 if index % 2 == 0 else 100
        coeffs = [
            int(value)
            for value in rng.integers(-amplitude, amplitude, width * height)
        ]
        coeffs[0] = amplitude
        result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
        start = len(source)
        source += result.data
        specs.append((0, BlockSpec(
            width, height, orientation, result.num_bitplanes, None,
            ((start, len(source)),),
        )))
    assert max(spec.num_bitplanes for _, spec in specs) > 30
    binding = compile_plan(MATRIX["inline-reference"]).stage(STAGE_ENTROPY)
    reference = entropy.run_specs([bytes(source)], specs, binding)
    return bytes(source), specs, reference


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_every_valid_plan_decodes_wide_blocks(label, wide_blocks):
    source, specs, (ref_flat, ref_offsets, ref_ops) = wide_blocks
    binding = compile_plan(MATRIX[label]).stage(STAGE_ENTROPY)
    flat, offsets, ops = entropy.run_specs([source], specs, binding)
    assert flat.dtype == np.int64
    assert np.array_equal(flat, ref_flat)
    assert np.array_equal(offsets, ref_offsets)
    assert ops == ref_ops

