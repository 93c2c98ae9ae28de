"""``repro.jpeg2000`` — a complete JPEG 2000 codec substrate.

The functional payload and profiling subject of the case study: codestream
syntax, MQ arithmetic coding, EBCOT Tier-1/Tier-2, tag trees, de/quantisation,
5/3 and 9/7 lifting wavelet transforms, colour transforms and DC shift,
assembled into an encoder (to fabricate test material) and the decoder whose
five stages (Fig. 1) the OSSS models distribute across hardware and software.

Decoding is plan-driven: :func:`compile_plan` turns a
:class:`DecodeOptions` value (plus the host CPU count) into an explicit
:class:`DecodePlan` — stages ``parse → entropy → reconstruct →
assemble``, each bound to an implementation and an executor — which the
decoder executes.  Plans are only ever compiled, never hand-built.
Each stage has one reference implementation (the oracle) plus at most
one refined one; :func:`shutdown_pool` tears down the entropy stage's
cached worker pool.
"""

from .codestream import (
    CodestreamError,
    CodingParameters,
    TilePart,
    parse_codestream,
    write_codestream,
)
from .decoder import DecodingError, Jpeg2000Decoder, TileStages, decode_codestream
from .encoder import EncodingError, Jpeg2000Encoder, encode_image
from .options import (
    KERNEL_BATCHED,
    KERNEL_REFERENCE,
    BlockSpec,
    DecodeOptions,
    ParallelDegradedWarning,
)
from .plan import DecodePlan, ExecutorSpec, StageBinding, compile_plan
from .stages.entropy import shutdown_pool
from .image import Image, TileGrid, synthetic_image
from .transcode import TranscodeError, drop_layers
from .pipeline import (
    ALL_STAGES,
    STAGE_ARITH,
    STAGE_DC,
    STAGE_ICT,
    STAGE_IDWT,
    STAGE_IQ,
    StageOps,
)

__all__ = [
    "ALL_STAGES",
    "BlockSpec",
    "CodestreamError",
    "CodingParameters",
    "DecodeOptions",
    "DecodePlan",
    "DecodingError",
    "EncodingError",
    "ExecutorSpec",
    "Image",
    "Jpeg2000Decoder",
    "Jpeg2000Encoder",
    "KERNEL_BATCHED",
    "KERNEL_REFERENCE",
    "ParallelDegradedWarning",
    "STAGE_ARITH",
    "STAGE_DC",
    "STAGE_ICT",
    "STAGE_IDWT",
    "STAGE_IQ",
    "StageBinding",
    "StageOps",
    "TileGrid",
    "TilePart",
    "TileStages",
    "TranscodeError",
    "compile_plan",
    "decode_codestream",
    "drop_layers",
    "encode_image",
    "parse_codestream",
    "shutdown_pool",
    "synthetic_image",
    "write_codestream",
]
