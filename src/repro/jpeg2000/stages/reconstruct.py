"""The reconstruct stage: gather, IQ, inverse DWT, ICT/RCT, DC shift.

Everything after the entropy kernels and before the tile mosaic.  The
per-tile functions mirror Fig. 1's stage structure (and accumulate
basic-op counts into the caller's ``StageOps``); :func:`finish_tiles`
is the vectorised path the driver runs on each tile — dequantisation,
one batched inverse DWT over the tile's same-shape components, and the
fused colour-transform + DC-shift kernels — value- and
op-count-identical to running the per-stage functions one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ... import telemetry
from .. import dwt, mct, quant
from ..codestream import CodingParameters
from ..pipeline import STAGE_ARITH, STAGE_DC, STAGE_ICT, STAGE_IDWT, STAGE_IQ
from ..structure import band_shapes
from .parse import qcd_delta


@dataclass
class DecodedBand:
    """One subband's coefficient plane after entropy decoding."""

    resolution: int
    orientation: str
    indices: np.ndarray  # signed quantisation indices


def scatter_entropy(
    params: CodingParameters,
    tile_width: int,
    tile_height: int,
    layout: list,
    flat,
    offsets,
    block_ops: list,
    ops,
    first: int = 0,
) -> list:
    """Scatter an entropy-stage result into per-band planes.

    ``first`` is this tile's first block index within *flat* — non-zero
    when the driver batched several tiles' blocks into one fan-out.
    Returns the per-component :class:`DecodedBand` lists and accumulates
    the per-block op counts into *ops*.
    """
    shapes = band_shapes(tile_width, tile_height, params.num_levels)
    components: list[list[DecodedBand]] = []
    index = first
    for comp_index in range(params.num_components):
        bands = layout[comp_index]
        decoded: list[DecodedBand] = []
        for shape in shapes:
            band = bands[(shape.resolution, shape.orientation)]
            plane = np.zeros((shape.height, shape.width), dtype=np.int64)
            for block in band.blocks:
                geo = block.geometry
                start = int(offsets[index])
                ops.add(STAGE_ARITH, block_ops[index])
                plane[
                    geo.y0 : geo.y0 + geo.height, geo.x0 : geo.x0 + geo.width
                ] = flat[start : start + geo.width * geo.height].reshape(
                    geo.height, geo.width
                )
                index += 1
            decoded.append(DecodedBand(shape.resolution, shape.orientation, plane))
        components.append(decoded)
    return components


def dequantise(
    params: CodingParameters,
    decoded_bands: list,
    ops,
    max_resolution: Optional[int] = None,
) -> list:
    """Per component, the dequantised :class:`~repro.jpeg2000.dwt.Subbands`."""
    result = []
    for component in decoded_bands:
        ll: Optional[np.ndarray] = None
        level_quads: dict[int, dict[str, np.ndarray]] = {}
        for band in component:
            if (
                max_resolution is not None
                and band.resolution > max_resolution
            ):
                continue  # resolution-truncated reconstruction
            ops.add(STAGE_IQ, band.indices.size)
            if params.lossless:
                values = band.indices
            else:
                # The step size comes from the parsed QCD segment — the
                # codestream is self-contained, no side channel.
                values = quant.dequantise(
                    band.indices,
                    qcd_delta(params, band.resolution, band.orientation),
                )
            if band.resolution == 0:
                ll = values
            else:
                level_quads.setdefault(band.resolution, {})[band.orientation] = values
        levels = [
            level_quads[res]
            for res in sorted(level_quads.keys(), reverse=True)
        ]
        result.append(dwt.Subbands(ll, levels, params.transform))
    return result


def inverse_dwt(subbands_per_component: list, ops) -> list:
    planes = []
    for subbands in subbands_per_component:
        counts = dwt.DwtOpCounts()
        planes.append(dwt.inverse(subbands, counts))
        ops.add(STAGE_IDWT, counts.total)
    return planes


def inverse_mct(params: CodingParameters, planes: list, ops) -> list:
    if not params.use_mct:
        return planes
    if params.lossless:
        r, g, b = mct.rct_inverse(
            np.rint(planes[0]).astype(np.int64),
            np.rint(planes[1]).astype(np.int64),
            np.rint(planes[2]).astype(np.int64),
        )
    else:
        r, g, b = mct.ict_inverse(planes[0], planes[1], planes[2])
    ops.add(STAGE_ICT, 3 * planes[0].size)
    return [r, g, b] + list(planes[3:])


def dc_shift(params: CodingParameters, planes: list, ops) -> list:
    out = []
    for plane in planes:
        out.append(mct.dc_shift_inverse(plane, params.bit_depth))
        ops.add(STAGE_DC, plane.size)
    return out


def finish_mct_dc(params: CodingParameters, planes: list, ops) -> list:
    """Fused inverse colour transform + DC shift, one pass per plane.

    Value- and op-count-identical to :func:`inverse_mct` followed by
    :func:`dc_shift` (see the fused kernels in
    :mod:`repro.jpeg2000.mct`); the batched reconstruction path uses
    this so each tile plane is traversed once instead of three times.
    """
    if params.use_mct:
        if params.lossless:
            fused = mct.rct_dc_inverse(
                planes[0], planes[1], planes[2], params.bit_depth
            )
        else:
            fused = mct.ict_dc_inverse(
                planes[0], planes[1], planes[2], params.bit_depth
            )
        ops.add(STAGE_ICT, 3 * planes[0].size)
        out = list(fused)
        rest = planes[3:]
    else:
        out = []
        rest = planes
    for plane in rest:
        out.append(mct.dc_shift_inverse(plane, params.bit_depth))
    for plane in planes:
        ops.add(STAGE_DC, plane.size)
    return out


def finish_tiles(stages, bands: list) -> list:
    """Stages 2–5 for one tile: its reconstructed component planes.

    *stages* is the tile's ``TileStages`` driver (op accumulators and
    coding parameters) and *bands* its scattered entropy output.
    Dequantisation is one NumPy pass per subband; the inverse DWT
    batches the tile's same-shape components per resolution level
    (:func:`~repro.jpeg2000.dwt.inverse_batch`); the colour transform
    and DC shift run as fused whole-plane kernels.  Values and op counts
    are exactly those of the per-stage functions above.
    """
    with telemetry.software_span("stage", "dequant_mct", "decode"):
        subbands = stages._staged(STAGE_IQ, stages.dequantise, bands)
    with telemetry.software_span("stage", "idwt", "decode"):
        counts_list = [dwt.DwtOpCounts() for _ in subbands]
        planes = dwt.inverse_batch(subbands, counts_list)
        for counts in counts_list:
            stages.ops.add(STAGE_IDWT, counts.total)
    with telemetry.software_span("stage", "dequant_mct", "decode"):
        return stages.finish_mct_dc(planes)
