"""The decode-plan driver: one schedule for every plan.

Executes a compiled :class:`~repro.jpeg2000.plan.DecodePlan`
over a list of per-tile ``TileStages`` drivers, and keeps the
:class:`StageFates` record of what actually ran.  The stage modules only
ever see their own slice of the plan.

The schedule is the same for every plan: parse every tile (Tier-2),
make one entropy call over every code block of the image (inline, or
one size-aware fan-out when the plan binds a pool), then scatter and
reconstruct tile by tile.  Reconstructing one tile at a time keeps the
working set to one tile's planes; batching all tiles through one
inverse DWT measured slower on the 16-tile paper workload (cache
misses) and held every tile's intermediates at once.

Runtime degradations (pool unusable → inline, broken pool → per-chunk
resume) are recorded on the fate map by the entropy stage; the flight
recorder embeds the map (with the compiled plan) in every crash report.
"""

from __future__ import annotations

from typing import Optional

from .. import telemetry
from .pipeline import STAGE_ARITH
from .plan import (
    STAGE_ENTROPY,
    STAGE_PARSE,
    STAGE_RECONSTRUCT,
    DecodePlan,
)
from .stages import entropy as entropy_stage
from .stages import reconstruct as reconstruct_stage


class StageFates:
    """What actually happened to each planned stage of one decode.

    ``fates[stage]`` is ``{"state": ..., "rewrites": [...]}`` where
    *state* walks planned → running → done and each rewrite is a
    ``{"rule", "detail"}`` record of a runtime degradation (pool →
    inline, broken-pool resume).
    :meth:`publish` installs the compiled plan and this (live, mutable)
    map into the flight-recorder context, so a crash report dumped at
    any point shows both the plan and the per-stage fates as of the
    crash.
    """

    def __init__(self, plan: DecodePlan):
        self.plan = plan
        self.fates: dict = {
            binding.stage: {"state": "planned", "rewrites": []}
            for binding in plan.stages
        }

    def publish(self) -> None:
        flight = telemetry.flight_recorder()
        if flight is not None:
            flight.set_context("plan", {
                "digest": self.plan.digest(), **self.plan.as_dict(),
            })
            flight.set_context("stage_fates", self.fates)

    def begin(self, stage: str) -> None:
        self.fates[stage]["state"] = "running"

    def done(self, stage: str) -> None:
        self.fates[stage]["state"] = "done"

    def rewrite(self, stage: str, rule: str, detail: str) -> None:
        self.fates[stage]["rewrites"].append({"rule": rule, "detail": detail})
        telemetry.log_event("plan.rewrite", stage=stage, rule=rule,
                            detail=detail)


def run_tiles(
    plan: DecodePlan,
    stages_list: list,
    *,
    schedule: Optional[dict] = None,
    fates: Optional[StageFates] = None,
) -> dict:
    """Execute *plan* over the tiles; returns tile index → sample planes.

    *schedule* is the caller's reporting dict (``DecodeOptions
    .schedule_info()``) installed into crash reports; *fates* collects
    the per-stage outcome (one is created if the caller keeps none).
    """
    if fates is None:
        fates = StageFates(plan)
    fates.publish()
    binding = plan.stage(STAGE_ENTROPY)
    layouts: list = []
    firsts: list = []
    sources: list = []
    spec_pairs: list = []
    fates.begin(STAGE_PARSE)
    with telemetry.software_span("stage", "t2_parse", "decode"):
        for stages in stages_list:
            layout, specs = stages.entropy_specs()
            layouts.append(layout)
            firsts.append(len(spec_pairs))
            source_index = len(sources)
            sources.append(stages.data)
            spec_pairs.extend((source_index, spec) for spec in specs)
    fates.done(STAGE_PARSE)
    fates.begin(STAGE_ENTROPY)
    with telemetry.software_span("sw", STAGE_ARITH, "decode"):
        with telemetry.software_span("stage", "t1_decode", "decode"):
            flat, offsets, ops = entropy_stage.run_specs(
                sources, spec_pairs, binding,
                schedule=schedule, fates=fates,
            )
    fates.done(STAGE_ENTROPY)
    fates.begin(STAGE_RECONSTRUCT)
    planes: dict = {}
    for index, stages in enumerate(stages_list):
        with telemetry.software_span("stage", "gather", "decode"):
            bands = stages.scatter_entropy(
                layouts[index], flat, offsets, ops, firsts[index]
            )
        planes[stages.tile_index] = reconstruct_stage.finish_tiles(
            stages, bands
        )
    fates.done(STAGE_RECONSTRUCT)
    return planes
