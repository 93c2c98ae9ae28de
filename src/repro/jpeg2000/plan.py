"""The decode plan IR: options → plan → execute.

The paper's method is *seamless refinement*: one explicitly staged
design, refined across abstraction levels without rewrites, every lower
level produced by the flow rather than written beside it.  This module
gives the software decoder the same discipline.  A :class:`DecodePlan`
is a small frozen intermediate representation of one decode run — the
four pipeline stages

    ``parse → entropy → reconstruct → assemble``

each bound to an implementation id and an executor (inline, or a worker
pool with start method and chunking).  Every stage has one reference
implementation (the oracle) plus at most one refined one: the entropy
stage binds the ``batched`` or the ``reference`` Tier-1 kernel, the
parse stage the ``fast`` or the ``reference`` Tier-2 reader.

Plans are only ever compiled: :func:`compile_plan` lowers a
:class:`~repro.jpeg2000.options.DecodeOptions` value (whose constructor
already rejects every unknown field value) plus the host CPU count into
a plan, and is total, so there is no hand-built plan to validate.
Runtime degradations (pool unusable → inline, broken-pool resume) are
recorded by the driver in the per-stage fate map.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from .options import DEFAULT_OPTIONS, DecodeOptions

#: The pipeline stages, in execution order.
STAGE_PARSE = "parse"
STAGE_ENTROPY = "entropy"
STAGE_RECONSTRUCT = "reconstruct"
STAGE_ASSEMBLE = "assemble"
STAGE_ORDER = (STAGE_PARSE, STAGE_ENTROPY, STAGE_RECONSTRUCT, STAGE_ASSEMBLE)

#: Executor kinds.
EXECUTOR_INLINE = "inline"
EXECUTOR_POOL = "pool"

#: Reconstruction / assembly implementation ids (one implementation each).
RECONSTRUCT_VECTORISED = "vectorised"
ASSEMBLE_MOSAIC = "mosaic"


@dataclass(frozen=True)
class ExecutorSpec:
    """How one stage's work is executed.

    ``kind="inline"`` runs on the calling process (the canonical form
    carries no pool configuration).  ``kind="pool"`` fans out to a
    process pool: ``workers`` processes created with ``start_method``,
    work shipped through the executor's pickle channel in size-aware
    chunks of at most ``chunk_size`` blocks.
    """

    kind: str = EXECUTOR_INLINE
    workers: int = 0
    chunk_size: int = 0
    start_method: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "start_method": self.start_method,
        }

    def describe(self) -> str:
        if self.kind == EXECUTOR_INLINE:
            return "inline"
        parts = [
            f"pool workers={self.workers}",
            f"chunk={self.chunk_size}",
            f"start={self.start_method or 'default'}",
        ]
        return " ".join(parts)


#: The canonical inline executor.
INLINE = ExecutorSpec()


@dataclass(frozen=True)
class StageBinding:
    """One stage bound to an implementation id and an executor."""

    stage: str
    impl: str
    executor: ExecutorSpec = INLINE

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "impl": self.impl,
            "executor": self.executor.as_dict(),
        }


@dataclass(frozen=True)
class DecodePlan:
    """An explicit decode pipeline: the unit the driver executes, the
    benchmark labels, and the ledger records."""

    stages: tuple = ()

    def stage(self, name: str) -> StageBinding:
        for binding in self.stages:
            if binding.stage == name:
                return binding
        raise KeyError(f"plan binds no stage {name!r}")

    def as_dict(self) -> dict:
        """Canonical plain-data form (stable key order, JSON-safe)."""
        return {"stages": [binding.as_dict() for binding in self.stages]}

    def canonical_json(self) -> str:
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """The plan hash recorded in ledgers and benchmark rows."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Deterministic human-readable rendering (the CLI transcript)."""
        lines = [f"DecodePlan {self.digest()[:12]}"]
        width = max((len(b.stage) for b in self.stages), default=0)
        impl_width = max((len(b.impl) for b in self.stages), default=0)
        for binding in self.stages:
            lines.append(
                f"  {binding.stage:<{width}}  "
                f"impl={binding.impl:<{impl_width}}  "
                f"{binding.executor.describe()}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# the planner: DecodeOptions + host CPU count -> DecodePlan
# --------------------------------------------------------------------------


def compile_plan(options: DecodeOptions = DEFAULT_OPTIONS,
                 cpu_count: Optional[int] = None) -> DecodePlan:
    """Compile *options* into the plan a host with *cpu_count* CPUs runs.

    ``cpu_count=None`` means ``os.cpu_count()``.  Compilation is total:
    every constructible :class:`DecodeOptions` value yields a plan, and
    plans come from nowhere else.  Host clamping happens here — a
    parallel request on a 1-CPU host compiles to an inline entropy
    executor — and the *report* of that degradation stays with the
    decode entry points (``ParallelDegradedWarning``), not the planner.
    """
    workers = options.workers_on(cpu_count)
    parse = StageBinding(STAGE_PARSE, options.tier2)
    if workers > 1:
        executor = ExecutorSpec(
            kind=EXECUTOR_POOL,
            workers=workers,
            chunk_size=options.chunk_size,
            start_method=options.start_method,
        )
    else:
        executor = INLINE
    entropy = StageBinding(STAGE_ENTROPY, options.kernel, executor)
    return DecodePlan((
        parse,
        entropy,
        StageBinding(STAGE_RECONSTRUCT, RECONSTRUCT_VECTORISED),
        StageBinding(STAGE_ASSEMBLE, ASSEMBLE_MOSAIC),
    ))
