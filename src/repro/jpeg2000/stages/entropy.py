"""The entropy stage: the Tier-1 kernels and the executor that runs them.

The paper's profile (Fig. 1) puts 78–89 % of software decode time in the
arithmetic decoder, and its case study answers by parallelising exactly
that stage across tasks.  This module is the software mirror of that
move: EBCOT code blocks are coded independently, so once Tier-2 has
sliced the packet bodies into per-block codeword segments, every block
can be decoded in isolation.

Execution is *plan-driven*: the entry points (:func:`run_specs`,
:func:`run_tasks`) take the entropy
:class:`~repro.jpeg2000.plan.StageBinding` of a compiled
:class:`~repro.jpeg2000.plan.DecodePlan` — implementation id (kernel)
plus executor (inline, or a pool with chunking and start method) —
never a raw options bag.  Two kernels exist: the reference
:class:`~repro.jpeg2000.t1.CodeBlockDecoder` (the oracle) and the
refined :func:`~repro.jpeg2000.t1_fast.decode_codeblock_batch`, which
decodes a whole chunk of blocks through one kernel instance so the
per-block Python overhead is paid once per chunk.

The pool path plans **size-aware** chunks (:func:`plan_chunks`:
largest-first into the least-loaded chunk) so one giant block cannot
serialise the tail of the decode.  Each chunk's codeword bytes ship to a
worker through the executor's pickle channel, and the worker sends back
the chunk's coefficients as one flat array, its per-block op counts and
its pid (for the per-worker occupancy histogram).

Runtime degradations — pool unusable → inline, broken pool → per-chunk
resume — are reported to the caller's stage-fate recorder (the
``fates`` parameter, duck-typed to
:class:`repro.jpeg2000.driver.StageFates`) so every crash report and
ledger row shows what *actually* ran, not just what was planned.

Both kernels and both executors return bit-identical coefficients and
identical basic-op counts, so the Fig. 1 / Table 1 instrumentation is
unaffected by how the work is scheduled.
"""

from __future__ import annotations

import atexit
import heapq
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from ... import telemetry
from ..options import BlockTask, KERNEL_REFERENCE, _warn_degraded
from ..plan import EXECUTOR_POOL, STAGE_ENTROPY, StageBinding
from ..t1 import CodeBlockDecoder
from ..t1_fast import batch_dtype, decode_codeblock_batch


def _rewrite(fates, rule: str, detail: str) -> None:
    """Record a runtime plan rewrite on the caller's fate map, if any."""
    if fates is not None:
        fates.rewrite(STAGE_ENTROPY, rule, detail)


def _decode_tasks_sequential(tasks: Sequence[BlockTask], kernel: str) -> tuple:
    """In-process decode of *tasks*, laid end to end in one flat array.

    Returns ``(flat, ops)``: block *i*'s coefficients follow those of
    blocks ``0..i-1`` and ``ops[i]`` is its basic-op count.  ``flat`` is
    ``int32`` unless a block has more than 30 bit planes.
    """
    batch = []
    offset = 0
    for task in tasks:
        batch.append(task + (offset,))
        offset += task[1] * task[2]
    if kernel != KERNEL_REFERENCE:
        return decode_codeblock_batch(batch)
    flat = np.empty(offset, dtype=batch_dtype(task[4] for task in tasks))
    ops = []
    for data, width, height, orientation, num_bitplanes, num_passes, start in batch:
        decoder = CodeBlockDecoder(
            data, width, height, orientation, num_bitplanes, num_passes
        )
        flat[start:start + width * height] = decoder.decode()
        ops.append(decoder.ops)
    return flat, ops


def _split(tasks: Sequence[BlockTask], flat, ops) -> list:
    """Per-block ``(coefficients, ops)`` views of a flat chunk result."""
    results = []
    start = 0
    for task, block_ops in zip(tasks, ops):
        end = start + task[1] * task[2]
        results.append((flat[start:end], block_ops))
        start = end
    return results


def _decode_chunk(payload):
    """Pool worker entry point: decode one chunk of tasks.

    Returns ``(pid, flat, ops, events)``: when the parent requested
    structured logging, ``events`` carries the worker-side event dicts
    (emitted in this process, under this pid) for the parent to merge in
    chunk order; otherwise it is ``None``.
    """
    kernel, tasks, want_events = payload
    if not want_events:
        return (os.getpid(), *_decode_tasks_sequential(tasks, kernel), None)
    buffer = telemetry.capture_events()
    started = time.perf_counter()
    flat, ops = _decode_tasks_sequential(tasks, kernel)
    buffer.emit(
        "parallel.chunk_decoded",
        pid=os.getpid(), blocks=len(tasks),
        wall_ms=round((time.perf_counter() - started) * 1e3, 3),
    )
    return os.getpid(), flat, ops, buffer.events


def plan_chunks(costs: Sequence[int], workers: int, chunk_size: int) -> list:
    """Size-aware chunk plan: lists of block indices, balanced by cost.

    Blocks are placed largest-first into the currently lightest chunk
    (LPT scheduling), with at most ``chunk_size`` blocks per chunk and
    enough chunks for every worker to see several — so one expensive
    block cannot serialise the tail of the decode, and small blocks
    backfill around the big ones.
    """
    n = len(costs)
    if n == 0:
        return []
    num_chunks = max(math.ceil(n / chunk_size), min(n, workers * 4))
    order = sorted(range(n), key=lambda i: costs[i], reverse=True)
    chunks: list[list[int]] = [[] for _ in range(num_chunks)]
    heap = [(0, index) for index in range(num_chunks)]
    heapq.heapify(heap)
    for block in order:
        cost, index = heapq.heappop(heap)
        chunks[index].append(block)
        if len(chunks[index]) < chunk_size:
            heapq.heappush(heap, (cost + costs[block], index))
    return [chunk for chunk in chunks if chunk]


# One cached pool per (worker count, start method); re-created only when
# either changes.  Spawning a pool per decode would dominate small decodes.
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Optional[tuple] = None


def _get_pool(workers: int, start_method: Optional[str] = None) -> Optional[ProcessPoolExecutor]:
    global _pool, _pool_key
    key = (workers, start_method)
    if _pool is not None and _pool_key == key:
        return _pool
    shutdown_pool()
    try:
        context = get_context(start_method) if start_method else None
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except (OSError, PermissionError, RuntimeError, ValueError):
        return None  # no pool available here: sequential fallback
    _pool = pool
    _pool_key = key
    return pool


def shutdown_pool() -> None:
    """Tear down the cached worker pool (also runs at interpreter exit)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_key = None


atexit.register(shutdown_pool)


#: Bucket bounds for the per-worker occupancy histogram (blocks decoded
#: by one worker in one fan-out).
_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)


def _record_occupancy(worker_blocks: dict) -> None:
    recorder = telemetry.active()
    if recorder is None or not worker_blocks:
        return
    histogram = recorder.metrics.histogram(
        "jpeg2000.parallel.worker_blocks", _OCCUPANCY_BUCKETS
    )
    for blocks in worker_blocks.values():
        histogram.observe(blocks)


def _resume(futures, payloads, *, fates, flight, observing, fanout) -> list:
    """Outcomes of a fan-out whose pool broke: completed chunks keep
    their results, lost chunks are re-decoded in-process with the
    plan's kernel (``pid`` ``None`` marks a re-decoded chunk)."""
    shutdown_pool()
    telemetry.count("jpeg2000.parallel.broken_pools")
    if observing:
        telemetry.log_event("parallel.pool_broken", span=fanout)
    _rewrite(fates, "broken-pool-resume",
             "worker pool broke mid-decode; completed chunks kept, "
             "lost chunks re-decoded in-process")
    outcomes = []
    resumed = redecoded = 0
    for index, (kernel, chunk, _) in enumerate(payloads):
        # A pool that broke while chunks were still being submitted
        # leaves the trailing chunks without a future.
        future = futures[index] if index < len(futures) else None
        outcome = None
        if future is not None and future.done() and not future.cancelled():
            try:
                outcome = future.result()
            except Exception:  # a chunk the worker could not finish
                outcome = None
        if outcome is None:
            outcome = (None, *_decode_tasks_sequential(chunk, kernel), None)
            redecoded += 1
            if flight is not None:
                flight.chunk_state(index, "redecoded")
            if observing:
                telemetry.log_event(
                    "parallel.chunk_redecoded", span=fanout,
                    chunk=index, blocks=len(chunk),
                )
        else:
            resumed += 1
            if flight is not None:
                flight.chunk_state(index, "resumed")
        outcomes.append(outcome)
    telemetry.count("jpeg2000.parallel.chunks_resumed", resumed)
    telemetry.count("jpeg2000.parallel.chunks_redecoded", redecoded)
    if observing:
        telemetry.log_event(
            "parallel.resumed", span=fanout,
            resumed=resumed, redecoded=redecoded,
        )
    if flight is not None:
        flight.dump("broken-pool")
    return outcomes


def run_tasks(
    tasks: Sequence[BlockTask], binding: StageBinding, *,
    schedule: Optional[dict] = None, fates=None,
) -> list:
    """Decode *tasks* in order; returns [(coefficient array, ops), ...].

    *binding* is the plan's entropy stage binding.  Results are
    position-matched to the input regardless of scheduling, and the pool
    path is byte-identical to the inline one — the only observable
    difference is wall-clock time.

    A pool that cannot be created degrades to the inline executor (with
    a :class:`~repro.jpeg2000.options.ParallelDegradedWarning`).  A
    broken pool (a worker crashed or was killed) degrades per chunk:
    chunks that already completed keep their results, and only the
    missing chunks are re-decoded in-process.
    """
    kernel = binding.impl
    ex = binding.executor
    if ex.kind != EXECUTOR_POOL or len(tasks) <= 1:
        return _split(tasks, *_decode_tasks_sequential(tasks, kernel))
    pool = _get_pool(ex.workers, ex.start_method)
    if pool is None:
        requested = ex.workers
        if schedule is not None:
            requested = schedule.get("requested_workers", ex.workers)
        _warn_degraded(requested, 1, "worker pool unavailable")
        _rewrite(fates, "pool-unavailable",
                 "no worker pool could be created; decoding in-process")
        return _split(tasks, *_decode_tasks_sequential(tasks, kernel))
    flight = telemetry.flight_recorder()
    observing = telemetry.log_enabled() or flight is not None
    fanout = telemetry.new_span_id() if observing else None
    chunks = plan_chunks(
        [len(task[0]) + 1 for task in tasks], ex.workers, ex.chunk_size
    )
    payloads = [
        (kernel, [tasks[block] for block in chunk], observing)
        for chunk in chunks
    ]
    if telemetry.enabled():
        telemetry.count(
            "jpeg2000.parallel.bytes_pickled",
            sum(len(task[0]) for task in tasks),
        )
    if flight is not None:
        if schedule is not None:
            flight.set_context("schedule", schedule)
        flight.reset_chunks()
    if observing:
        telemetry.log_event(
            "parallel.fanout", span=fanout,
            chunks=len(payloads), blocks=len(tasks), workers=ex.workers,
        )
    futures: list = []
    try:
        for index, payload in enumerate(payloads):
            futures.append(pool.submit(_decode_chunk, payload))
            if flight is not None:
                flight.chunk_state(index, "submitted")
        outcomes = [future.result() for future in futures]
    except BrokenProcessPool:
        outcomes = _resume(
            futures, payloads, fates=fates, flight=flight,
            observing=observing, fanout=fanout,
        )
    results: list = [None] * len(tasks)
    worker_blocks: dict = {}
    for index, (chunk, payload, (pid, flat, ops, events)) in enumerate(
        zip(chunks, payloads, outcomes)
    ):
        if flight is not None and flight.chunks.get(index) == "submitted":
            flight.chunk_state(index, "done")
        telemetry.merge_worker_events(events)
        if pid is not None:
            worker_blocks[pid] = worker_blocks.get(pid, 0) + len(chunk)
        for block, result in zip(chunk, _split(payload[1], flat, ops)):
            results[block] = result
    _record_occupancy(worker_blocks)
    if observing:
        telemetry.log_event(
            "parallel.gathered", span=fanout, chunks=len(outcomes),
            blocks=len(tasks),
        )
    return results


def run_specs(
    sources: Sequence[bytes],
    specs: Sequence[tuple],
    binding: StageBinding, *,
    schedule: Optional[dict] = None,
    fates=None,
):
    """Decode segment-described blocks; the decoder's entropy stage.

    ``sources`` are the tile-part buffers; ``specs`` is a sequence of
    ``(source_index, BlockSpec)`` in scatter order.  Returns
    ``(flat, offsets, ops)`` where ``flat`` holds every block's
    coefficients row-major at ``offsets[i]`` (a NumPy prefix-sum over
    block sizes) and ``ops[i]`` is block *i*'s basic-op count.

    *binding* is the plan's entropy stage binding; a pool binding runs
    through :func:`run_tasks` (and its degradations, recorded on
    *fates*).  Every path is bit-identical.
    """
    sizes = [spec.size for _, spec in specs]
    offsets = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    tasks = [
        (
            spec.codeword(sources[source_index]),
            spec.width, spec.height, spec.orientation,
            spec.num_bitplanes, spec.num_passes,
        )
        for source_index, spec in specs
    ]
    if binding.executor.kind != EXECUTOR_POOL or len(tasks) <= 1:
        flat, ops = _decode_tasks_sequential(tasks, binding.impl)
        return flat, offsets, ops
    results = run_tasks(tasks, binding, schedule=schedule, fates=fates)
    flat = np.empty(
        int(offsets[-1]), dtype=batch_dtype(task[4] for task in tasks)
    )
    ops = []
    for (values, block_ops), start, size in zip(results, offsets, sizes):
        flat[int(start):int(start) + size] = values
        ops.append(block_ops)
    return flat, offsets, ops
