"""Unit tests of the entropy stage's pool executor and its options.

Everything runs through the stage API (:func:`run_tasks`,
:func:`run_specs`, :func:`plan_chunks`, :func:`shutdown_pool`) or the
decoder; pools are real worker processes (2 workers, forced with
explicit pool bindings or ``oversubscribe``).
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import telemetry
from repro.jpeg2000 import (
    CodingParameters,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000 import options as options_module
from repro.jpeg2000.options import (
    BlockSpec,
    DecodeOptions,
    KERNEL_BATCHED,
    KERNEL_REFERENCE,
    ParallelDegradedWarning,
)
from repro.jpeg2000.plan import (
    EXECUTOR_POOL,
    STAGE_ENTROPY,
    ExecutorSpec,
    StageBinding,
)
from repro.jpeg2000.stages import entropy
from repro.jpeg2000.stages.entropy import (
    plan_chunks,
    run_specs,
    run_tasks,
    shutdown_pool,
)
from repro.jpeg2000.t1 import CodeBlockEncoder

START_METHODS = ["fork", "spawn"] if hasattr(os, "fork") else ["spawn"]


def _encode_block(seed: int, width: int = 8, height: int = 8, orientation: str = "HH"):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-64, 65, size=width * height).tolist()
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    return (
        (result.data, width, height, orientation, result.num_bitplanes, result.num_passes),
        coeffs,
    )


def _tasks(seeds):
    tasks, expected = zip(*(_encode_block(seed) for seed in seeds))
    return list(tasks), list(expected)


def _spec_workload(seeds):
    """Encoded blocks as one concatenated source + segment-span specs."""
    tasks, expected = _tasks(seeds)
    source = bytearray()
    specs = []
    for data, width, height, orientation, num_bitplanes, num_passes in tasks:
        start = len(source)
        source += data
        specs.append((0, BlockSpec(
            width, height, orientation, num_bitplanes, num_passes,
            ((start, start + len(data)),),
        )))
    return bytes(source), specs, expected


def _inline(kernel=KERNEL_BATCHED):
    return StageBinding(STAGE_ENTROPY, kernel)


def _pool(workers=2, chunk_size=2, kernel=KERNEL_BATCHED, start_method=None):
    return StageBinding(STAGE_ENTROPY, kernel, ExecutorSpec(
        kind=EXECUTOR_POOL, workers=workers, chunk_size=chunk_size,
        start_method=start_method,
    ))


def _codestream(size=32, lossless=True, seed=5):
    image = synthetic_image(size, size, 3, seed=seed)
    params = CodingParameters(
        width=size, height=size, num_components=3,
        tile_width=size // 2, tile_height=size // 2, num_levels=2,
        lossless=lossless, base_step=1 / 8,
    )
    return encode_image(image, params)


class TestDecodeOptions:
    def test_defaults_are_sequential_batched(self):
        options = DecodeOptions()
        assert options.workers == 0
        assert options.kernel == KERNEL_BATCHED
        assert not options.parallel

    def test_exactly_six_fields_and_two_kernels(self):
        assert list(DecodeOptions().as_dict()) == [
            "workers", "chunk_size", "kernel", "start_method",
            "oversubscribe", "tier2",
        ]
        assert options_module._KERNELS == (KERNEL_BATCHED, KERNEL_REFERENCE)

    def test_none_workers_uses_cpu_count(self):
        options = DecodeOptions(workers=None)
        assert options.effective_workers == (os.cpu_count() or 1)

    def test_workers_clamped_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert DecodeOptions(workers=cpus + 7).effective_workers == cpus

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            DecodeOptions(workers=-1)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            DecodeOptions(chunk_size=0)

    def test_rejects_unknown_kernel(self):
        for kernel in ("simd", "fast"):
            with pytest.raises(ValueError):
                DecodeOptions(kernel=kernel)

    def test_rejects_unknown_tier2(self):
        with pytest.raises(ValueError):
            DecodeOptions(tier2="quantum")

    def test_single_worker_is_not_parallel(self):
        assert not DecodeOptions(workers=1).parallel
        # Parallelism only engages when the host actually has the CPUs.
        assert DecodeOptions(workers=2).parallel == ((os.cpu_count() or 1) >= 2)


class TestDecodeBlocks:
    def test_kernels_agree_per_block(self):
        task, coeffs = _encode_block(seed=1)
        ((batched_values, batched_ops),) = run_tasks([task], _inline())
        ((ref_values, ref_ops),) = run_tasks([task], _inline(KERNEL_REFERENCE))
        assert batched_values.tolist() == coeffs
        assert np.array_equal(batched_values, ref_values)
        assert batched_ops == ref_ops

    def test_sequential_order_is_preserved(self):
        tasks, expected = _tasks(range(6))
        results = run_tasks(tasks, _inline())
        assert len(results) == 6
        for (values, ops), coeffs in zip(results, expected):
            assert values.tolist() == coeffs
            assert ops > 0

    def test_pool_matches_sequential(self):
        tasks, _ = _tasks(range(9))
        for kernel in (KERNEL_BATCHED, KERNEL_REFERENCE):
            sequential = run_tasks(tasks, _inline(kernel))
            pooled = run_tasks(tasks, _pool(kernel=kernel))
            assert len(pooled) == len(sequential)
            for (seq_values, seq_ops), (par_values, par_ops) in zip(
                sequential, pooled
            ):
                assert np.array_equal(seq_values, par_values)
                assert seq_ops == par_ops
        shutdown_pool()

    def test_empty_task_list(self):
        assert run_tasks([], _pool()) == []

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        tasks, expected = _tasks(range(3))
        monkeypatch.setattr(
            entropy, "_get_pool", lambda workers, start_method=None: None
        )
        options_module._degradations_warned.clear()
        with pytest.warns(ParallelDegradedWarning):
            results = run_tasks(tasks, _pool(workers=4))
        for (values, _), coeffs in zip(results, expected):
            assert values.tolist() == coeffs

    def test_pool_is_cached_per_worker_count(self):
        first = entropy._get_pool(2)
        second = entropy._get_pool(2)
        assert first is second
        shutdown_pool()
        assert entropy._pool is None

    def test_pool_recreated_on_start_method_change(self):
        first = entropy._get_pool(2, None)
        second = entropy._get_pool(2, "fork")
        assert first is not second
        shutdown_pool()


class TestScheduleInfo:
    def test_degraded_flags_clamped_request(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options = DecodeOptions(workers=4)
        assert options.requested_workers == 4
        assert options.effective_workers == 1
        assert options.degraded
        info = options.schedule_info()
        assert info["requested_workers"] == 4
        assert info["effective_workers"] == 1
        assert info["degraded"] is True

    def test_oversubscribe_bypasses_clamp(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options = DecodeOptions(workers=4, oversubscribe=True)
        assert options.effective_workers == 4
        assert not options.degraded
        assert options.schedule_info()["effective_workers"] == 4

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError):
            DecodeOptions(start_method="teleport")

    def test_degraded_request_warns_once(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options_module._degradations_warned.clear()
        data = _codestream()
        with pytest.warns(ParallelDegradedWarning):
            Jpeg2000Decoder(data, options=DecodeOptions(workers=4)).decode()
        # Deduplicated: the same degradation does not warn a second time.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", ParallelDegradedWarning)
            Jpeg2000Decoder(data, options=DecodeOptions(workers=4)).decode()


class TestPlanChunks:
    def test_covers_every_block_once(self):
        costs = [5, 1, 9, 3, 7, 2, 8, 4]
        chunks = plan_chunks(costs, workers=2, chunk_size=3)
        seen = sorted(block for chunk in chunks for block in chunk)
        assert seen == list(range(len(costs)))

    def test_respects_chunk_size_cap(self):
        chunks = plan_chunks([1] * 20, workers=2, chunk_size=4)
        assert max(len(chunk) for chunk in chunks) <= 4

    def test_largest_first_balances_cost(self):
        # One giant block plus many small ones: the giant block must not
        # share a chunk with everything else.
        costs = [100] + [1] * 7
        chunks = plan_chunks(costs, workers=2, chunk_size=4)
        giant = next(chunk for chunk in chunks if 0 in chunk)
        loads = [sum(costs[block] for block in chunk) for chunk in chunks]
        assert giant == [0]  # scheduled alone: everything else backfills
        assert max(loads) == 100

    def test_empty(self):
        assert plan_chunks([], workers=2, chunk_size=4) == []


class TestBlockSpec:
    def test_codeword_joins_segments(self):
        spec = BlockSpec(2, 2, "HH", 3, None, ((1, 3), (5, 7)))
        assert spec.codeword(b"abcdefgh") == b"bcfg"
        assert spec.size == 4
        assert spec.cost == 5


class TestDecodeBlocksSpec:
    @pytest.mark.parametrize("kernel", [KERNEL_BATCHED, KERNEL_REFERENCE])
    def test_sequential_kernels_agree(self, kernel):
        source, specs, expected = _spec_workload(range(6))
        flat, offsets, ops = run_specs([source], specs, _inline(kernel))
        assert len(ops) == len(specs)
        for index, coeffs in enumerate(expected):
            start, end = int(offsets[index]), int(offsets[index + 1])
            assert flat[start:end].tolist() == coeffs
            assert ops[index] > 0

    def test_pickle_parallel_matches_sequential(self):
        source, specs, _ = _spec_workload(range(7))
        seq_flat, seq_offsets, seq_ops = run_specs([source], specs, _inline())
        par_flat, par_offsets, par_ops = run_specs(
            [source], specs, _pool(chunk_size=3)
        )
        assert np.array_equal(seq_flat, par_flat)
        assert par_flat.dtype == seq_flat.dtype
        assert np.array_equal(seq_offsets, par_offsets)
        assert seq_ops == par_ops
        shutdown_pool()

    def test_multiple_sources(self):
        source_a, specs_a, expected_a = _spec_workload(range(3))
        source_b, specs_b, expected_b = _spec_workload(range(10, 13))
        specs = [(0, spec) for _, spec in specs_a] + [(1, spec) for _, spec in specs_b]
        flat, offsets, ops = run_specs([source_a, source_b], specs, _inline())
        expected = expected_a + expected_b
        for index, coeffs in enumerate(expected):
            start, end = int(offsets[index]), int(offsets[index + 1])
            assert flat[start:end].tolist() == coeffs

    def test_empty_spec_list(self):
        flat, offsets, ops = run_specs([b""], [], _pool())
        assert len(flat) == 0
        assert offsets.tolist() == [0]
        assert ops == []


def _exploding_sequential(chunk, kernel, *, parent_pid, bomb_data, marker, real):
    """Fork-inherited bomb: kill the worker process on the marked chunk,
    but only after some other chunk has completed (so the resume path has
    something to resume from)."""
    if os.getpid() != parent_pid and any(task[0] == bomb_data for task in chunk):
        deadline = time.monotonic() + 30.0
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # let the parent drain completed results
        os._exit(1)
    result = real(chunk, kernel)
    if os.getpid() != parent_pid:
        with open(marker, "w") as handle:
            handle.write("done")
    return result


def _arm_bomb(monkeypatch, tmp_path, tasks):
    """Patch the chunk decoder so the worker holding the last task dies
    (fork start method, so the child inherits the patch)."""
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only test
        pytest.skip("fork start method unavailable")
    marker = str(tmp_path / "chunk-done")
    real = entropy._decode_tasks_sequential
    parent_pid = os.getpid()
    bomb_data = tasks[-1][0]

    def bomb(chunk, kernel):
        return _exploding_sequential(
            chunk, kernel, parent_pid=parent_pid, bomb_data=bomb_data,
            marker=marker, real=real,
        )

    shutdown_pool()  # the bomb must be in place before the fork
    monkeypatch.setattr(entropy, "_decode_tasks_sequential", bomb)


class TestBrokenPoolResume:
    def test_resumes_completed_chunks_after_worker_crash(
        self, tmp_path, monkeypatch
    ):
        """Fault injection: one worker dies mid-run.  The fallback must
        keep the completed chunks' results and re-decode only the chunks
        the broken pool lost."""
        tasks, expected = _tasks(range(6))
        _arm_bomb(monkeypatch, tmp_path, tasks)
        recorder = telemetry.install()
        try:
            results = run_tasks(
                tasks, _pool(chunk_size=1, start_method="fork")
            )
        finally:
            telemetry.uninstall()
            shutdown_pool()
        for (values, ops), coeffs in zip(results, expected):
            assert values.tolist() == coeffs
            assert ops > 0
        counters = recorder.metrics
        assert counters.counter("jpeg2000.parallel.broken_pools") == 1
        assert counters.counter("jpeg2000.parallel.chunks_resumed") >= 1
        assert counters.counter("jpeg2000.parallel.chunks_redecoded") >= 1
        # Resume must NOT have re-decoded everything from scratch.
        assert (
            counters.counter("jpeg2000.parallel.chunks_redecoded") < len(tasks)
        )

    def test_pool_broken_before_submit_redecodes_every_chunk(self):
        """A cached pool whose worker died between decodes is broken
        before the next fan-out submits anything; every chunk is then
        re-decoded in-process and the result is still exact."""
        tasks, expected = _tasks(range(6))
        binding = _pool(chunk_size=2)
        run_tasks(tasks, binding)  # warm: workers exist
        pool = entropy._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        recorder = telemetry.install()
        try:
            results = run_tasks(tasks, binding)
        finally:
            telemetry.uninstall()
            shutdown_pool()
        assert [values.tolist() for values, _ in results] == expected
        assert recorder.metrics.counter("jpeg2000.parallel.broken_pools") == 1


class TestParallelObservability:
    """Worker events ride back with results and merge deterministically."""

    def test_pickle_transport_carries_worker_events(self):
        tasks, _ = _tasks(range(6))
        log = telemetry.install_log()
        try:
            run_tasks(tasks, _pool(chunk_size=2))
        finally:
            telemetry.uninstall_log()
            shutdown_pool()
        (fanout,) = log.select("parallel.fanout")
        chunks = log.select("parallel.chunk_decoded")
        assert len(chunks) == fanout["chunks"]
        assert sum(record["blocks"] for record in chunks) == len(tasks)
        for record in chunks:
            assert record["pid"] > 0
        assert log.select("parallel.gathered")
        # Merged events are one coherent stream: one run id, unique
        # strictly-increasing sequence numbers.
        seqs = [record["seq"] for record in log.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert {record["run_id"] for record in log.events} == {log.run_id}

    def test_workers_send_no_events_when_log_disabled(self):
        tasks, _ = _tasks(range(4))
        kernel = DecodeOptions().kernel
        pid, flat, ops, events = entropy._decode_chunk((kernel, tasks, False))
        assert events is None
        assert pid == os.getpid()
        assert len(ops) == len(tasks)
        assert len(flat) == sum(task[1] * task[2] for task in tasks)

    def test_pool_decode_records_worker_occupancy(self):
        """Every pool fan-out feeds the per-worker occupancy histogram:
        one observation per worker that decoded something, summing to
        the number of blocks."""
        tasks, _ = _tasks(range(8))
        recorder = telemetry.install()
        try:
            run_tasks(tasks, _pool(chunk_size=2))
        finally:
            telemetry.uninstall()
            shutdown_pool()
        histogram = recorder.metrics.histograms()[
            "jpeg2000.parallel.worker_blocks"
        ]
        assert 1 <= histogram.count <= 2
        assert histogram.total == len(tasks)

    def test_degraded_counter_is_reason_labelled(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options_module._degradations_warned.clear()
        data = _codestream()
        recorder = telemetry.install()
        log = telemetry.install_log()
        try:
            with pytest.warns(ParallelDegradedWarning):
                Jpeg2000Decoder(data, options=DecodeOptions(workers=4)).decode()
        finally:
            telemetry.uninstall_log()
            telemetry.uninstall()
        assert recorder.metrics.counter(
            "jpeg2000.parallel.degraded_total{reason=clamped to os.cpu_count()}"
        ) == 1
        (event,) = log.select("parallel.degraded")
        assert event["reason"] == "clamped to os.cpu_count()"
        assert event["requested"] == 4
        assert event["effective"] == 1


class TestCrashReport:
    def test_worker_crash_dumps_flight_report(self, tmp_path, monkeypatch):
        """Acceptance: a worker crash mid-decode produces a crash report
        carrying the pool-broken event and the per-chunk fate map."""
        import json

        from repro.telemetry.flight import FlightRecorder

        tasks, expected = _tasks(range(6))
        _arm_bomb(monkeypatch, tmp_path, tasks)
        telemetry.install_log()
        telemetry.install_flight(FlightRecorder(crash_dir=tmp_path))
        try:
            results = run_tasks(
                tasks, _pool(chunk_size=1, start_method="fork"),
                schedule=DecodeOptions(
                    workers=2, chunk_size=1, oversubscribe=True,
                    start_method="fork",
                ).schedule_info(),
            )
        finally:
            telemetry.uninstall_flight()
            telemetry.uninstall_log()
            shutdown_pool()
        for (values, _), coeffs in zip(results, expected):
            assert values.tolist() == coeffs
        (report_path,) = tmp_path.glob("crash-*.json")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["reason"] == "broken-pool"
        events = [record["event"] for record in report["events"]]
        assert "parallel.pool_broken" in events
        assert "parallel.fanout" in events
        fates = set(report["chunks"].values())
        assert "redecoded" in fates  # the lost chunk was re-decoded
        assert fates <= {"submitted", "done", "resumed", "redecoded"}
        assert report["context"]["schedule"]["effective_workers"] == 2
        assert "arena" not in report["context"]


@pytest.fixture(scope="module", params=[True, False], ids=["lossless", "lossy"])
def codestream(request):
    """A real 4-tile codestream for the end-to-end pool checks."""
    return _codestream(size=96, lossless=request.param, seed=17)


class TestPoolDecode:
    """The real multi-process decode, end to end, against sequential."""

    @staticmethod
    def _decode(codestream, options):
        decoder = Jpeg2000Decoder(codestream, options=options)
        return decoder.decode(), decoder.ops

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_pool_decode_byte_identical(self, codestream, start_method):
        shutdown_pool()
        sequential, seq_ops = self._decode(codestream, DecodeOptions())
        try:
            pooled, par_ops = self._decode(
                codestream,
                DecodeOptions(
                    workers=2, chunk_size=4, oversubscribe=True,
                    start_method=start_method,
                ),
            )
        finally:
            shutdown_pool()
        for ours, theirs in zip(pooled.components, sequential.components):
            assert np.array_equal(ours, theirs)
        assert par_ops.counts == seq_ops.counts

    def test_worker_crash_resumes_byte_identical(self, codestream, monkeypatch):
        """Simulated worker crash mid-decode: the first chunk a worker
        picks up kills the process (fork start method, so the child
        inherits the patched kernel).  The resume path must still
        produce the byte-identical image and op counts."""
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only
            pytest.skip("fork start method unavailable")
        sequential, seq_ops = self._decode(codestream, DecodeOptions())

        parent_pid = os.getpid()
        real = entropy.decode_codeblock_batch
        state = {"killed": False}

        def crashing_batch(batch, out=None):
            if os.getpid() != parent_pid and not state["killed"]:
                # Fork copies `state` into each worker: the first chunk a
                # worker picks up crashes it; anything else succeeds.
                state["killed"] = True
                os._exit(1)
            return real(batch, out)

        shutdown_pool()  # the patch must be in place before the fork
        monkeypatch.setattr(entropy, "decode_codeblock_batch", crashing_batch)
        try:
            crashed, crashed_ops = self._decode(
                codestream,
                DecodeOptions(
                    workers=2, chunk_size=4, oversubscribe=True,
                    start_method="fork",
                ),
            )
        finally:
            shutdown_pool()
        for ours, theirs in zip(crashed.components, sequential.components):
            assert np.array_equal(ours, theirs)
        assert crashed_ops.counts == seq_ops.counts
