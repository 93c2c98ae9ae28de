"""Wall-clock benchmark harness for the decode hot path.

The op-count instrumentation reconstructs the paper's *modelled* numbers
(Fig. 1, Table 1); this module measures what the Python implementation
*actually* costs on the host, so performance PRs carry evidence.  The
benchmark in ``benchmarks/test_wallclock_decode.py`` uses it to compare
the sequential reference kernel, the batched kernel, and the parallel
worker-pool path on the paper's 16-tile workload, and persists the
trajectory file ``BENCH_decode.json`` at the repository root so later
PRs can show where they started from.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Optional

#: Bump when the structure of the sweep/substrate trajectory files changes.
SCHEMA_VERSION = 1

#: Bump when the structure of BENCH_decode.json changes.  v2 added the
#: per-variant ``schedules`` block (requested vs effective workers,
#: chunking, kernel) so a recorded "parallel" number can never silently
#: be a sequential run.  v3 added the per-variant
#: ``stage_shares`` block (t2_parse / t1_decode / idwt / dequant_mct /
#: gather wall-time fractions) so each recorded number carries its own
#: Amdahl decomposition.  v4 added the per-variant ``plans`` block (the
#: compiled DecodePlan and its digest) so every row is
#: labelled by the exact plan that produced it, not just the options
#: that requested it.  v5 dropped the ``granularity``, ``shared_memory``
#: and ``overlap`` schedule fields (one pool transport and one schedule
#: remain) and the ``fast-sequential`` / ``parallel-shm-4`` rows.
DECODE_SCHEMA_VERSION = 5


def machine_info() -> dict:
    """Host facts that make a wall-clock number interpretable."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def time_call(fn: Callable, repeats: int = 1) -> tuple[float, object]:
    """Best-of-*repeats* wall time of ``fn()``; returns (seconds, result).

    The result of the first run is kept so callers can do parity checks
    without paying for an extra invocation.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    kept = None
    for iteration in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if iteration == 0:
            kept = result
        if elapsed < best:
            best = elapsed
    return best, kept


class DecodeBench:
    """Accumulates named timings and renders the trajectory payload."""

    def __init__(self, workload: dict, baseline: str,
                 seed_baseline_seconds: Optional[dict] = None):
        self.workload = dict(workload)
        self.baseline = baseline
        #: Wall-clock of the pre-optimisation (seed) decoder, recorded once
        #: when the benchmark was introduced — the fixed anchor of the
        #: perf trajectory across PRs.
        self.seed_baseline_seconds = dict(seed_baseline_seconds or {})
        self.modes: dict[str, dict] = {}
        #: Per-variant scheduling facts (``DecodeOptions.schedule_info()``):
        #: requested vs effective workers, chunking, kernel, start method.
        self.schedules: dict[str, dict] = {}
        #: Per mode, per variant: stage-name -> wall-time share (the
        #: ``t2_parse``/``t1_decode``/``idwt``/``dequant_mct``/``gather``
        #: decomposition from the decode-pipeline telemetry spans).
        self.stage_shares: dict[str, dict[str, dict[str, float]]] = {}
        #: Per-variant compiled decode plan (digest + stage bindings):
        #: the row label that ties a wall-clock number to what ran.
        self.plans: dict[str, dict] = {}

    def record(self, mode: str, name: str, seconds: float) -> None:
        self.modes.setdefault(mode, {})[name] = seconds

    def record_schedule(self, name: str, info: dict) -> None:
        """Attach scheduling metadata to the variant *name*."""
        self.schedules[name] = dict(info)

    def record_plan(self, name: str, plan: dict) -> None:
        """Attach the compiled plan record (``{"digest", "stages"}``,
        i.e. digest + ``DecodePlan.as_dict()``) to the variant *name*."""
        self.plans[name] = dict(plan)

    def record_stages(self, mode: str, name: str, shares: dict) -> None:
        """Attach a stage-share decomposition to (*mode*, *name*)."""
        self.stage_shares.setdefault(mode, {})[name] = {
            stage: round(float(share), 4) for stage, share in shares.items()
        }

    def degraded(self, name: str) -> bool:
        """True when the variant's recorded schedule was degraded (e.g.
        requested workers clamped on a small host)."""
        return bool(self.schedules.get(name, {}).get("degraded"))

    def label(self, name: str) -> str:
        """Row label for reports: the variant name, suffixed with
        ``(degraded)`` when its schedule did not run as requested, so
        the published csv/txt tables cannot pass a degraded number off
        as the real schedule."""
        return f"{name} (degraded)" if self.degraded(name) else name

    def speedups(self, mode: str) -> dict:
        timings = self.modes.get(mode, {})
        base = timings.get(self.baseline)
        if not base:
            return {}
        return {
            name: round(base / seconds, 3)
            for name, seconds in timings.items()
            if name != self.baseline and seconds > 0
        }

    def payload(self, **extra) -> dict:
        modes = {}
        for mode, timings in self.modes.items():
            entry = {
                "seconds": {k: round(v, 4) for k, v in timings.items()},
                f"speedup_vs_{self.baseline}": self.speedups(mode),
            }
            seed = self.seed_baseline_seconds.get(mode)
            if seed:
                entry["seed_sequential_seconds"] = seed
                entry["speedup_vs_seed"] = {
                    name: round(seed / seconds, 3)
                    for name, seconds in timings.items()
                    if seconds > 0
                }
            shares = self.stage_shares.get(mode)
            if shares:
                entry["stage_shares"] = shares
            modes[mode] = entry
        result = {
            "schema": DECODE_SCHEMA_VERSION,
            "benchmark": "entropy-decode wall clock",
            "machine": machine_info(),
            "workload": self.workload,
            "baseline": self.baseline,
            "schedules": self.schedules,
            "plans": self.plans,
            "modes": modes,
        }
        result.update(extra)
        return result

    def write(self, path: Path | str, **extra) -> dict:
        payload = self.payload(**extra)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        return payload


class SweepBench:
    """Trajectory payload for the experiment-engine sweep benchmark.

    Records, for one experiment group (typically the full Table 1
    matrix), the wall clock of a cold sequential sweep, a cold parallel
    sweep, and a warm (fully cache-served) sweep — each measured in a
    fresh subprocess so imports and cache state are honest — plus the
    verdict that all three produced bit-identical result payloads, which
    is the engine's core guarantee.
    """

    def __init__(self, group: str, jobs: int):
        self.group = group
        self.jobs = jobs
        self.timings: dict[str, float] = {}
        self.values_identical: Optional[bool] = None

    def record(self, variant: str, seconds: float) -> None:
        self.timings[variant] = seconds

    def speedup(self, numerator: str, denominator: str) -> Optional[float]:
        top = self.timings.get(numerator)
        bottom = self.timings.get(denominator)
        if not top or not bottom:
            return None
        return round(top / bottom, 3)

    def payload(self, **extra) -> dict:
        result = {
            "schema": SCHEMA_VERSION,
            "benchmark": "experiment sweep wall clock",
            "machine": machine_info(),
            "group": self.group,
            "jobs": self.jobs,
            "values_identical": self.values_identical,
            "seconds": {k: round(v, 4) for k, v in self.timings.items()},
            "speedups": {
                "warm_vs_cold_sequential":
                    self.speedup("cold-sequential", "warm"),
                "parallel_vs_cold_sequential":
                    self.speedup("cold-sequential", "cold-parallel"),
            },
        }
        result.update(extra)
        return result

    def write(self, path: Path | str, **extra) -> dict:
        payload = self.payload(**extra)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        return payload


class SimulationBench:
    """Trajectory payload for the simulation-substrate benchmark.

    Tracks, per Table 1 VTA bench, the wall clock of the reference
    scheduler (``fast=False``), the fast substrate (``fast=True``), and a
    fixed *seed* anchor recorded when the fast substrate was introduced —
    plus the value-invariance verdict, which is the whole point: the fast
    substrate must not move a single reported millisecond.
    """

    def __init__(self, benches, seed_baseline_seconds: Optional[dict] = None,
                 seed_commit: str = ""):
        self.benches = list(benches)
        #: Wall clock of the pre-fast-substrate kernel per bench, measured
        #: once via interleaved best-of-N subprocess runs — the fixed
        #: anchor of the substrate-perf trajectory.  Do not update when
        #: the code gets faster.
        self.seed_baseline_seconds = dict(seed_baseline_seconds or {})
        self.seed_commit = seed_commit
        self.timings: dict[str, dict[str, float]] = {b: {} for b in self.benches}
        self.values_identical: Optional[bool] = None
        #: Optional per-bench process profiles (``SimProfiler.as_dict()``).
        self.profiles: dict[str, dict] = {}

    def record(self, bench: str, mode: str, seconds: float) -> None:
        self.timings.setdefault(bench, {})[mode] = seconds

    def record_profile(self, bench: str, profile: dict) -> None:
        """Attach a per-process profile (``SimProfiler.as_dict()``) to a bench."""
        self.profiles[bench] = profile

    def speedup(self, bench: str, numerator: str, denominator: str = "fast") -> Optional[float]:
        timings = self.timings.get(bench, {})
        top = self.seed_baseline_seconds.get(bench) if numerator == "seed" else timings.get(numerator)
        bottom = timings.get(denominator)
        if not top or not bottom:
            return None
        return round(top / bottom, 3)

    def payload(self, **extra) -> dict:
        benches = {}
        for bench in self.benches:
            entry = {
                "seconds": {k: round(v, 4) for k, v in self.timings.get(bench, {}).items()},
            }
            seed = self.seed_baseline_seconds.get(bench)
            if seed:
                entry["seed_seconds"] = seed
                speedup = self.speedup(bench, "seed")
                if speedup:
                    entry["speedup_vs_seed"] = speedup
            ref_speedup = self.speedup(bench, "reference")
            if ref_speedup:
                entry["speedup_vs_reference"] = ref_speedup
            profile = self.profiles.get(bench)
            if profile is not None:
                entry["profile"] = profile
            benches[bench] = entry
        seed_total = sum(self.seed_baseline_seconds.get(b, 0.0) for b in self.benches)
        fast_total = sum(self.timings.get(b, {}).get("fast", 0.0) for b in self.benches)
        result = {
            "schema": SCHEMA_VERSION,
            "benchmark": "simulation substrate wall clock (Table 1 VTA benches)",
            "machine": machine_info(),
            "seed_commit": self.seed_commit,
            "values_identical": self.values_identical,
            "benches": benches,
        }
        if seed_total and fast_total:
            result["total"] = {
                "seed_seconds": round(seed_total, 4),
                "fast_seconds": round(fast_total, 4),
                "speedup_vs_seed": round(seed_total / fast_total, 3),
            }
        result.update(extra)
        return result

    def write(self, path: Path | str, **extra) -> dict:
        payload = self.payload(**extra)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        return payload
