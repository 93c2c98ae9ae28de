"""Substrate micro-benchmarks: codec throughput and simulator event rate.

Not paper artefacts — these track the performance of the reproduction's
own machinery so regressions in the substrates are visible.

The Table 1 VTA substrate benchmark at the bottom compares the reference
scheduler (``fast=False``) against the fast substrate (kernel fast paths
plus channel burst fast-forwarding) on the four VTA-layer benches,
asserts the reported milliseconds are identical in both modes, and
persists ``BENCH_sim.json`` at the repository root.  Run it with
``python -m pytest benchmarks/test_substrate_performance.py -m slow``;
the quick invariance check below it runs everywhere (it is the CI smoke
job) and asserts values only, never wall clock.
"""

import pathlib

import pytest

from repro.casestudy.explorer import run_version
from repro.jpeg2000 import (
    CodingParameters,
    decode_codestream,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.dwt import forward, inverse
from repro.jpeg2000.t1 import CodeBlockDecoder, CodeBlockEncoder
from repro.kernel import Event, Simulator, ns, set_default_fast
from repro.reporting import SimulationBench, time_call

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_sim.json"

#: The Table 1 VTA-layer benches (versions 6a/6b/7a/7b), each timed over
#: its lossless and lossy configuration.
VTA_BENCHES = ("6a", "6b", "7a", "7b")

#: Substrate wall clock of the *seed* kernel (commit 7d657b7, before the
#: fast paths existed) per bench, lossless+lossy, measured by interleaved
#: best-of-6 subprocess runs against the seed worktree.  Fixed trajectory
#: anchor — do not update when the code gets faster.
SEED_SECONDS = {"6a": 4.353, "6b": 1.036, "7a": 2.570, "7b": 1.088}
SEED_COMMIT = "7d657b7"


def _run_bench(version: str):
    """One timed unit: both Table 1 configurations of one version."""
    rows = (run_version(version, lossless=True), run_version(version, lossless=False))
    return [(row.decode_ms, row.idwt_ms) for row in rows]


def _values_in_mode(version: str, fast: bool):
    previous = set_default_fast(fast)
    try:
        return _run_bench(version)
    finally:
        set_default_fast(previous)


@pytest.fixture(scope="module")
def codestream_64():
    image = synthetic_image(64, 64, 3, seed=99)
    params = CodingParameters(
        width=64, height=64, num_components=3,
        tile_width=32, tile_height=32, num_levels=3, lossless=True,
    )
    return encode_image(image, params), image


def test_codec_decode_throughput(benchmark, codestream_64):
    data, image = codestream_64
    out = benchmark(lambda: decode_codestream(data))
    assert out == image


def test_codec_encode_throughput(benchmark):
    image = synthetic_image(64, 64, 3, seed=99)
    params = CodingParameters(
        width=64, height=64, num_components=3,
        tile_width=32, tile_height=32, num_levels=3, lossless=True,
    )
    data = benchmark(lambda: encode_image(image, params))
    assert len(data) > 0


def test_t1_block_decode_rate(benchmark):
    import random

    rng = random.Random(1)
    coeffs = [rng.randrange(-127, 128) if rng.random() < 0.5 else 0 for _ in range(1024)]
    result = CodeBlockEncoder(coeffs, 32, 32, "HL").encode()

    def decode():
        return CodeBlockDecoder(
            result.data, 32, 32, "HL", result.num_bitplanes, result.num_passes
        ).decode()

    assert benchmark(decode) == coeffs


def test_idwt_numpy_rate(benchmark):
    import numpy as np

    tile = np.random.default_rng(2).integers(-128, 128, (128, 128))
    subbands = forward(tile, "5/3", 3)
    out = benchmark(lambda: inverse(subbands))
    assert (out == tile).all()


def test_simulator_event_rate(benchmark):
    """Raw ping-pong event throughput of the DES kernel."""

    def run():
        sim = Simulator()
        ping, pong = Event(sim, "ping"), Event(sim, "pong")

        def left():
            for _ in range(2000):
                ping.notify(delta=True)
                yield pong

        def right():
            for _ in range(2000):
                yield ping
                pong.notify(delta=True)

        sim.spawn(left(), "l")
        sim.spawn(right(), "r")
        sim.run()
        return sim.delta_count

    deltas = benchmark(run)
    assert deltas >= 2000


def test_timed_event_wheel_rate(benchmark):
    def run():
        sim = Simulator()

        def body():
            for _ in range(5000):
                yield ns(1)

        sim.spawn(body(), "p")
        sim.run()
        return sim.now

    assert benchmark(run) == ns(5000)


# -- Table 1 VTA substrate benchmark ------------------------------------------


@pytest.mark.parametrize("version", ["3", "6a", "6b", "7a"])
def test_substrate_value_invariance_quick(version):
    """CI smoke: fast and reference substrates report identical values.

    6a and 7a are the OPB-only rows: every link, RMI status poll included,
    goes through the arbitrated bus grant path.
    """
    assert _values_in_mode(version, fast=True) == _values_in_mode(version, fast=False)


#: Child process body: one warm-up run, then time the lossless+lossy pair.
#: The seed anchor in ``SEED_SECONDS`` was measured with this exact
#: harness (fresh interpreter, warm-up, timed pair, best-of-N), so the
#: live numbers are directly comparable to it.
_CHILD_BENCH = """
import json, sys, time
from repro.casestudy.explorer import run_version
from repro.kernel import set_default_fast

version, fast = sys.argv[1], sys.argv[2] == "fast"
set_default_fast(fast)
run_version(version, lossless=True)  # warm-up
t0 = time.perf_counter()
rows = (run_version(version, lossless=True), run_version(version, lossless=False))
elapsed = time.perf_counter() - t0
print(json.dumps({
    "seconds": elapsed,
    "values": [[row.decode_ms, row.idwt_ms] for row in rows],
}))
"""


@pytest.mark.slow
def test_substrate_wallclock_vta_benches(profile_enabled):
    """Time the VTA benches under both substrates and write BENCH_sim.json.

    Asserts only value-invariance — wall clock is recorded, not asserted,
    because a loaded host must not fail the build.  The headline speedup
    is live fast wall clock against the recorded seed anchor.

    Each timed run happens in a fresh subprocess: an in-process loop lets
    heap growth from earlier runs (simulation garbage, allocator arenas)
    leak into later measurements, and the seed anchor was measured with
    the fresh-process harness — comparable numbers need the same one.
    """
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def timed(version, mode):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_BENCH, version, mode],
            capture_output=True, text=True, env=env, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        return result["values"], result["seconds"]

    bench = SimulationBench(
        VTA_BENCHES, seed_baseline_seconds=SEED_SECONDS, seed_commit=SEED_COMMIT
    )
    # Interleaved best-of-N: one reference and one fast run per bench per
    # round, so a transient load spike on the host degrades both sides
    # instead of silently biasing one.
    ref_rounds, fast_rounds = 2, 4
    best = {v: {"reference": float("inf"), "fast": float("inf")} for v in VTA_BENCHES}
    values = {}
    for round_index in range(fast_rounds):
        for version in VTA_BENCHES:
            if round_index < ref_rounds:
                ref_values, elapsed = timed(version, "reference")
                best[version]["reference"] = min(best[version]["reference"], elapsed)
                if round_index == 0:
                    values[version] = ref_values
            fast_values, elapsed = timed(version, "fast")
            best[version]["fast"] = min(best[version]["fast"], elapsed)
            assert fast_values == values[version], (
                f"fast substrate changed reported values on bench {version}"
            )
    for version, timings in best.items():
        bench.record(version, "reference", timings["reference"])
        bench.record(version, "fast", timings["fast"])
    bench.values_identical = True
    if profile_enabled:
        # Separate in-process profiled runs (lossless, fast substrate):
        # profiling times every step, so it never contaminates the
        # wall-clock numbers recorded above.
        from repro.casestudy.explorer import ALL_VERSIONS
        from repro.casestudy.workload import paper_workload
        from repro.kernel.tracing import SimProfiler

        previous = set_default_fast(True)
        try:
            for version in VTA_BENCHES:
                model = ALL_VERSIONS[version](paper_workload(True))
                profiler = SimProfiler(model.sim)
                model.run()
                bench.record_profile(version, profiler.as_dict())
        finally:
            set_default_fast(previous)
    payload = bench.write(BENCH_FILE)
    print(f"\nwrote {BENCH_FILE}")
    for version, entry in payload["benches"].items():
        print(f"  {version}: {entry}")
    print(f"  total: {payload.get('total')}")
