"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are ``paper-decode-pool``,
``codec-mix`` and ``sim-explore`` (see ``workloads.py``).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs half its time untraced and the same rounds again with span
wrappers installed (``tracer.py``), and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full run
record, including the digests of every generated input, is written
under ``perfbench/runs/``.

The command itself only supervises: it runs the workload in a child
process and, as the child subreaper of everything below it, waits for
every process the run started — the program's worker pool, the set-up
probes and the ``multiprocessing`` resource trackers, which outlive the
process that started them — to end before it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

#: Fresh processes whose start-to-ready time gives ``setup_s``.
SETUP_PROBES = 7
#: A measured run keeps going until it has at least this many rounds.
MIN_ROUNDS = 3
#: Seconds the supervisor gives leftover descendants to end by themselves.
REAP_GRACE_S = 10.0
#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics this run must report (BENCHMARK.json)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in bench["per_layer" if trace else "end_to_end"]
    }


def reset_peak_rss() -> None:
    """Start the peak-RSS window now (Linux ``clear_refs``; best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_cpu_s() -> float:
    """CPU seconds of this process's children, live and reaped."""
    import multiprocessing

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def probe_setup(workload) -> float:
    """Seconds from starting a fresh process to *workload* being ready."""
    command = [sys.executable, str(HERE / "run.py"), "--probe-setup",
               "--workload", workload.name, "--seed", str(workload.seed)]
    if workload.warmup_file is not None:
        command += ["--warmup", str(workload.warmup_file)]
    start = perf_counter()
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdin.close()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure(workload, seconds: float, min_rounds: int = MIN_ROUNDS,
            tracer=None) -> list:
    """Whole rounds until *seconds* have passed and at least
    *min_rounds* are done."""
    done = []
    start = perf_counter()
    while len(done) < min_rounds or perf_counter() - start < seconds:
        done.append(workload.round(tracer))
    return done


def ref_rate(rounds: list, kind: str = None, ops: bool = False) -> float:
    """Median over rounds of Msamples (or, with *ops*, operations) per
    reference second of all program calls, or of one kind of call."""
    rates = []
    for r in rounds:
        if kind is None:
            seconds, samples, count = r.seconds, r.samples, 0
        else:
            seconds, samples, count = r.parts.get(kind, (0.0, 0, 0))
        if seconds > 0:
            work = count if ops else samples / 1e6
            rates.append(work / (seconds * r.host_speed))
    return statistics.median(rates) if rates else 0.0


def traced_run(workload, seconds: float, info: dict) -> tuple:
    """Untraced rounds, then as many traced rounds; per-layer metrics."""
    import layers
    from tracer import Tracer, install

    untraced = measure(workload, seconds / 2, min_rounds=1)
    tracer = Tracer()
    installed = install(tracer, layers.TARGETS)
    child_cpu = 0.0
    try:
        traced = []
        for _ in untraced:
            before = children_cpu_s()
            traced.append(workload.round(tracer))
            child_cpu += max(0.0, children_cpu_s() - before)
    finally:
        installed.remove()
    rounds = untraced + traced
    metrics = layers.layer_metrics(tracer, len(traced))
    decode_s = sum(r.parts.get("decode", [0.0])[0] for r in traced)
    workers = info.get("effective_workers") or 1
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    untraced_s = sum(r.seconds * r.host_speed for r in untraced)
    metrics.update({
        "stages.entropy.child_cpu_s": child_cpu / len(traced),
        "stages.entropy.pool_efficiency": (
            child_cpu / (decode_s * workers) if decode_s else 0.0
        ),
        "stages.entropy.pool_spawn_s": info.get("pool_spawn_s", 0.0),
        "stages.entropy.effective_workers": info.get("effective_workers") or 0,
        "trace_overhead": (
            sum(r.seconds * r.host_speed for r in traced) / untraced_s
            if untraced_s else 0.0
        ),
        "decode_msamples_per_ref_s": ref_rate(untraced, "decode"),
        "encode_msamples_per_ref_s": ref_rate(untraced, "encode"),
        "sim_cells_per_ref_s": ref_rate(untraced, "sim", ops=True),
        "msamples_per_s": statistics.median(
            [r.samples / r.seconds / 1e6 for r in untraced if r.seconds] or [0.0]
        ),
        "host_probe_ms": 1e3 * statistics.median(
            probe for r in untraced for probe in r.probes
        ),
        "error_rate": failed / attempted if attempted else 0.0,
        "absent_targets": len(installed.absent),
    })
    return rounds, metrics, {"absent": installed.absent, "wrapped": installed.wrapped}


def write_record(record: dict, out_dir: Path) -> Path:
    directory = out_dir / record["workload"]
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / (
        f"seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return path


def run(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.probe_setup:
        if args.warmup:
            workload.warmup_file = Path(args.warmup)
        workload.warm_up()
        print("ready", flush=True)
        sys.stdin.read()
        workload.teardown()
        return 0

    started = perf_counter()
    inputs = workload.generate()
    generate_s = perf_counter() - started
    print(f"inputs generated in {generate_s:.1f} s", file=sys.stderr)
    try:
        setup = (
            [] if args.trace
            else [probe_setup(workload) for _ in range(SETUP_PROBES)]
        )
        cold = perf_counter()
        workload.warm_up()
        cold = perf_counter() - cold
        info = workload.info()
        if workload.uses_pool:
            # The first call in a process also starts the worker pool.
            warm = perf_counter()
            workload.warm_up()
            info["pool_spawn_s"] = max(0.0, cold - (perf_counter() - warm))
        print(f"info: {json.dumps(info, sort_keys=True)}")
        reset_peak_rss()
        if args.trace:
            rounds, metrics, trace_info = traced_run(workload, args.seconds, info)
        else:
            rounds = measure(workload, args.seconds)
            metrics = {
                "setup_s": statistics.median(setup),
                "msamples_per_ref_s": ref_rate(rounds),
                "peak_rss_mb": peak_rss_mb(),
            }
            trace_info = None
    finally:
        workload.teardown()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [message for r in rounds for message in r.errors]
    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "info": info,
        "generate_s": generate_s,
        "setup_samples_s": setup,
        "rounds": [
            {"seconds": r.seconds, "samples": r.samples, "parts": r.parts,
             "host_speed": r.host_speed, "attempted": r.attempted,
             "failed": r.failed}
            for r in rounds
        ],
        "metrics": metrics,
        "trace_targets": trace_info,
        "errors": errors[:20],
    }
    path = write_record(record, HERE / "runs")
    for message in errors[:5]:
        print(f"error: {message}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def _children() -> list:
    """Pids of this process's live (not yet reaped) children."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _reap_all(grace_s: float) -> None:
    """Wait for every child (adopted orphans included) to end; after
    *grace_s* seconds kill the ones still running, and any they orphan."""
    deadline = perf_counter() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if perf_counter() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervise(argv: list) -> int:
    """Run the workload in a child process, then reap every descendant."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--inner", *argv], cwd=ROOT
    )
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        _reap_all(REAP_GRACE_S)
    return code if code >= 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--warmup", help=argparse.SUPPRESS)
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if not (args.inner or args.probe_setup):
        return supervise(sys.argv[1:] if argv is None else list(argv))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
