"""Which program functions the traced run wraps, and the metrics they give.

Every target names a public function or method of ``repro`` (or the
standard library's ``Future.result``, where the decoder blocks on pool
results).  Layers:

* decode — ``Jpeg2000Decoder.decode`` and the stage modules it drives
  (parse = Tier-2, entropy = Tier-1, reconstruct, assemble);
* encoder — ``Jpeg2000Encoder.encode`` and the transforms, Tier-1 and
  Tier-2 coders it calls;
* simulator — the DES kernel, VTA channels, RMI transactors, Shared
  Objects, and the design/explore/experiments layers above them.

Counts are read where the work happens: from the values the wrapped
calls return, or from the program's own counters on the objects the
wrapped calls ran on.
"""

from __future__ import annotations

from tracer import Target

J2K = "repro.jpeg2000"

#: Decoder stage op-count names (``StageOps.counts`` keys).
OP_STAGES = ("arith", "iq", "idwt", "ict", "dc")


def _parse_after(tracer, args, result, state):
    try:
        specs = result[1]
        tracer.count("stages.parse.codeblocks", len(specs))
        tracer.count(
            "stages.entropy.codeword_bytes",
            sum(end - start for spec in specs for start, end in spec.segments),
        )
    except (AttributeError, IndexError, TypeError, ValueError):
        pass


def _decoder_after(tracer, args, result, state):
    decoder = args[0]
    counts = getattr(getattr(decoder, "ops", None), "counts", None) or {}
    for stage in OP_STAGES:
        if stage in counts:
            tracer.count(f"ops.{stage}", counts[stage])
    fates = getattr(getattr(decoder, "fates", None), "fates", None) or {}
    for fate in fates.values():
        tracer.count("stages.entropy.rewrites", len(fate.get("rewrites", ())))


def _t1_encode_after(tracer, args, result, state):
    tracer.count("encoder.t1_codeblocks")


def _deltas_before(tracer, args):
    return getattr(args[0], "delta_count", 0)


def _deltas_after(tracer, args, result, state):
    tracer.count("kernel.deltas", getattr(args[0], "delta_count", 0) - state)


def _transport_before(tracer, args):
    tracer.count("vta.channel.transactions")


def _remember(kind):
    def before(tracer, args):
        tracer.seen[kind][id(args[0])] = args[0]

    return before


def _enumerate_after(tracer, args, result, state):
    tracer.count("design.attempts", getattr(result, "attempts", 0))
    tracer.count("design.generated", len(getattr(result, "generated", ())))


def _cell_after(tracer, args, payload, state):
    """One simulated cell finished: fold in its objects' own counters."""
    details = payload.get("details", {}) if isinstance(payload, dict) else {}
    for entry in details.values():
        if isinstance(entry, dict) and "wait_fs" in entry and "transactions" in entry:
            tracer.count("vta.channel.wait_fs", entry["wait_fs"])
            tracer.count("vta.channel.busy_fs", entry["busy_fs"])
    for client in tracer.seen.pop("rmi", {}).values():
        tracer.count("vta.rmi.calls", getattr(client, "calls", 0))
        tracer.count("vta.rmi.polls", getattr(client, "polls", 0))
    for shared in tracer.seen.pop("shared", {}).values():
        stats = getattr(shared, "stats", None)
        for field in ("requests", "grants", "guard_blocked", "contended_grants"):
            tracer.count(f"core.shared.{field}", getattr(stats, field, 0))


TARGETS = (
    # -- decode ----------------------------------------------------------
    Target("decode", f"{J2K}.decoder", "Jpeg2000Decoder.decode",
           after=_decoder_after),
    Target("codestream.parse", f"{J2K}.codestream", "parse_codestream"),
    Target("plan.compile", f"{J2K}.plan", "compile_plan"),
    Target("plan.compile", f"{J2K}.plan", "check_plan"),
    Target("stages.parse", f"{J2K}.stages.parse", "entropy_specs",
           after=_parse_after),
    Target("stages.entropy", f"{J2K}.stages.entropy", "run_specs"),
    Target("stages.entropy", f"{J2K}.stages.entropy", "open_stream"),
    Target("stages.entropy", f"{J2K}.stages.entropy", "SpecStream.submit_tile"),
    Target("stages.entropy", f"{J2K}.stages.entropy", "SpecStream.drain_tile"),
    Target("stages.entropy", f"{J2K}.stages.entropy", "SpecStream.close"),
    Target("stages.entropy.wait", "concurrent.futures._base", "Future.result"),
    Target("stages.reconstruct.gather", f"{J2K}.stages.reconstruct",
           "scatter_entropy"),
    Target("stages.reconstruct", f"{J2K}.stages.reconstruct", "finish_tiles"),
    Target("stages.assemble", f"{J2K}.stages.assemble", "assemble_full"),
    Target("stages.assemble", f"{J2K}.stages.assemble", "assemble_reduced"),
    # -- encoder ---------------------------------------------------------
    Target("encoder", f"{J2K}.encoder", "Jpeg2000Encoder.encode"),
    Target("encoder.mct", f"{J2K}.mct", "dc_shift_forward"),
    Target("encoder.mct", f"{J2K}.mct", "rct_forward"),
    Target("encoder.mct", f"{J2K}.mct", "ict_forward"),
    Target("encoder.dwt", f"{J2K}.dwt", "forward"),
    Target("encoder.quant", f"{J2K}.quant", "quantise"),
    Target("encoder.t1", f"{J2K}.t1", "CodeBlockEncoder.encode",
           after=_t1_encode_after),
    Target("encoder.t2", f"{J2K}.t2", "encode_packet"),
    Target("encoder.write", f"{J2K}.codestream", "write_codestream"),
    # -- simulator -------------------------------------------------------
    Target("kernel", "repro.kernel.scheduler", "Simulator.run",
           before=_deltas_before, after=_deltas_after),
    Target("vta.channel", "repro.vta.channel_base", "OsssChannel.transport",
           generator=True, before=_transport_before),
    Target("vta.rmi", "repro.vta.rmi", "RmiClient.invoke",
           generator=True, before=_remember("rmi")),
    Target("core.shared", "repro.core.shared", "SharedObject.request_call",
           before=_remember("shared")),
    Target("core.shared", "repro.core.shared", "SharedObject.finish_call",
           generator=True),
    Target("design.enumerate", "repro.design.mutate", "enumerate_designs",
           after=_enumerate_after),
    Target("design.elaborate", "repro.design.elaborate", "elaborate_design"),
    Target("explore", "repro.explore.driver", "explore"),
    Target("explore.pareto", "repro.explore.pareto", "pareto_front"),
    Target("experiments.runner", "repro.experiments.runner", "Runner.run"),
    Target("experiments.execute", "repro.experiments.execute",
           "execute_request", after=_cell_after),
)

#: Layer → per-layer self-time metric name.
SELF_TIME_METRICS = {
    "op": "op.self_s",
    "decode": "decode.self_s",
    "codestream.parse": "codestream.parse_s",
    "plan.compile": "plan.compile_s",
    "stages.parse": "stages.parse.self_s",
    "stages.entropy": "stages.entropy.self_s",
    "stages.entropy.wait": "stages.entropy.wait_s",
    "stages.reconstruct": "stages.reconstruct.self_s",
    "stages.reconstruct.gather": "stages.reconstruct.gather_s",
    "stages.assemble": "stages.assemble.self_s",
    "encoder": "encoder.self_s",
    "encoder.mct": "encoder.mct_s",
    "encoder.dwt": "encoder.dwt_s",
    "encoder.quant": "encoder.quant_s",
    "encoder.t1": "encoder.t1_s",
    "encoder.t2": "encoder.t2_s",
    "encoder.write": "encoder.write_s",
    "kernel": "kernel.self_s",
    "vta.channel": "vta.channel.self_s",
    "vta.rmi": "vta.rmi.self_s",
    "core.shared": "core.shared.self_s",
    "design.enumerate": "design.enumerate_s",
    "design.elaborate": "design.elaborate_s",
    "explore": "explore.self_s",
    "explore.pareto": "explore.pareto_s",
    "experiments.runner": "experiments.overhead_s",
    "experiments.execute": "experiments.execute.self_s",
}

#: Counts reported per round as they were accumulated.
COUNT_METRICS = (
    "stages.parse.codeblocks",
    "stages.entropy.codeword_bytes",
    "stages.entropy.rewrites",
    *(f"ops.{stage}" for stage in OP_STAGES),
    "encoder.t1_codeblocks",
    "kernel.deltas",
    "vta.channel.transactions",
    "vta.rmi.calls",
    "vta.rmi.polls",
    "core.shared.requests",
    "core.shared.guard_blocked",
)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-round self times, counts and derived ratios from *tracer*."""
    self_s = tracer.self_s
    counts = tracer.counts
    metrics = {
        name: self_s.get(layer, 0.0) / rounds
        for layer, name in SELF_TIME_METRICS.items()
    }
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0) / rounds
    metrics["stages.entropy.us_per_codeblock"] = _ratio(
        self_s.get("stages.entropy", 0.0),
        counts.get("stages.parse.codeblocks", 0), 1e6,
    )
    metrics["encoder.t1_us_per_codeblock"] = _ratio(
        self_s.get("encoder.t1", 0.0), counts.get("encoder.t1_codeblocks", 0), 1e6
    )
    metrics["kernel.ns_per_delta"] = _ratio(
        self_s.get("kernel", 0.0), counts.get("kernel.deltas", 0), 1e9
    )
    metrics["vta.channel.us_per_transaction"] = _ratio(
        self_s.get("vta.channel", 0.0),
        counts.get("vta.channel.transactions", 0), 1e6,
    )
    metrics["vta.channel.wait_share"] = _ratio(
        counts.get("vta.channel.wait_fs", 0), counts.get("vta.channel.busy_fs", 0)
    )
    calls = counts.get("vta.rmi.calls", 0)
    metrics["vta.rmi.useful_ratio"] = _ratio(
        calls, calls + counts.get("vta.rmi.polls", 0)
    )
    metrics["core.shared.contended_ratio"] = _ratio(
        counts.get("core.shared.contended_grants", 0),
        counts.get("core.shared.grants", 0),
    )
    metrics["design.accept_ratio"] = _ratio(
        counts.get("design.generated", 0), counts.get("design.attempts", 0)
    )
    return metrics
