"""The span wrappers change nothing the program computes."""

import base64

import pytest

import layers
from tracer import Target, Tracer, install
from workloads import WARMUP_PARAMS, encode_case, _coding_parameters


@pytest.fixture
def traced():
    tracer = Tracer()
    installed = install(tracer, layers.TARGETS)
    try:
        yield tracer, installed
    finally:
        installed.remove()


def _decode(codestream, options):
    from repro.jpeg2000 import Jpeg2000Decoder

    decoder = Jpeg2000Decoder(codestream, options=options)
    return decoder.decode(), dict(decoder.ops.counts)


@pytest.mark.parametrize("workers", [0, 2])
def test_decode_is_unchanged_by_tracing(workers):
    from repro.jpeg2000 import DecodeOptions, shutdown_pool

    options = DecodeOptions(workers=workers, oversubscribe=True)
    for lossless in (True, False):
        entry = encode_case({"params": WARMUP_PARAMS, "lossless": lossless,
                             "image_seed": 1})
        codestream = base64.b64decode(entry["codestream"])
        try:
            plain = _decode(codestream, options)
            tracer = Tracer()
            installed = install(tracer, layers.TARGETS)
            try:
                traced = _decode(codestream, options)
            finally:
                installed.remove()
        finally:
            shutdown_pool()
        assert traced == plain
        assert tracer.counts["ops.arith"] == plain[1]["arith"]
        assert tracer.counts["stages.parse.codeblocks"] > 0
        assert tracer.self_s["stages.reconstruct"] > 0
        busy = "stages.entropy.wait" if workers else "stages.entropy"
        assert tracer.self_s[busy] > 0


def test_encode_is_unchanged_by_tracing(traced):
    from repro.jpeg2000 import encode_image, synthetic_image

    tracer, installed = traced
    image = synthetic_image(40, 24, 3, seed=2)
    with_trace = encode_image(image, _coding_parameters(WARMUP_PARAMS | {
        "width": 40, "height": 24, "tile_width": 20, "tile_height": 24}, False))
    installed.remove()
    without = encode_image(image, _coding_parameters(WARMUP_PARAMS | {
        "width": 40, "height": 24, "tile_width": 20, "tile_height": 24}, False))
    assert with_trace == without
    for layer in ("encoder.t1", "encoder.t2", "encoder.dwt", "encoder.quant"):
        assert tracer.self_s[layer] > 0, layer
    assert tracer.counts["encoder.t1_codeblocks"] > 0


def test_simulation_is_unchanged_by_tracing():
    from repro.experiments import RunRequest, execute

    request = RunRequest(rid="x", kind="simulate",
                         params={"version": "7a", "lossless": True, "num_tiles": 1})
    plain = execute.execute_request(request)
    tracer = Tracer()
    installed = install(tracer, layers.TARGETS)
    try:
        traced = execute.execute_request(request)
    finally:
        installed.remove()
    assert traced == plain
    for layer in ("kernel", "vta.channel", "vta.rmi", "core.shared"):
        assert tracer.self_s[layer] > 0, layer
    for count in ("kernel.deltas", "vta.channel.transactions", "vta.rmi.calls",
                  "core.shared.requests"):
        assert tracer.counts[count] > 0, count


def test_remove_restores_every_binding():
    import repro.jpeg2000.codestream as codestream
    import repro.jpeg2000.decoder as decoder
    from repro.vta.channel_base import OsssChannel

    original = codestream.parse_codestream
    transport = OsssChannel.__dict__["transport"]
    installed = install(Tracer(), layers.TARGETS)
    assert decoder.parse_codestream is not original
    installed.remove()
    assert decoder.parse_codestream is original
    assert codestream.parse_codestream is original
    assert OsssChannel.__dict__["transport"] is transport


def test_deleted_names_are_reported_absent():
    installed = install(Tracer(), [
        Target("gone", "repro.jpeg2000.stages.entropy", "NoSuchClass.method"),
        Target("gone", "repro.no_such_module", "function"),
        Target("gone", "repro.jpeg2000.plan", "no_such_function"),
    ])
    assert len(installed.absent) == 3
    assert installed.wrapped == []


def test_generator_wrapper_forwards_send_throw_and_return():
    import types

    def body():
        received = yield 1
        try:
            yield received * 2
        except KeyError:
            yield "caught"
        return "done"

    tracer = Tracer()
    module = types.ModuleType("repro_probe_module")
    module.body = body
    import sys

    sys.modules["repro_probe_module"] = module
    try:
        installed = install(tracer, [Target("g", "repro_probe_module", "body",
                                            generator=True)])
        gen = module.body()
        assert next(gen) == 1
        assert gen.send(5) == 10
        assert gen.throw(KeyError()) == "caught"
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == "done"
        installed.remove()
    finally:
        del sys.modules["repro_probe_module"]
    assert tracer.self_s["g"] > 0 and tracer.stack == []
