"""Unit tests for the wall-clock benchmark harness."""

import json

import pytest

from repro.reporting.bench import DECODE_SCHEMA_VERSION, DecodeBench, machine_info, time_call


def test_machine_info_has_interpretability_keys():
    info = machine_info()
    assert set(info) == {"python", "implementation", "platform", "cpu_count"}
    assert info["cpu_count"] >= 1


def test_time_call_returns_first_result_and_positive_time():
    calls = []

    def fn():
        calls.append(len(calls))
        return len(calls)

    seconds, result = time_call(fn, repeats=3)
    assert calls == [0, 1, 2]
    assert result == 1  # result of the first run, not the fastest
    assert seconds >= 0


def test_time_call_rejects_zero_repeats():
    with pytest.raises(ValueError):
        time_call(lambda: None, repeats=0)


def test_speedups_relative_to_baseline():
    bench = DecodeBench({"tiles": 16}, baseline="reference")
    bench.record("lossless", "reference", 10.0)
    bench.record("lossless", "fast", 5.0)
    bench.record("lossless", "parallel", 4.0)
    assert bench.speedups("lossless") == {"fast": 2.0, "parallel": 2.5}
    assert bench.speedups("missing-mode") == {}


def test_payload_includes_seed_anchor():
    bench = DecodeBench(
        {"tiles": 16},
        baseline="reference",
        seed_baseline_seconds={"lossless": 20.0},
    )
    bench.record("lossless", "reference", 10.0)
    bench.record("lossless", "fast", 5.0)
    payload = bench.payload(byte_identical=True)
    assert payload["schema"] == DECODE_SCHEMA_VERSION
    assert payload["byte_identical"] is True
    mode = payload["modes"]["lossless"]
    assert mode["seed_sequential_seconds"] == 20.0
    assert mode["speedup_vs_seed"] == {"reference": 2.0, "fast": 4.0}
    assert mode["speedup_vs_reference"] == {"fast": 2.0}


def test_payload_carries_schedule_metadata():
    bench = DecodeBench({"tiles": 16}, baseline="reference")
    bench.record("lossless", "parallel-4", 3.0)
    bench.record_schedule(
        "parallel-4",
        {"requested_workers": 4, "effective_workers": 1, "degraded": True},
    )
    payload = bench.payload()
    schedule = payload["schedules"]["parallel-4"]
    assert schedule["requested_workers"] == 4
    assert schedule["degraded"] is True


def test_payload_carries_plan_labels():
    from repro.jpeg2000.options import DecodeOptions
    from repro.jpeg2000.plan import compile_plan

    plan = compile_plan(DecodeOptions(workers=4), 8)
    bench = DecodeBench({"tiles": 16}, baseline="reference")
    bench.record("lossless", "parallel-4", 3.0)
    bench.record_plan(
        "parallel-4", {"digest": plan.digest(), **plan.as_dict()}
    )
    payload = bench.payload()
    record = payload["plans"]["parallel-4"]
    assert record["digest"] == plan.digest()
    assert [s["stage"] for s in record["stages"]] == [
        "parse", "entropy", "reconstruct", "assemble",
    ]


def test_payload_carries_stage_shares():
    bench = DecodeBench({"tiles": 16}, baseline="reference")
    bench.record("lossless", "batched-sequential", 3.0)
    bench.record_stages(
        "lossless", "batched-sequential",
        {"t1_decode": 0.81234, "idwt": 0.1, "t2_parse": 0.01},
    )
    payload = bench.payload()
    shares = payload["modes"]["lossless"]["stage_shares"]["batched-sequential"]
    assert shares["t1_decode"] == 0.8123  # rounded to 4 places
    assert set(shares) == {"t1_decode", "idwt", "t2_parse"}


def test_stage_shares_absent_when_not_recorded():
    bench = DecodeBench({"tiles": 16}, baseline="reference")
    bench.record("lossless", "reference", 2.0)
    assert "stage_shares" not in bench.payload()["modes"]["lossless"]


def test_degraded_label_suffix():
    bench = DecodeBench({"tiles": 16}, baseline="reference")
    bench.record_schedule("parallel-4", {"degraded": True})
    bench.record_schedule("fast-sequential", {"degraded": False})
    assert bench.degraded("parallel-4")
    assert bench.label("parallel-4") == "parallel-4 (degraded)"
    assert bench.label("fast-sequential") == "fast-sequential"
    assert bench.label("never-recorded") == "never-recorded"


def test_write_round_trips_json(tmp_path):
    bench = DecodeBench({"tiles": 4}, baseline="reference")
    bench.record("lossy", "reference", 2.0)
    out = tmp_path / "BENCH_decode.json"
    payload = bench.write(out)
    assert json.loads(out.read_text()) == payload
