"""Inputs are a function of (workload, seed) alone."""

import json
import subprocess
import sys

from conftest import BENCH
from workloads import WORKLOADS, codec_cases

DESCRIBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS
print(json.dumps({{name: cls({seed}).describe() for name, cls in WORKLOADS.items()}},
                 sort_keys=True))
"""


def describe_in_fresh_process(seed: int) -> dict:
    script = DESCRIBE.format(src=str(BENCH.parent / "src"), bench=str(BENCH), seed=seed)
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    return json.loads(output)


def test_generation_is_deterministic_across_processes():
    first, second = describe_in_fresh_process(3), describe_in_fresh_process(3)
    assert first == second
    assert set(first) == set(WORKLOADS)
    other = describe_in_fresh_process(4)
    for name in WORKLOADS:
        assert other[name] != first[name], name


def test_codec_cases_balance_every_property():
    cases = codec_cases(11)
    properties = [
        (case["lossless"], case["params"]["num_components"],
         case["params"]["codeblock_exp"], case["grid"].split("=")[0])
        for case in cases
    ]
    assert len(set(properties)) == len(cases) == 8
    for index in range(4):
        values = [combo[index] for combo in properties]
        assert len(set(values)) == 2
        assert all(values.count(value) == 4 for value in values)
    for case in cases:
        params = case["params"]
        assert 64 <= params["width"] <= 160 and 64 <= params["height"] <= 160
        assert params["width"] != params["height"]
        across = -(-params["width"] // params["tile_width"])
        down = -(-params["height"] // params["tile_height"])
        assert 1 in (across, down) and max(across, down) >= 2
