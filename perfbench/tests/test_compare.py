"""Verdicts of the compare mode."""

from compare import compare, verdict

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
}
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_verdicts():
    assert verdict(STEADY, [v * 1.2 for v in STEADY], "higher", 0.1)[0] == "better"
    assert verdict(STEADY, [v * 0.8 for v in STEADY], "higher", 0.1)[0] == "worse"
    assert verdict(STEADY, [v * 0.8 for v in STEADY], "lower", 0.1)[0] == "better"
    assert verdict(STEADY, [v * 0.97 for v in STEADY], "higher", 0.1)[0] == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
    assert verdict(STEADY, noisy, "higher", 0.1)[0] == "unresolved"
    assert verdict(noisy, [v * 3 for v in noisy], "higher", 0.1)[0] == "better"


def _record(seed, rate, trace=0, inputs="a", entropy=1.0):
    metrics = {"rate": rate} if not trace else {"stages.entropy.self_s": entropy,
                                                "kernel.self_s": 2.0}
    return {"workload": "w", "seed": seed, "trace": trace, "inputs": inputs,
            "metrics": metrics}


def test_report_names_the_layer_that_moved_and_differing_inputs():
    base = [_record(s, r) for s, r in enumerate(STEADY)] + [_record(9, 0, 1)]
    new = [_record(s, r * 1.3) for s, r in enumerate(STEADY)]
    new += [_record(9, 0, 1, entropy=0.5), _record(0, 0, 1, inputs="b")]
    lines = compare(base, new, BENCH)
    text = "\n".join(lines)
    assert "-> better" in text
    assert "layer that moved most: stages.entropy.self_s" in text
    assert "inputs differ for seeds [0]" in text
