"""The oracle flags wrong outputs."""

import numpy as np

from oracle import check_artifacts, check_image, image_digest
from workloads import TABLE1_EXPERIMENTS, WARMUP_PARAMS, ROOT, encode_case


def test_one_byte_corruption_of_a_decoded_image_is_flagged():
    from repro.jpeg2000 import decode_codestream

    case = {"params": WARMUP_PARAMS, "lossless": False, "image_seed": 5}
    entry = encode_case(case)
    import base64

    decoded = decode_codestream(base64.b64decode(entry["codestream"]))
    assert check_image(decoded, entry["expected"], "lossy") is None
    corrupted = decoded.components[1].copy()
    corrupted.reshape(-1)[17] ^= 1
    decoded.components[1] = corrupted
    assert check_image(decoded, entry["expected"], "lossy") is not None


def test_digest_sees_shape_and_bit_depth():
    from repro.jpeg2000 import Image

    plane = np.arange(12, dtype=np.int64).reshape(3, 4)
    digest = image_digest(Image([plane]))
    assert image_digest(Image([plane.reshape(4, 3)])) != digest
    assert image_digest(Image([plane], bit_depth=10)) != digest
    assert image_digest(Image([plane.astype(np.int32)])) == digest


def _render(outcomes) -> dict:
    files = {}
    for outcome in outcomes:
        for stem, table in outcome.experiment.tables(outcome.payloads).items():
            files[f"{stem}.txt"] = table.render()
            files[f"{stem}.csv"] = table.to_csv()
    return files


def test_perturbed_table1_cell_is_flagged():
    from repro.experiments import Runner

    outcomes = Runner(jobs=0, cache=None).sweep(list(TABLE1_EXPERIMENTS))
    results = ROOT / "results"
    assert check_artifacts(_render(outcomes), results) == []
    vta = next(o for o in outcomes if o.experiment.id == "table1_vta_layer")
    vta.results["sim:6a:lossless"].payload["decode_ms"] *= 1.001
    wrong = check_artifacts(_render(outcomes), results)
    assert "table1_vta_layer.txt" in wrong
    assert "table1_application_layer.txt" not in wrong
