"""Per-operation correctness checks.

A decoded image is checked by content digest: against the source image
for a lossless codestream, and against the reference-plan decode of the
same codestream for a lossy one (computed once, when the input is
generated).  Table 1 cells are checked by rendering them through
``experiments.artifacts`` and comparing with the committed
``results/`` files byte for byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def image_digest(image) -> str:
    """SHA-256 over bit depth, then each component's shape and samples."""
    import numpy as np

    digest = hashlib.sha256(f"bit_depth={image.bit_depth}".encode())
    for component in image.components:
        samples = np.ascontiguousarray(component, dtype=np.int64)
        digest.update(f"|{samples.shape[0]}x{samples.shape[1]}|".encode())
        digest.update(samples.tobytes())
    return digest.hexdigest()


def check_image(image, expected: str, what: str) -> Optional[str]:
    """``None`` when *image* has digest *expected*, else a message."""
    actual = image_digest(image)
    if actual == expected:
        return None
    return f"{what}: decoded image digest {actual[:12]} != expected {expected[:12]}"


def check_artifacts(files: dict, results_dir: Path) -> list:
    """Names of rendered artefacts that differ from ``results_dir``."""
    wrong = []
    for name, content in sorted(files.items()):
        path = Path(results_dir) / name
        if not path.is_file() or path.read_text(encoding="utf-8") != content:
            wrong.append(name)
    return wrong
