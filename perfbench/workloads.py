"""The three workloads: seeded inputs, warm-up, one measured round.

Each workload is a closed loop driven from this process: the next
program call starts only when the previous one has returned.  A
*round* is the workload's unit of repetition — every round of a run
does identical work, so rounds differ only by host noise:

``paper-decode-pool``
    one lossless and one lossy decode of the paper geometry (512x512
    RGB, 16 tiles of 128x128, 3 levels) with ``DecodeOptions(workers=None)``;
``codec-mix``
    encode, then decode with the library defaults, each of 8 small
    images that together balance lossless/lossy, 1/3 components,
    32/64 code blocks and 1xN/Nx1 tile grids;
``sim-explore``
    the 18 Table 1 cells, then a seeded exploration batch, both through
    ``experiments.Runner(jobs=0, cache=None)``.

Inputs depend only on ``(workload, seed)``; their digests go into the
run record so two result sets that ran different inputs are not
compared silently.  Input generation runs before set-up and is not
measured; paper codestreams are cached under ``perfbench/.cache``,
keyed by the seed, the coding parameters and a digest of the
``repro.jpeg2000`` sources.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from oracle import check_artifacts, check_image, image_digest, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_DIR = Path(__file__).resolve().parent / ".cache"

#: Bumped whenever generation changes meaning, so old cache entries miss.
GENERATOR_VERSION = 1

#: The paper geometry (Table 1: 16 tiles x 3 components).
PAPER_PARAMS = {
    "width": 512, "height": 512, "num_components": 3,
    "tile_width": 128, "tile_height": 128, "num_levels": 3,
    "base_step": 1 / 8,
}
#: A 4-tile image small enough to decode in milliseconds, large enough
#: to take the pool path (more than one tile).
WARMUP_PARAMS = {
    "width": 64, "height": 64, "num_components": 3,
    "tile_width": 32, "tile_height": 32, "num_levels": 2,
    "base_step": 1 / 8,
}
#: Table 1 experiments and the samples one simulated cell models.
TABLE1_EXPERIMENTS = ("table1_application_layer", "table1_vta_layer")
TILE_SAMPLES = 3 * 128 * 128
TABLE1_TILES = 16
#: codec-mix images have about the area of a square of this side.
CODEC_SIDE = 104
#: Accepted mutants per exploration batch.  A batch's cost varies about
#: 2x between seeds; a small batch keeps that from dominating a round.
EXPLORE_BUDGET = 4


#: The host-speed probe: a fixed pure-Python loop, timed before and
#: after every program call.  The speed of the shared hosts this runs on
#: drifts by up to 2x over minutes; the probe slows down with the program,
#: so rescaling call time by it removes most of that drift.
PROBE_ITERATIONS = 50_000
#: The probe's time on the reference host: one reference second is the
#: time in which that host runs the probe 250 times.
REFERENCE_PROBE_S = 0.004
#: After a call, probe for about this share of the call's time (at least
#: once), so long calls weigh as much in the speed estimate as they do in
#: the round and a round of few calls still gets enough probes.
PROBE_SHARE = 0.02


def host_probe() -> float:
    """Seconds this host takes for the probe loop right now."""
    start = perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value % 7
    return perf_counter() - start


@dataclass
class Round:
    """One round's program-call time, work and outcome."""

    seconds: float = 0.0
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    #: kind ("decode", "encode", "sim") -> [seconds, samples, operations]
    parts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Host-probe times around this round's program calls.
    probes: list = field(default_factory=list)

    def call(self, tracer, fn, *args):
        """``(result, seconds)`` of one program call, under an ``op`` span
        when traced, with a host probe on either side."""
        self.probes.append(host_probe())
        start = perf_counter()
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.span("op"):
                result = fn(*args)
        seconds = perf_counter() - start
        for _ in range(max(1, round(seconds * PROBE_SHARE / REFERENCE_PROBE_S))):
            self.probes.append(host_probe())
        return result, seconds

    def add(self, kind: str, seconds: float, samples: int, ops: int = 1) -> None:
        part = self.parts.setdefault(kind, [0.0, 0, 0])
        part[0] += seconds
        part[1] += samples
        part[2] += ops
        self.seconds += seconds
        self.samples += samples

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    @property
    def host_speed(self) -> float:
        """This host's speed during the round, relative to the reference."""
        if not self.probes:
            return 1.0
        return REFERENCE_PROBE_S / (sum(self.probes) / len(self.probes))


def source_fingerprint() -> str:
    """Digest of the ``repro.jpeg2000`` sources (the cache key's code part)."""
    digest = hashlib.sha256(f"generator={GENERATOR_VERSION}".encode())
    package = SRC / "repro" / "jpeg2000"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_path(kind: str, key: dict) -> Path:
    name = sha256(json.dumps(key, sort_keys=True).encode())[:24]
    return CACHE_DIR / f"{kind}-{name}.json"


def _cache_load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _cache_store(path: Path, entry: dict) -> None:
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def parallel_map(fn, items: list) -> list:
    """``[fn(item) ...]`` over at most two spawned processes.

    Only input generation uses this; the processes have ended when it
    returns.
    """
    workers = min(len(items), os.cpu_count() or 1, 2)
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


def reference_options():
    """The reference-plan decode options (the readable Tier-1 kernel)."""
    from repro.jpeg2000 import DecodeOptions

    try:
        return DecodeOptions(kernel="reference")
    except (TypeError, ValueError):
        return DecodeOptions()


def _coding_parameters(params: dict, lossless: bool):
    """Fresh parameters per call: the encoder fills in the QCD fields."""
    from repro.jpeg2000 import CodingParameters

    return CodingParameters(
        lossless=lossless, use_mct=params["num_components"] == 3, **params
    )


def encode_case(case: dict) -> dict:
    """Encode one generated image; lossy cases get a reference decode.

    Returns the codestream and the digests the oracle needs.  Runs in
    the generation processes.
    """
    from repro.jpeg2000 import decode_codestream, encode_image, synthetic_image

    params = case["params"]
    image = synthetic_image(
        params["width"], params["height"], params["num_components"],
        seed=case["image_seed"],
    )
    codestream = encode_image(image, _coding_parameters(params, case["lossless"]))
    source = image_digest(image)
    if case["lossless"]:
        expected = source
    else:
        expected = image_digest(decode_codestream(codestream, reference_options()))
    return {
        "codestream": base64.b64encode(codestream).decode("ascii"),
        "codestream_sha256": sha256(codestream),
        "source": source,
        "expected": expected,
    }


# --------------------------------------------------------------------------
# paper-decode-pool
# --------------------------------------------------------------------------


class PaperDecodePool:
    name = "paper-decode-pool"
    uses_pool = True

    def __init__(self, seed: int):
        self.seed = seed
        self.cases: list = []
        #: Tiny codestreams the warm-up decodes (written by ``generate``).
        self.warmup_file = None

    def describe(self) -> dict:
        """The generated inputs before encoding (cheap, for tests)."""
        from repro.jpeg2000 import synthetic_image

        image = synthetic_image(512, 512, 3, seed=self.seed)
        return {"image": image_digest(image), "params": PAPER_PARAMS}

    def _warmup_path(self) -> Path:
        return _cache_path("warmup", {
            "params": WARMUP_PARAMS, "code": source_fingerprint(),
        })

    def generate(self) -> dict:
        cases = [
            {"params": PAPER_PARAMS, "lossless": lossless, "image_seed": self.seed}
            for lossless in (True, False)
        ]
        path = _cache_path("paper", {
            "seed": self.seed, "params": PAPER_PARAMS,
            "code": source_fingerprint(),
        })
        entries = _cache_load(path)
        if entries is None or not all(
            sha256(base64.b64decode(entry["codestream"]))
            == entry["codestream_sha256"]
            for entry in entries
        ):
            entries = parallel_map(encode_case, cases)
            _cache_store(path, entries)
        self.cases = [
            {**case, **entry, "codestream": base64.b64decode(entry["codestream"])}
            for case, entry in zip(cases, entries)
        ]
        self.warmup_file = self._warmup_path()
        if _cache_load(self.warmup_file) is None:
            _cache_store(self.warmup_file, [
                encode_case({"params": WARMUP_PARAMS, "lossless": lossless,
                             "image_seed": 0})
                for lossless in (True, False)
            ])
        return {
            "reference_options": repr(reference_options()),
            "codestreams": [
                {"lossless": case["lossless"],
                 "sha256": case["codestream_sha256"],
                 "bytes": len(case["codestream"]),
                 "expected_image": case["expected"]}
                for case in self.cases
            ],
        }

    def _options(self):
        from repro.jpeg2000 import DecodeOptions

        return DecodeOptions(workers=None)

    def warm_up(self) -> None:
        from repro.jpeg2000 import decode_codestream

        for entry in _cache_load(self.warmup_file):
            decode_codestream(base64.b64decode(entry["codestream"]), self._options())

    def info(self) -> dict:
        from repro.jpeg2000 import Jpeg2000Decoder

        options = self._options()
        info = {
            "cpu_count": os.cpu_count(),
            "requested_workers": getattr(options, "requested_workers", None),
            "effective_workers": getattr(options, "effective_workers", None),
        }
        try:
            plan = Jpeg2000Decoder(self.cases[0]["codestream"], options=options).plan
            info["plan_digest"] = plan.digest()
        except (AttributeError, TypeError, ValueError):
            info["plan_digest"] = None
        return info

    def round(self, tracer=None) -> Round:
        from repro.jpeg2000 import decode_codestream

        result = Round()
        options = self._options()
        for case in self.cases:
            result.attempted += 1
            try:
                image, seconds = result.call(
                    tracer, decode_codestream, case["codestream"], options
                )
            except Exception as error:  # noqa: BLE001 - counted as failed
                result.fail(f"decode raised {type(error).__name__}: {error}")
                continue
            result.add("decode", seconds, image.width * image.height
                       * image.num_components)
            mode = "lossless" if case["lossless"] else "lossy"
            message = check_image(image, case["expected"], f"{mode} decode")
            if message:
                result.fail(message)
        return result

    def teardown(self) -> None:
        import repro.jpeg2000

        shutdown_pool = getattr(repro.jpeg2000, "shutdown_pool", None)
        if shutdown_pool is not None:
            shutdown_pool()


# --------------------------------------------------------------------------
# codec-mix
# --------------------------------------------------------------------------


def codec_cases(seed: int) -> list:
    """8 seeded images: a half fraction of the 2^4 property design.

    Lossless/lossy, 1/3 components and 32/64 code blocks take every
    combination; the tile grid (1xN or Nx1) follows their parity, so
    each value of each property occurs in four of the eight images.
    The seed draws each image's shape (sides of 64-160 px, never
    square), its tile count N and its content, and shuffles the order.
    Every image has about the same area, so the work of a round does not
    depend on which properties the seed happened to pair with large
    images.
    """
    rng = random.Random(f"codec-mix:{seed}")
    combos = [
        (lossless, components, codeblock_exp,
         "1xN" if (lossless + (components == 3) + (codeblock_exp == 6)) % 2 else "Nx1")
        for lossless, components, codeblock_exp
        in itertools.product((True, False), (1, 3), (5, 6))
    ]
    rng.shuffle(combos)
    cases = []
    for lossless, components, codeblock_exp, grid in combos:
        width = rng.choice([w for w in range(68, 157) if w != CODEC_SIDE])
        height = round(CODEC_SIDE * CODEC_SIDE / width)
        tiles = rng.randint(2, 4)
        if grid == "1xN":
            tile_width, tile_height = width, -(-height // tiles)
        else:
            tile_width, tile_height = -(-width // tiles), height
        cases.append({
            "params": {
                "width": width, "height": height,
                "num_components": components, "tile_width": tile_width,
                "tile_height": tile_height, "num_levels": 3,
                "codeblock_exp": codeblock_exp, "base_step": 1 / 8,
            },
            "lossless": lossless,
            "grid": f"{grid}={tiles}",
            "image_seed": rng.randrange(2 ** 31),
        })
    return cases


class CodecMix:
    name = "codec-mix"
    uses_pool = False
    warmup_file = None

    def __init__(self, seed: int):
        self.seed = seed
        self.cases: list = []

    def describe(self) -> dict:
        from repro.jpeg2000 import synthetic_image

        cases = codec_cases(self.seed)
        return {
            "cases": cases,
            "images": [
                image_digest(synthetic_image(
                    case["params"]["width"], case["params"]["height"],
                    case["params"]["num_components"], seed=case["image_seed"],
                ))
                for case in cases
            ],
        }

    def generate(self) -> dict:
        from repro.jpeg2000 import synthetic_image

        cases = codec_cases(self.seed)
        path = _cache_path("codec", {
            "seed": self.seed, "cases": cases, "code": source_fingerprint(),
        })
        entries = _cache_load(path)
        if entries is None:
            entries = parallel_map(encode_case, cases)
            for entry in entries:
                del entry["codestream"]
            _cache_store(path, entries)
        self.cases = []
        for case, entry in zip(cases, entries):
            params = case["params"]
            image = synthetic_image(
                params["width"], params["height"], params["num_components"],
                seed=case["image_seed"],
            )
            if image_digest(image) != entry["source"]:
                raise RuntimeError("generated image differs from the cached one")
            self.cases.append({**case, **entry, "image": image})
        return {
            "reference_options": repr(reference_options()),
            "cases": [
                {key: value for key, value in case.items() if key != "image"}
                for case in self.cases
            ],
        }

    def warm_up(self) -> None:
        from repro.jpeg2000 import decode_codestream, encode_image, synthetic_image

        for components in (1, 3):
            for lossless in (True, False):
                params = {
                    "width": 24, "height": 16, "num_components": components,
                    "tile_width": 24, "tile_height": 8, "num_levels": 2,
                    "base_step": 1 / 8,
                }
                image = synthetic_image(24, 16, components, seed=0)
                decode_codestream(
                    encode_image(image, _coding_parameters(params, lossless))
                )

    def info(self) -> dict:
        return {"cpu_count": os.cpu_count()}

    def round(self, tracer=None) -> Round:
        from repro.jpeg2000 import decode_codestream, encode_image

        result = Round()
        for case in self.cases:
            image = case["image"]
            samples = image.width * image.height * image.num_components
            label = f"{case['params']['width']}x{case['params']['height']}"
            result.attempted += 2
            try:
                codestream, seconds = result.call(
                    tracer, encode_image, image,
                    _coding_parameters(case["params"], case["lossless"]),
                )
            except Exception as error:  # noqa: BLE001 - counted as failed
                result.fail(f"{label}: encode raised {type(error).__name__}: {error}", 2)
                continue
            result.add("encode", seconds, samples)
            if sha256(codestream) != case["codestream_sha256"]:
                result.fail(f"{label}: codestream differs from the generated one")
            try:
                decoded, seconds = result.call(tracer, decode_codestream, codestream)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result.fail(f"{label}: decode raised {type(error).__name__}: {error}")
                continue
            result.add("decode", seconds, samples)
            message = check_image(decoded, case["expected"], f"{label} decode")
            if message:
                result.fail(message)
        return result

    def teardown(self) -> None:
        pass


# --------------------------------------------------------------------------
# sim-explore
# --------------------------------------------------------------------------


class SimExplore:
    name = "sim-explore"
    uses_pool = False
    warmup_file = None

    def __init__(self, seed: int):
        self.seed = seed
        self.expected_digests: list = []
        self.results_dir = ROOT / "results"

    def _config(self, **overrides):
        from repro.explore import ExplorationConfig

        return ExplorationConfig(**{
            "budget": EXPLORE_BUDGET, "seed": self.seed, **overrides,
        })

    def describe(self) -> dict:
        from repro.design import catalog
        from repro.design.mutate import canonical_hash, enumerate_designs

        config = self._config()
        seeds = catalog.specs()
        enumeration = enumerate_designs(
            [spec for spec in seeds if spec.is_vta],
            budget=config.budget, seed=config.seed,
            max_attempts=config.max_attempts,
        )
        return {
            "config": config.as_dict(),
            "designs": [
                canonical_hash(spec)
                for spec in list(seeds) + list(enumeration.generated)
            ],
        }

    def generate(self) -> dict:
        from repro.experiments import registry

        described = self.describe()
        self.expected_digests = described["designs"]
        stems = [
            stem for experiment in TABLE1_EXPERIMENTS
            for stem in registry.get(experiment).artefacts
        ]
        return {
            **described,
            "table1": {
                f"{stem}.{ext}": sha256((self.results_dir / f"{stem}.{ext}").read_bytes())
                for stem in stems for ext in ("txt", "csv")
            },
        }

    def _runner(self):
        from repro.experiments import Runner

        return Runner(jobs=0, cache=None)

    def warm_up(self) -> None:
        from repro.explore import explore

        explore(self._config(budget=1, seed=0, num_tiles=1), self._runner())

    def info(self) -> dict:
        return {"cpu_count": os.cpu_count()}

    def round(self, tracer=None) -> Round:
        from repro.experiments import render_artifacts
        from repro.explore import explore

        result = Round()
        runner = self._runner()
        try:
            files, seconds = result.call(
                tracer, render_artifacts, TABLE1_EXPERIMENTS, runner
            )
        except Exception as error:  # noqa: BLE001 - counted as failed
            result.attempted += 1
            result.fail(f"Table 1 raised {type(error).__name__}: {error}")
        else:
            cells = getattr(runner, "last_stats", {}).get("executed", 0)
            result.attempted += cells
            result.add("sim", seconds, cells * TABLE1_TILES * TILE_SAMPLES, cells)
            wrong = check_artifacts(files, self.results_dir)
            if wrong:
                result.fail(f"Table 1 artefacts differ: {', '.join(wrong)}", cells)
        config = self._config()
        try:
            outcome, seconds = result.call(tracer, explore, config, self._runner())
        except Exception as error:  # noqa: BLE001 - counted as failed
            result.attempted += 1
            result.fail(f"explore raised {type(error).__name__}: {error}")
            return result
        cells = len(outcome.candidates)
        result.attempted += cells
        result.add("sim", seconds, cells * config.num_tiles * TILE_SAMPLES, cells)
        for candidate in outcome.failed:
            result.fail(f"candidate {candidate.name} failed: {candidate.failure}")
        digests = [candidate.digest for candidate in outcome.candidates]
        if digests != self.expected_digests:
            result.fail("explored designs differ from the generated ones")
        return result

    def teardown(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (PaperDecodePool, CodecMix, SimExplore)}
