"""Unit tests for the decode-plan IR and its planner.

The properties pinned here are the contract the driver relies on:
compilation is *total* (every constructible ``DecodeOptions`` yields a
well-formed plan on every host), the canonical serialisation is
deterministic (the digest is a usable cache/ledger key), and the digests
of known plans never drift (ledgers, benchmark rows and perfbench all
key on them).
"""

import itertools
import json

import pytest

from repro.jpeg2000.options import DecodeOptions
from repro.jpeg2000.plan import (
    EXECUTOR_INLINE,
    EXECUTOR_POOL,
    INLINE,
    STAGE_ENTROPY,
    STAGE_ORDER,
    STAGE_PARSE,
    DecodePlan,
    ExecutorSpec,
    compile_plan,
)

#: Host CPU counts the planner is exercised on.
BIG_HOST = 8
SMALL_HOST = 1


class TestCompileTotality:
    """compile_plan(options, cpu_count) is well-formed for every
    constructible options value on every host."""

    # The full cross product is a few hundred combinations; cheap, and
    # the whole point of a totality property.
    WORKERS = (0, 1, 2, 4, None)
    KERNELS = ("batched", "reference")
    TIER2 = ("fast", "reference")
    START_METHODS = (None, "fork", "spawn", "forkserver")
    BOOLS = (False, True)

    @pytest.mark.parametrize(
        "cpu_count", [BIG_HOST, 2, SMALL_HOST], ids=["env0", "env1", "env2"]
    )
    def test_every_options_value_compiles_valid(self, cpu_count):
        for workers, kernel, tier2, start, oversub in itertools.product(
            self.WORKERS, self.KERNELS, self.TIER2, self.START_METHODS,
            self.BOOLS,
        ):
            options = DecodeOptions(
                workers=workers, kernel=kernel, tier2=tier2,
                start_method=start, oversubscribe=oversub,
            )
            plan = compile_plan(options, cpu_count)
            context = f"options {options} on {cpu_count} CPUs"
            assert tuple(b.stage for b in plan.stages) == STAGE_ORDER, context
            assert plan.stage(STAGE_PARSE).impl == tier2, context
            entropy = plan.stage(STAGE_ENTROPY)
            assert entropy.impl == kernel, context
            for binding in plan.stages:
                if binding is not entropy:
                    assert binding.executor == INLINE, context
            ex = entropy.executor
            requested = cpu_count if workers is None else workers
            clamped = requested if oversub else min(requested, cpu_count)
            if clamped > 1:
                assert ex.kind == EXECUTOR_POOL, context
                assert ex.workers >= 2, context
                assert ex.chunk_size >= 1, context
                assert ex.start_method == start, context
            else:
                assert ex == INLINE, context

    def test_sequential_options_bind_inline_entropy(self):
        plan = compile_plan(DecodeOptions(workers=0), BIG_HOST)
        assert plan.stage(STAGE_ENTROPY).executor == INLINE

    def test_parallel_options_bind_pool_entropy(self):
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        ex = plan.stage(STAGE_ENTROPY).executor
        assert ex.kind == EXECUTOR_POOL
        assert ex.workers == 4
        assert ex.chunk_size == DecodeOptions().chunk_size
        assert plan.stage(STAGE_ENTROPY).impl == "batched"

    def test_host_clamp_compiles_parallel_request_to_inline(self):
        # On a 1-CPU host without oversubscribe, workers=4 is clamped to
        # 1 worker — which is not a pool at all.
        plan = compile_plan(DecodeOptions(workers=4), SMALL_HOST)
        assert plan.stage(STAGE_ENTROPY).executor.kind == EXECUTOR_INLINE

    def test_oversubscribe_defeats_host_clamp(self):
        plan = compile_plan(
            DecodeOptions(workers=4, oversubscribe=True), SMALL_HOST
        )
        assert plan.stage(STAGE_ENTROPY).executor.workers == 4

    def test_workers_none_takes_env_cpu_count(self):
        plan = compile_plan(DecodeOptions(workers=None), BIG_HOST)
        assert plan.stage(STAGE_ENTROPY).executor.workers == BIG_HOST

    def test_tier2_choice_lands_on_parse_stage(self):
        plan = compile_plan(DecodeOptions(tier2="reference"), BIG_HOST)
        assert plan.stage(STAGE_PARSE).impl == "reference"


class TestCanonicalForm:
    def test_digest_is_deterministic(self):
        a = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        b = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        assert a == b
        assert a.digest() == b.digest()
        assert a.canonical_json() == b.canonical_json()

    def test_digest_distinguishes_plans(self):
        a = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        b = compile_plan(DecodeOptions(workers=2), BIG_HOST)
        assert a.digest() != b.digest()

    def test_canonical_json_round_trips_as_data(self):
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        data = json.loads(plan.canonical_json())
        assert [s["stage"] for s in data["stages"]] == list(STAGE_ORDER)

    def test_describe_is_deterministic_and_carries_digest(self):
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        text = plan.describe()
        assert text == plan.describe()
        assert plan.digest()[:12] in text.splitlines()[0]
        assert len(text.splitlines()) == 1 + len(plan.stages)

    def test_executor_spec_has_four_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(ExecutorSpec)] == [
            "kind", "workers", "chunk_size", "start_method",
        ]
        assert list(INLINE.as_dict()) == [
            "kind", "workers", "chunk_size", "start_method",
        ]

    def test_stage_lookup_raises_on_unbound_stage(self):
        with pytest.raises(KeyError):
            DecodePlan(()).stage(STAGE_ENTROPY)

    def test_known_plans_keep_their_digests(self):
        """Ledgers, ``BENCH_decode.json`` and perfbench key on these."""
        pinned = {
            # README's ``plan decode --workers 4 --cpus 8`` transcript.
            (DecodeOptions(workers=4), BIG_HOST):
                "b61b1452581314996deb632800b16fb5"
                "d6ce214f55bece669debda67db93bc41",
            (DecodeOptions(), SMALL_HOST):
                "a5416ec35fb061607f67a7c70dac4d19"
                "1456ee095b085ee18c2f9bdb75c52e13",
            (DecodeOptions(kernel="reference", tier2="reference"), SMALL_HOST):
                "da9e4e6593c175c0477d17999e916fe6"
                "f2df77349ff2acd7706176bd3b0c79ea",
        }
        for (options, cpu_count), digest in pinned.items():
            assert compile_plan(options, cpu_count).digest() == digest, options


class TestOptionsCanonicalDict:
    """Satellite regression: as_dict is the identity the cache hashes."""

    def test_equal_valued_instances_serialise_identically(self):
        a = DecodeOptions(workers=4, kernel="batched", chunk_size=16)
        b = DecodeOptions(workers=4, kernel="batched", chunk_size=16)
        assert a == b
        assert a.as_dict() == b.as_dict()
        assert (
            json.dumps(a.as_dict(), sort_keys=True)
            == json.dumps(b.as_dict(), sort_keys=True)
        )

    @pytest.mark.parametrize("flip", [
        {"workers": 2},
        {"chunk_size": 9},
        {"kernel": "reference"},
        {"start_method": "spawn"},
        {"oversubscribe": True},
        {"tier2": "reference"},
    ])
    def test_every_field_flip_changes_the_serialisation(self, flip):
        base = DecodeOptions(workers=4)
        flipped = DecodeOptions(**{**base.as_dict(), **flip})
        assert base.as_dict() != flipped.as_dict()

    def test_from_dict_round_trips(self):
        options = DecodeOptions(
            workers=None, kernel="reference", start_method="forkserver",
            oversubscribe=True, tier2="reference",
        )
        assert DecodeOptions.from_dict(options.as_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            DecodeOptions.from_dict({"workers": 2, "turbo": True})
