"""Unit tests for the decode-plan IR: planner, validator, rewrites.

The properties pinned here are the contract the driver relies on:
compilation is *total* (every constructible ``DecodeOptions`` yields a
valid plan), the canonical serialisation is deterministic (the digest is
a usable cache/ledger key), ``options_for_plan`` round-trips, and every
documented validation rule actually fires with its code.
"""

import itertools
import json

import pytest

from repro.jpeg2000.options import DecodeOptions
from repro.jpeg2000.plan import (
    ASSEMBLE_MOSAIC,
    EXECUTOR_INLINE,
    EXECUTOR_POOL,
    INLINE,
    RECONSTRUCT_VECTORISED,
    STAGE_ASSEMBLE,
    STAGE_ENTROPY,
    STAGE_ORDER,
    STAGE_PARSE,
    STAGE_RECONSTRUCT,
    DecodePlan,
    ExecutorSpec,
    PlanEnvironment,
    PlanValidationError,
    StageBinding,
    check_plan,
    compile_plan,
    degrade_to_inline,
    options_for_plan,
    validate_plan,
)

#: A host that can run everything (so validation exercises the plan, not
#: the machine the tests happen to run on).
BIG_HOST = PlanEnvironment(cpu_count=8)
#: A two-CPU host.
TWO_CPU_HOST = PlanEnvironment(cpu_count=2)
#: A single-CPU host.
SMALL_HOST = PlanEnvironment(cpu_count=1)


def valid_pool_plan(**executor_overrides) -> DecodePlan:
    """A known-good parallel plan to perturb in validator tests."""
    fields = {
        "kind": EXECUTOR_POOL, "workers": 4, "chunk_size": 8,
        **executor_overrides,
    }
    executor = ExecutorSpec(**fields)
    return DecodePlan((
        StageBinding(STAGE_PARSE, "fast"),
        StageBinding(STAGE_ENTROPY, "batched", executor),
        StageBinding(STAGE_RECONSTRUCT, RECONSTRUCT_VECTORISED),
        StageBinding(STAGE_ASSEMBLE, ASSEMBLE_MOSAIC),
    ))


def rules_of(plan):
    return {issue.rule for issue in validate_plan(plan)}


class TestCompileTotality:
    """compile_plan(options, env) validates for every constructible options."""

    # The full cross product is a few hundred combinations; cheap, and
    # the whole point of a totality property.
    WORKERS = (0, 1, 2, 4, None)
    KERNELS = ("batched", "reference")
    TIER2 = ("fast", "reference")
    START_METHODS = (None, "fork", "spawn", "forkserver")
    BOOLS = (False, True)

    @pytest.mark.parametrize("env", [BIG_HOST, TWO_CPU_HOST, SMALL_HOST])
    def test_every_options_value_compiles_valid(self, env):
        for workers, kernel, tier2, start, oversub in itertools.product(
            self.WORKERS, self.KERNELS, self.TIER2, self.START_METHODS,
            self.BOOLS,
        ):
            options = DecodeOptions(
                workers=workers, kernel=kernel, tier2=tier2,
                start_method=start, oversubscribe=oversub,
            )
            plan = compile_plan(options, env)
            issues = validate_plan(plan)
            assert not issues, (
                f"options {options} compiled to invalid plan on {env}: "
                f"{[i.as_dict() for i in issues]}"
            )

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
        assert plan.stage(STAGE_ENTROPY).executor.workers == BIG_HOST.cpu_count

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
        plan = valid_pool_plan()
        data = json.loads(plan.canonical_json())
        assert [s["stage"] for s in data["stages"]] == list(STAGE_ORDER)

    def test_describe_is_deterministic_and_carries_digest(self):
        plan = valid_pool_plan()
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


class TestValidatorRules:
    def test_valid_plan_has_no_issues(self):
        assert validate_plan(valid_pool_plan()) == []

    def test_stage_missing(self):
        plan = DecodePlan(tuple(
            b for b in valid_pool_plan().stages if b.stage != STAGE_RECONSTRUCT
        ))
        assert "plan.stage-missing" in rules_of(plan)

    def test_stage_order(self):
        plan = DecodePlan(tuple(reversed(valid_pool_plan().stages)))
        assert "plan.stage-order" in rules_of(plan)

    def test_duplicate_stage_is_an_order_issue(self):
        stages = valid_pool_plan().stages
        plan = DecodePlan(stages + (stages[0],))
        assert "plan.stage-order" in rules_of(plan)

    def test_unknown_impl(self):
        plan = valid_pool_plan().with_stage(
            StageBinding(STAGE_RECONSTRUCT, "quantum")
        )
        assert "stage.unknown-impl" in rules_of(plan)

    def test_unknown_executor_kind(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_ENTROPY, "batched", ExecutorSpec(kind="gpu")
        ))
        assert "executor.unknown-kind" in rules_of(plan)

    def test_pool_requires_workers(self):
        assert "executor.pool-requires-workers" in rules_of(
            valid_pool_plan(workers=1)
        )

    def test_pool_requires_chunking(self):
        assert "executor.pool-requires-chunking" in rules_of(
            valid_pool_plan(chunk_size=0)
        )

    def test_unknown_start_method(self):
        assert "executor.unknown-start-method" in rules_of(
            valid_pool_plan(start_method="teleport")
        )

    def test_inline_carries_pool_config(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_ENTROPY, "batched", ExecutorSpec(kind=EXECUTOR_INLINE, workers=4)
        ))
        assert "executor.inline-carries-pool-config" in rules_of(plan)

    def test_stage_not_parallel(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_RECONSTRUCT, RECONSTRUCT_VECTORISED,
            ExecutorSpec(kind=EXECUTOR_POOL, workers=4, chunk_size=8),
        ))
        assert "executor.stage-not-parallel" in rules_of(plan)

    def test_fast_kernel_id_is_gone(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_ENTROPY, "fast",
            valid_pool_plan().stage(STAGE_ENTROPY).executor,
        ))
        assert "stage.unknown-impl" in rules_of(plan)

    def test_rule_set_is_the_documented_nine(self):
        """The validator emits exactly the nine rule codes its module
        docstring documents."""
        import inspect
        import re

        import repro.jpeg2000.plan as plan_module

        emitted = set(re.findall(
            r'rule="([a-z-]+\.[a-z-]+)"', inspect.getsource(plan_module)
        ))
        documented = set(re.findall(
            r"^``([a-z-]+\.[a-z-]+)``", plan_module.__doc__, re.MULTILINE
        ))
        assert emitted == documented == {
            "plan.stage-missing", "plan.stage-order", "stage.unknown-impl",
            "executor.unknown-kind", "executor.pool-requires-workers",
            "executor.pool-requires-chunking",
            "executor.unknown-start-method",
            "executor.inline-carries-pool-config",
            "executor.stage-not-parallel",
        }

    def test_issues_carry_paths(self):
        issues = validate_plan(valid_pool_plan(workers=1))
        assert issues
        for issue in issues:
            record = issue.as_dict()
            assert set(record) == {"rule", "path", "message"}
            assert record["path"].startswith(STAGE_ENTROPY)

    def test_check_plan_returns_plan_or_raises(self):
        plan = valid_pool_plan()
        assert check_plan(plan) is plan
        with pytest.raises(PlanValidationError) as excinfo:
            check_plan(valid_pool_plan(workers=1))
        assert "executor.pool-requires-workers" in str(excinfo.value)
        assert excinfo.value.issues


class TestOptionsRoundTrip:
    @pytest.mark.parametrize("options", [
        DecodeOptions(),
        DecodeOptions(kernel="reference", tier2="reference"),
        DecodeOptions(workers=4),
        DecodeOptions(workers=4, kernel="reference", chunk_size=3),
        DecodeOptions(workers=2, start_method="spawn"),
        DecodeOptions(workers=6, tier2="reference"),
    ])
    def test_compile_options_for_plan_reproduces_plan(self, options):
        plan = compile_plan(options, BIG_HOST)
        recovered = options_for_plan(plan)
        assert compile_plan(recovered, BIG_HOST) == plan

    def test_pool_round_trip_pins_workers_with_oversubscribe(self):
        # The recovered options must reproduce the plan even on a
        # smaller host, which is exactly what oversubscribe grants.
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        recovered = options_for_plan(plan)
        assert recovered.oversubscribe
        assert compile_plan(recovered, SMALL_HOST) == plan


class TestRewrites:
    def test_degrade_to_inline_is_terminal(self):
        degraded = degrade_to_inline(valid_pool_plan())
        assert degraded.stage(STAGE_ENTROPY).executor == INLINE

    def test_rewrites_only_touch_the_entropy_stage(self):
        plan = valid_pool_plan()
        rewritten = degrade_to_inline(plan)
        for stage in (STAGE_PARSE, STAGE_RECONSTRUCT, STAGE_ASSEMBLE):
            assert rewritten.stage(stage) == plan.stage(stage)


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
