"""Tests for the composable pipeline layer (`repro.api`).

The centerpiece is the stage-composition equivalence suite: every
built-in pipeline must reproduce, field for field, the result the
pre-refactor one-shot flow recipes gave on real registry circuits.
Those answers are pinned in ``golden_flows.json``: for alu2, f51m and
vda under each of the four flows (default configs with
``verify=False``) it records the Table-I node counts, the op-cache
counters, the Table-II row, the mapped cell histogram and the sha256 of
the optimized and mapped netlists.  It was written while the recipes
still existed and this suite proved every pipeline identical to them.

If an intentional change moves these numbers, regenerate the golden
with::

    PYTHONPATH=src python tests/api/test_pipeline.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import (
    FunctionStage,
    InputItem,
    Pipeline,
    PipelineError,
    PipelineObserver,
    PipelineRegistry,
    get_pipeline,
    pipeline_names,
    register_pipeline,
    stage,
    standard_stages,
)
from repro.benchgen import build_benchmark
from repro.core import EngineConfig
from repro.flows import AbcFlowConfig, BdsFlowConfig
from repro.network import to_blif

GOLDEN = Path(__file__).with_name("golden_flows.json")
#: Registry circuits the equivalence suite pins.
EQUIVALENCE_CIRCUITS = ("alu2", "f51m", "vda")
BUILTIN_FLOWS = ("bds-maj", "bds-pga", "abc", "dc")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def flow_cell(flow: str, circuit: str) -> dict:
    """The deterministic observables of one flow run, as JSON values."""
    pipeline = get_pipeline(flow)
    config = pipeline.default_config()
    config.verify = False
    result = pipeline.run(build_benchmark(circuit), config)
    cell = {
        "node_counts": result.node_counts,
        "cache_stats": result.cache_stats,
        "table2_row": list(result.table2_row()),
        "cell_histogram": result.mapped.cell_histogram(),
        "optimized_blif_sha256": _sha256(to_blif(result.optimized)),
        "mapped_blif_sha256": _sha256(to_blif(result.mapped.network)),
    }
    return json.loads(render(cell))


def render(cells: dict) -> str:
    return json.dumps(cells, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestStageCompositionEquivalence:
    @pytest.mark.parametrize("flow", BUILTIN_FLOWS)
    @pytest.mark.parametrize("circuit", EQUIVALENCE_CIRCUITS)
    def test_pipeline_matches_prerefactor_flow(self, golden, flow, circuit):
        expected = golden[circuit][flow]
        actual = flow_cell(flow, circuit)
        for key in expected:
            assert actual[key] == expected[key], f"{circuit}/{flow}: {key} moved"
        assert actual == expected

    def test_golden_covers_every_cell_canonically(self, golden):
        assert render(golden) == GOLDEN.read_text()
        assert sorted(golden) == sorted(EQUIVALENCE_CIRCUITS)
        for circuit in EQUIVALENCE_CIRCUITS:
            assert sorted(golden[circuit]) == sorted(BUILTIN_FLOWS)

    def test_verification_still_runs_and_passes(self):
        result = get_pipeline("bds-maj").run(build_benchmark("alu2"))
        assert result.equivalence is not None and result.equivalence.equivalent

    def test_pga_pipeline_forces_majority_off_on_shared_config(self):
        """One config object through bds-maj, bds-pga, bds-maj: the flow
        name alone sets majority, and the caller's config is untouched."""
        network = build_benchmark("alu2")
        config = BdsFlowConfig(verify=False)
        before = repr(config)
        maj_counts = []
        for flow in ("bds-maj", "bds-pga", "bds-maj"):
            result = get_pipeline(flow).run(network, config)
            maj_counts.append(result.node_counts["maj"])
        assert maj_counts == [9, 0, 9]
        assert repr(config) == before
        assert config.engine.enable_majority is True

    def test_config_construction_leaves_engine_alone(self):
        engine = EngineConfig(enable_majority=False)
        first = BdsFlowConfig(engine=engine)
        BdsFlowConfig(engine=engine)
        assert engine.enable_majority is False
        assert first.engine is engine and first.engine.enable_majority is False


class TestPipelineExecution:
    def test_accepts_registry_key_string(self):
        result = get_pipeline("bds-maj").run("alu2", BdsFlowConfig(verify=False))
        assert result.benchmark == "alu2"

    def test_accepts_input_item(self):
        item = InputItem(name="alu2", kind="registry")
        result = get_pipeline("bds-maj").run(item, BdsFlowConfig(verify=False))
        assert result.benchmark == "alu2"

    def test_rejects_unknown_source_type(self):
        with pytest.raises(PipelineError, match="cannot run pipeline"):
            get_pipeline("bds-maj").run(42)

    def test_run_context_records_timings_and_events(self):
        network = build_benchmark("alu2")
        ctx = get_pipeline("bds-maj").run_context(network, BdsFlowConfig(verify=False))
        stage_names = [t.stage for t in ctx.timings]
        assert stage_names == [
            "load-input",
            "build-bdds",
            "reorder",
            "decompose",
            "rewrite",
            "map",
            "verify",
        ]
        assert all(t.seconds >= 0.0 for t in ctx.timings)
        # Events: one start + one end per stage, interleaved in order.
        kinds = [(e.kind, e.stage) for e in ctx.events]
        assert kinds[:2] == [
            ("stage_start", "load-input"),
            ("stage_end", "load-input"),
        ]
        assert len(ctx.events) == 2 * len(stage_names)
        # Only the optimization stages feed optimize_seconds.
        optimize_total = sum(
            t.seconds
            for t in ctx.timings
            if t.stage in ("build-bdds", "reorder", "decompose", "rewrite")
        )
        assert ctx.optimize_seconds == pytest.approx(optimize_total)

    def test_observer_hooks_fire_in_order(self):
        seen: list[tuple[str, str]] = []

        class Recorder(PipelineObserver):
            def on_stage_start(self, ctx, stage):
                seen.append(("start", stage.name))

            def on_stage_end(self, ctx, stage, seconds):
                assert seconds >= 0.0
                seen.append(("end", stage.name))

        pipeline = get_pipeline("bds-maj").optimize_prefix()
        pipeline.run_context(
            build_benchmark("alu2"),
            BdsFlowConfig(verify=False),
            observers=[Recorder()],
        )
        assert seen[0] == ("start", "load-input")
        assert seen[-1] == ("end", "rewrite")
        assert len(seen) == 2 * len(pipeline.stages)
        # Starts and ends interleave: every stage closes before the next opens.
        for i in range(0, len(seen), 2):
            assert seen[i][0] == "start" and seen[i + 1][0] == "end"
            assert seen[i][1] == seen[i + 1][1]

    def test_callback_hooks(self):
        started: list[str] = []

        class Starts(PipelineObserver):
            def on_stage_start(self, ctx, stage):
                started.append(stage.name)

        get_pipeline("abc").run(
            build_benchmark("alu2"), AbcFlowConfig(verify=False), observers=[Starts()]
        )
        assert started == ["load-input", "strash", "rewrite", "emit", "map", "verify"]


class TestComposition:
    def test_up_to_stops_before_mapping(self):
        pipeline = get_pipeline("bds-maj").up_to("rewrite")
        ctx = pipeline.run_context(build_benchmark("alu2"), BdsFlowConfig(verify=False))
        assert ctx.optimized is not None
        assert ctx.mapped is None
        with pytest.raises(PipelineError, match="did not run a map stage"):
            ctx.to_result()

    def test_unknown_stage_name_raises(self):
        with pytest.raises(PipelineError, match="no stage"):
            get_pipeline("bds-maj").up_to("fuse-layers")

    def test_replace_and_insert_return_new_pipelines(self):
        base = get_pipeline("bds-maj")
        marker = FunctionStage("noop", lambda ctx: ctx)
        inserted = base.insert_after("rewrite", marker)
        assert "noop" in inserted.stage_names()
        assert "noop" not in base.stage_names()
        swapped = base.replace("verify", marker)
        assert swapped.stage_names().count("noop") == 1

    def test_custom_stage_via_decorator_runs(self):
        @stage("count-outputs")
        def count_outputs(ctx):
            ctx.scratch["num_outputs"] = len(ctx.network.outputs)

        pipeline = get_pipeline("bds-maj").up_to("rewrite").insert_after(
            "load-input", count_outputs
        )
        ctx = pipeline.run_context(build_benchmark("alu2"), BdsFlowConfig(verify=False))
        assert ctx.scratch["num_outputs"] == len(build_benchmark("alu2").outputs)

    def test_duplicate_stage_names_rejected(self):
        noop = FunctionStage("noop", lambda ctx: ctx)
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline("bad", [noop, FunctionStage("noop", lambda ctx: ctx)])


class TestRegistry:
    def test_builtin_pipelines_in_paper_order(self):
        assert pipeline_names()[:4] == list(BUILTIN_FLOWS)

    def test_unknown_pipeline_raises(self):
        with pytest.raises(PipelineError, match="unknown pipeline"):
            get_pipeline("bds-2025")

    def test_custom_flow_is_a_one_liner(self):
        S = standard_stages
        name = "bds-maj-noreorder-test"
        pipeline = register_pipeline(
            Pipeline(
                name,
                [
                    S.LoadInput(),
                    S.BuildBdds(),
                    S.Decompose(),
                    S.RewriteTrees(),
                    S.MapNetwork(),
                    S.VerifyEquivalence(),
                ],
                default_config=lambda: BdsFlowConfig(reorder="none", verify=False),
            )
        )
        assert get_pipeline(name) is pipeline
        result = pipeline.run(build_benchmark("alu2"))
        assert result.flow == name
        assert result.total_nodes > 0

    def test_duplicate_registration_needs_replace(self):
        registry = PipelineRegistry()
        noop = FunctionStage("noop", lambda ctx: ctx)
        pipeline = Pipeline("p", [noop])
        registry.register(pipeline)
        with pytest.raises(PipelineError, match="already registered"):
            registry.register(Pipeline("p", [noop]))
        replacement = Pipeline("p", [noop])
        assert registry.register(replacement, replace=True) is replacement
        assert registry.get("p") is replacement
        assert "p" in registry and len(registry) == 1


if __name__ == "__main__":
    cells = {
        circuit: {flow: flow_cell(flow, circuit) for flow in BUILTIN_FLOWS}
        for circuit in EQUIVALENCE_CIRCUITS
    }
    GOLDEN.write_text(render(cells))
    print(f"wrote {GOLDEN}")
