"""Tests for narrow-chain fusion (the platform-layer optimization)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RheemContext
from repro.core.dag import OperatorGraph
from repro.core.execution.plan import TaskAtom
from repro.core.physical.fusion import (
    FUSABLE_KINDS,
    FUSABLE_SOURCE_KINDS,
    PFusedPipeline,
    compose_stages,
    fuse_narrow_chains,
)
from repro.core.logical.operators import (
    CollectionSource,
    Distinct,
    Filter,
    FlatMap,
    Map,
    TextFileSource,
    Union,
)
from repro.core.physical.operators import (
    PCollectionSource,
    PFilter,
    PFlatMap,
    PHashDistinct,
    PMap,
    PTextFileSource,
    PUnion,
)
from repro.platforms import JavaPlatform, SparkPlatform


def build_atom(ctx, handle, platform_name="java"):
    from repro.core.logical.operators import CollectSink

    # mirror collect(): a sink terminates the plan, so the chain's tail is
    # not itself an externally visible output
    handle.plan.add(CollectSink(), [handle.operator])
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical, forced_platform=platform_name)
    return execution


class TestComposeStages:
    def test_map_filter_flatmap_order(self):
        stages = [
            PMap(Map(lambda x: x + 1)),
            PFilter(Filter(lambda x: x % 2 == 0)),
            PFlatMap(FlatMap(lambda x: [x, x])),
        ]
        run = compose_stages(stages)
        assert run([1, 2, 3]) == [2, 2, 4, 4]

    def test_empty_input(self):
        run = compose_stages([PMap(Map(lambda x: x))])
        assert run([]) == []


class TestPFusedPipeline:
    def test_hints_sum_udf_load(self):
        from repro.core.logical.operators import CostHints

        pipeline = PFusedPipeline(
            [
                PMap(Map(lambda x: x, hints=CostHints(udf_load=3.0))),
                PMap(Map(lambda x: x, hints=CostHints(udf_load=4.0))),
            ]
        )
        assert pipeline.hints.udf_load == 7.0

    def test_describe_lists_kinds(self):
        pipeline = PFusedPipeline([PMap(Map(lambda x: x))])
        assert "map" in pipeline.describe()


class TestFusionRewrite:
    def test_chain_fused_into_single_operator(self):
        ctx = RheemContext(platforms=[JavaPlatform()])
        handle = (
            ctx.collection(range(10))
            .map(lambda x: x + 1)
            .filter(lambda x: x > 3)
            .map(lambda x: x * 2)
        )
        execution = build_atom(ctx, handle)
        kinds = [
            op.kind for atom in execution.atoms for op in atom.fragment
        ]
        assert kinds.count("fused.narrow") == 1
        assert "map" not in kinds and "filter" not in kinds

    def test_results_unchanged_by_fusion(self):
        data = list(range(50))
        fused_ctx = RheemContext(platforms=[JavaPlatform(fuse_narrow=True)])
        plain_ctx = RheemContext(platforms=[JavaPlatform(fuse_narrow=False)])

        def run(ctx):
            return (
                ctx.collection(data)
                .map(lambda x: x * 3)
                .filter(lambda x: x % 2 == 0)
                .flat_map(lambda x: [x, -x])
                .collect()
            )

        assert run(fused_ctx) == run(plain_ctx)

    def test_fusion_reduces_virtual_overhead_on_spark(self):
        data = list(range(1000))

        def run(fuse):
            ctx = RheemContext(platforms=[SparkPlatform(fuse_narrow=fuse)])
            handle = ctx.collection(data)
            for _ in range(6):
                handle = handle.map(lambda x: x + 1)
            return handle.collect_with_metrics()

        out_fused, fused = run(True)
        out_plain, plain = run(False)
        assert out_fused == out_plain
        assert fused.virtual_ms < plain.virtual_ms

    def test_shared_intermediate_not_fused(self):
        """A narrow op feeding two consumers must keep its own result."""
        ctx = RheemContext(platforms=[JavaPlatform()])
        base = ctx.collection(range(10)).map(lambda x: x + 1)
        left = base.map(lambda x: x * 2)
        result = left.union(base.map(lambda x: -x))
        assert sorted(result.collect()) == sorted(
            [(x + 1) * 2 for x in range(10)] + [-(x + 1) for x in range(10)]
        )

    def test_externally_consumed_output_not_fused(self):
        """Operators whose output crosses the atom boundary keep their
        identity (fusion would destroy the channel)."""
        ctx = RheemContext(platforms=[JavaPlatform(), SparkPlatform()])
        out = (
            ctx.collection(range(20))
            .map(lambda x: x + 1)
            .map(lambda x: x * 2)
            .collect()
        )
        assert out == [(x + 1) * 2 for x in range(20)]

    def test_fusion_inside_loop_bodies(self):
        ctx = RheemContext(platforms=[JavaPlatform()])
        out = (
            ctx.collection([1])
            .repeat(
                3,
                lambda dq: dq.map(lambda x: x + 1).map(lambda x: x * 2),
            )
            .collect()
        )
        # per iteration: (x+1)*2
        assert out == [22]  # 1 -> 4 -> 10 -> 22


def test_fuse_narrow_chains_counts_rewrites():
    from repro.core.logical.operators import CollectSink

    ctx = RheemContext(platforms=[JavaPlatform(fuse_narrow=False)])
    handle = (
        ctx.collection(range(5))
        .map(lambda x: x)
        .map(lambda x: x)
        .map(lambda x: x)
    )
    handle.plan.add(CollectSink(), [handle.operator])
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
    (atom,) = execution.atoms
    assert fuse_narrow_chains(atom) == 2


def test_externally_visible_operators_never_fused():
    """Without a sink, the chain tail is the plan output and must keep
    its identity (channels are keyed by operator id)."""
    ctx = RheemContext(platforms=[JavaPlatform()])
    handle = ctx.collection(range(5)).map(lambda x: x).map(lambda x: x)
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
    (atom,) = execution.atoms
    tail_ids = {op.id for op in atom.fragment}
    assert atom.output_ids <= tail_ids


# ----------------------------------------------------------------------
# the one-pass rewrite against a pairwise reference
# ----------------------------------------------------------------------
def pairwise_fuse(atom, fuse_sources=False):
    """Reference: fuse one producer/consumer pair at a time, rescanning
    the fragment after each, until no pair qualifies."""
    fusable = FUSABLE_KINDS | {"fused.narrow"}
    fused = 0
    graph = atom.fragment
    changed = True
    while changed:
        changed = False
        for consumer in graph.operators:
            if consumer.kind not in fusable:
                continue
            producers = graph.inputs_of(consumer)
            if len(producers) != 1:
                continue
            (producer,) = producers
            if producer.kind not in fusable and not (
                fuse_sources and producer.kind in FUSABLE_SOURCE_KINDS
            ):
                continue
            if producer.id in atom.output_ids or consumer.id in atom.output_ids:
                continue
            if len(graph.consumers_of(producer)) != 1:
                continue
            pipeline = PFusedPipeline(
                (producer.stages if isinstance(producer, PFusedPipeline)
                 else [producer])
                + (consumer.stages if isinstance(consumer, PFusedPipeline)
                   else [consumer])
            )
            graph.replace_node(producer, pipeline)
            graph.remove_unary(consumer)
            for old in (producer, consumer):
                for (op_id, slot), source in list(atom.external_inputs.items()):
                    if op_id == old.id:
                        del atom.external_inputs[(op_id, slot)]
                        atom.external_inputs[(pipeline.id, slot)] = source
                if old.id in atom.output_ids:
                    atom.output_ids.discard(old.id)
                    atom.output_ids.add(pipeline.id)
            fused += 1
            changed = True
            break
    return fused


_MAKERS = {
    "map": lambda: PMap(Map(lambda x: x)),
    "filter": lambda: PFilter(Filter(lambda x: True)),
    "flatmap": lambda: PFlatMap(FlatMap(lambda x: [x])),
    "textfile": lambda: PTextFileSource(TextFileSource("unused.txt")),
    "collection": lambda: PCollectionSource(CollectionSource([])),
    "distinct": lambda: PHashDistinct(Distinct()),
    "union": lambda: PUnion(Union()),
}
_ARITY = {"textfile": 0, "collection": 0, "union": 2}


@st.composite
def fragments(draw):
    """Random atom fragments: chains with branches, multi-consumer
    producers, outputs mid-chain, channel-fed operators (input index -1)
    and text-file heads, in a random insertion order."""
    kinds = st.sampled_from(
        ["map", "filter", "flatmap"] * 3
        + ["textfile", "collection", "distinct", "union"]
    )
    nodes = []
    for index in range(draw(st.integers(1, 24))):
        kind = draw(kinds)
        earlier = st.integers(-1, index - 1)
        if index:
            earlier = st.one_of(st.just(index - 1), earlier)
        inputs = tuple(draw(earlier) for _ in range(_ARITY.get(kind, 1)))
        is_output = draw(st.integers(0, 9)) == 0
        nodes.append((kind, inputs, is_output))
    order = draw(st.permutations(range(len(nodes))))
    return nodes, order, draw(st.booleans())


def atom_pair(nodes, order):
    """Two identical atoms over the same operator objects."""
    upstream = PCollectionSource(CollectionSource([]))
    plan = OperatorGraph()
    plan.add(upstream)
    ops = []
    for kind, inputs, _ in nodes:
        op = _MAKERS[kind]()
        plan.add(op, [upstream if j < 0 else ops[j] for j in inputs])
        ops.append(op)
    outputs = {op.id for op, (_, _, out) in zip(ops, nodes) if out}

    def atom():
        fragment = plan.subgraph(ops)
        # Insertion order need not be topological: rewrites such as
        # ``insert_between`` append the operator they insert.
        fragment._operators = [fragment._operators[k] for k in order]
        external = {
            (op.id, slot): upstream.id
            for op in fragment
            for slot, producer in enumerate(plan.inputs_of(op))
            if producer is upstream
        }
        return TaskAtom(None, fragment, external, set(outputs))

    return atom(), atom()


def shape(atom):
    """Everything fusion decides, with pipelines named by their stages."""
    def token(op):
        if isinstance(op, PFusedPipeline):
            return ("fused", tuple(stage.id for stage in op.stages))
        return op.id

    graph = atom.fragment
    by_id = {op.id: op for op in graph}
    return {
        "topological": [token(op) for op in graph.topological_order()],
        "kinds": [op.kind for op in graph.topological_order()],
        "insertion": [token(op) for op in graph],
        "wiring": [
            (token(op), [token(p) for p in graph.inputs_of(op)])
            for op in graph
        ],
        "external_inputs": [
            (token(by_id[op_id]), slot, producer)
            for (op_id, slot), producer in atom.external_inputs.items()
        ],
        "output_ids": sorted(atom.output_ids),
    }


#: two channel-fed chains into a union; the first chain's head is
#: inserted first but its tail last, so the reference re-keys the second
#: chain's channel entry first
_SWAPPED_CHANNELS = (
    [
        ("map", (-1,), False), ("filter", (0,), False),
        ("map", (-1,), False), ("flatmap", (2,), False),
        ("union", (1, 3), True),
    ],
    [0, 2, 3, 1, 4],
    False,
)


class TestAgainstPairwiseReference:
    @settings(max_examples=300, deadline=None)
    @given(fragments())
    @example(_SWAPPED_CHANNELS)
    def test_same_pipelines_wiring_and_bookkeeping(self, spec):
        nodes, order, fuse_sources = spec
        reference, candidate = atom_pair(nodes, order)
        expected = pairwise_fuse(reference, fuse_sources)
        assert fuse_narrow_chains(candidate, fuse_sources) == expected
        assert shape(candidate) == shape(reference)
        candidate.fragment.topological_order()  # still acyclic


def test_long_chain_builds_one_pipeline(monkeypatch):
    """Fusion is linear: a 400-operator chain becomes one pipeline built
    once, not one pipeline per fused pair."""
    upstream = PCollectionSource(CollectionSource([]))
    ops = [PMap(Map(lambda x: x + 1)) for _ in range(400)]
    sink = PHashDistinct(Distinct())
    plan = OperatorGraph()
    producer = plan.add(upstream)
    for op in ops + [sink]:
        producer = plan.add(op, [producer])
    atom = TaskAtom(
        None, plan.subgraph(ops + [sink]), {(ops[0].id, 0): upstream.id},
        {sink.id},
    )
    built = []
    original = PFusedPipeline.__init__

    def counting(self, stages):
        built.append(len(stages))
        original(self, stages)

    monkeypatch.setattr(PFusedPipeline, "__init__", counting)
    assert fuse_narrow_chains(atom) == 399
    assert built == [400]
    (pipeline, tail) = atom.fragment.topological_order()
    assert pipeline.stages == ops and tail is sink
    assert atom.external_inputs == {(pipeline.id, 0): upstream.id}


def test_java_atom_fed_by_another_atoms_channel():
    """A java atom whose chain starts at a channel from a spark atom fuses
    the chain into one pipeline that takes over the channel, and returns
    what the unfused plan does."""
    from repro.core.logical.operators import CollectSink
    from repro.core.optimizer.enumerator import Choice
    from repro.core.runtime import RuntimeContext

    def run(fuse):
        java = JavaPlatform(fuse_narrow=fuse)
        spark = SparkPlatform(fuse_narrow=False)
        ctx = RheemContext(platforms=[java, spark])
        handle = (
            ctx.collection(range(40))
            .map(lambda x: x * 3)
            .filter(lambda x: x % 2 == 0)
            .flat_map(lambda x: [x, -x])
            .map(lambda x: x + 100)
        )
        handle.plan.add(CollectSink(), [handle.operator])
        physical = ctx.app_optimizer.optimize(handle.plan)
        optimizer = ctx.task_optimizer
        assignment = {
            op.id: Choice(op, spark if op.is_source else java)
            for op in physical.graph
        }
        execution = optimizer._cut_atoms(
            physical, assignment, optimizer.estimator.estimate_plan(physical)
        )
        spark_atom, java_atom = execution.atoms
        assert spark_atom.platform is spark and java_atom.platform is java
        result = ctx.executor.execute(execution, RuntimeContext())
        return java_atom, result.single

    fused_atom, fused_out = run(True)
    plain_atom, plain_out = run(False)
    assert fused_out == plain_out
    assert [op.kind for op in plain_atom.fragment.topological_order()] == [
        "map", "filter", "flatmap", "map", "sink.collect"
    ]
    head, sink = fused_atom.fragment.topological_order()
    assert head.shape == "map+filter+flatmap+map"
    assert list(fused_atom.external_inputs) == [(head.id, 0)]
