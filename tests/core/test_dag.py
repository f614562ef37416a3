"""Unit tests for the shared operator-DAG machinery."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import OperatorGraph, OperatorNode
from repro.errors import PlanError, ValidationError


class Src(OperatorNode):
    num_inputs = 0


class Unary(OperatorNode):
    num_inputs = 1


class Binary(OperatorNode):
    num_inputs = 2


def chain(*nodes):
    graph = OperatorGraph()
    previous = None
    for node in nodes:
        graph.add(node, [previous] if previous is not None else [])
        previous = node
    return graph


class TestConstruction:
    def test_add_and_inputs(self):
        src, op = Src(), Unary()
        graph = chain(src, op)
        assert graph.inputs_of(op) == (src,)
        assert graph.consumers_of(src) == (op,)

    def test_add_wrong_arity(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        with pytest.raises(PlanError, match="expects 2"):
            graph.add(Binary(), [src])

    def test_add_twice_rejected(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        with pytest.raises(PlanError, match="already added"):
            graph.add(src)

    def test_foreign_input_rejected(self):
        graph = OperatorGraph()
        with pytest.raises(PlanError, match="not part of this plan"):
            graph.add(Unary(), [Src()])

    def test_duplicate_producer_slots_allowed(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        cross = graph.add(Binary(), [src, src])
        assert graph.inputs_of(cross) == (src, src)
        assert graph.topological_order() == [src, cross]

    def test_sources_and_sinks(self):
        src, mid, sink = Src(), Unary(), Unary()
        graph = chain(src, mid, sink)
        assert graph.sources == (src,)
        assert graph.sinks == (sink,)


class TestTraversal:
    def test_topological_order_diamond(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        left = graph.add(Unary(), [src])
        right = graph.add(Unary(), [src])
        join = graph.add(Binary(), [left, right])
        order = graph.topological_order()
        assert order.index(src) < order.index(left) < order.index(join)
        assert order.index(src) < order.index(right) < order.index(join)

    def test_cycle_detected_after_surgery(self):
        src, a, b = Src(), Unary(), Unary()
        graph = chain(src, a, b)
        graph.replace_input(a, src, b)  # creates a <-> b cycle
        with pytest.raises(PlanError, match="cycle"):
            graph.topological_order()


class TestValidation:
    def test_empty_plan_invalid(self):
        with pytest.raises(ValidationError, match="empty"):
            OperatorGraph().validate()

    def test_valid_chain(self):
        chain(Src(), Unary()).validate()

    def test_no_source_invalid(self):
        graph = OperatorGraph()
        src, op = Src(), Unary()
        graph.add(src)
        graph.add(op, [src])
        graph._operators.remove(src)  # simulate corruption
        del graph._inputs[src.id]
        with pytest.raises(ValidationError):
            graph.validate()


class TestSurgery:
    def test_replace_input(self):
        graph = OperatorGraph()
        a, b = graph.add(Src()), graph.add(Src())
        op = graph.add(Unary(), [a])
        graph.replace_input(op, a, b)
        assert graph.inputs_of(op) == (b,)

    def test_replace_input_missing(self):
        graph = OperatorGraph()
        a, b = graph.add(Src()), graph.add(Src())
        op = graph.add(Unary(), [a])
        with pytest.raises(PlanError):
            graph.replace_input(op, b, a)

    def test_insert_between(self):
        src, sink = Src(), Unary()
        graph = chain(src, sink)
        mid = Unary()
        graph.insert_between(src, sink, mid)
        assert graph.inputs_of(sink) == (mid,)
        assert graph.inputs_of(mid) == (src,)

    def test_remove_unary_splices(self):
        src, mid, sink = Src(), Unary(), Unary()
        graph = chain(src, mid, sink)
        graph.remove_unary(mid)
        assert graph.inputs_of(sink) == (src,)
        assert mid not in graph

    def test_remove_unary_rejects_sources(self):
        graph = OperatorGraph()
        src = graph.add(Src())
        with pytest.raises(PlanError):
            graph.remove_unary(src)

    def test_relabel_transfers_wiring(self):
        src, old, sink = Src(), Unary(), Unary()
        graph = chain(src, old, sink)
        new = Unary()
        graph.relabel([(sink, sink), (old, new), (src, src)])
        assert graph.inputs_of(new) == (src,)
        assert graph.inputs_of(sink) == (new,)
        assert old not in graph
        assert graph.operators == (sink, new, src)
        assert graph.topological_order() == [src, new, sink]

    def test_relabel_arity_mismatch(self):
        src, old = Src(), Unary()
        graph = chain(src, old)
        with pytest.raises(PlanError, match="arity"):
            graph.relabel([(src, src), (old, Binary())])

    def test_relabel_must_cover_the_graph(self):
        src, old = Src(), Unary()
        graph = chain(src, old)
        with pytest.raises(PlanError, match="every operator"):
            graph.relabel([(old, Unary())])
        with pytest.raises(PlanError, match="share"):
            twin = Unary()
            twin.id = src.id
            graph.relabel([(src, src), (old, twin)])
        assert graph.inputs_of(old) == (src,)

    def test_relabel_keeps_a_variant_on_its_operators_id(self):
        src, old, sink = Src(), Unary(), Unary()
        graph = chain(src, old, sink)
        consumers = graph.consumers_of(src)  # build the cached views
        new = Unary()
        new.id = old.id
        graph.relabel([(src, src), (old, new), (sink, sink)])
        assert consumers == (old,)
        assert graph.consumers_of(src) == (new,)
        assert graph.inputs_of(sink) == (new,)

    def test_absorb_merges_disjoint_graphs(self):
        g1 = chain(Src(), Unary())
        src2 = Src()
        g2 = chain(src2)
        g1.absorb(g2)
        assert src2 in g1
        assert len(g1) == 3

    def test_absorb_rejects_overlap(self):
        src = Src()
        g1 = chain(src)
        g2 = OperatorGraph()
        g2._operators.append(src)
        g2._inputs[src.id] = []
        with pytest.raises(PlanError, match="both graphs"):
            g1.absorb(g2)

    def test_subgraph_keeps_internal_edges_only(self):
        src, a, b = Src(), Unary(), Unary()
        graph = chain(src, a, b)
        sub = graph.subgraph([a, b])
        assert sub.inputs_of(a) == ()  # external producer dropped
        assert sub.inputs_of(b) == (a,)


def test_explain_lists_all_operators():
    src, op = Src(), Unary()
    graph = chain(src, op)
    text = graph.explain()
    assert f"#{src.id}" in text and f"#{op.id}" in text


# ----------------------------------------------------------------------
# cached views against the quadratic reference
# ----------------------------------------------------------------------
def reference_consumers(graph, operator):
    """Every operator reading ``operator``, by a scan of the whole graph."""
    return tuple(op for op in graph.operators if operator in graph.inputs_of(op))


def reference_order(graph):
    """FIFO topological order, rescanning every operator per pop."""
    operators = graph.operators
    in_degree = {op.id: len(graph.inputs_of(op)) for op in operators}
    ready = [op for op in operators if in_degree[op.id] == 0]
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for consumer in operators:
            slots = graph.inputs_of(consumer)
            if current in slots:
                in_degree[consumer.id] -= slots.count(current)
                if in_degree[consumer.id] == 0:
                    ready.append(consumer)
    if len(order) != len(operators):
        raise PlanError("plan wiring contains a cycle")
    return order


def assert_views_match_reference(graph):
    assert graph.topological_order() == reference_order(graph)
    for op in graph.operators:
        assert graph.consumers_of(op) == reference_consumers(graph, op)


def descendants(graph, start):
    """Ids of ``start`` and every operator downstream of it."""
    seen = set()
    stack = [start]
    while stack:
        current = stack.pop()
        if current.id not in seen:
            seen.add(current.id)
            stack.extend(graph.consumers_of(current))
    return seen


def add_random(graph, data):
    ops = list(graph.operators)
    kind = data.draw(st.sampled_from([Src, Unary, Binary])) if ops else Src
    node = kind()
    if kind is Binary and data.draw(st.booleans()):
        producer = data.draw(st.sampled_from(ops))
        inputs = [producer, producer]  # one producer fed twice
    else:
        inputs = [data.draw(st.sampled_from(ops)) for _ in range(kind.num_inputs)]
    graph.add(node, inputs)


def random_graph(data, max_size):
    graph = OperatorGraph()
    for _ in range(data.draw(st.integers(1, max_size))):
        add_random(graph, data)
    return graph


def edges(graph):
    return [
        (producer, consumer)
        for consumer in graph.operators
        for producer in graph.inputs_of(consumer)
    ]


def surgery_insert_between(graph, data):
    wiring = edges(graph)
    if wiring:
        producer, consumer = data.draw(st.sampled_from(wiring))
        graph.insert_between(producer, consumer, Unary())


def surgery_remove_unary(graph, data):
    unary = [op for op in graph.operators if op.num_inputs == 1]
    if unary:
        graph.remove_unary(data.draw(st.sampled_from(unary)))


def surgery_relabel(graph, data):
    ops = graph.operators
    fresh = data.draw(st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)))
    order = data.draw(st.permutations(range(len(ops))))
    graph.relabel(
        [(ops[i], type(ops[i])() if fresh[i] else ops[i]) for i in order]
    )


def surgery_replace_input(graph, data):
    wiring = edges(graph)
    if not wiring:
        return
    old, consumer = data.draw(st.sampled_from(wiring))
    below = descendants(graph, consumer)
    allowed = [op for op in graph.operators if op.id not in below]
    graph.replace_input(consumer, old, data.draw(st.sampled_from(allowed)))


def surgery_absorb(graph, data):
    graph.absorb(random_graph(data, 4))


def surgery_remove_isolated(graph, data):
    isolated = [
        op for op in graph.sources if not reference_consumers(graph, op)
    ]
    if isolated and len(graph) > 1:
        graph.remove_isolated(data.draw(st.sampled_from(isolated)))
    else:
        graph.add(Src())


def surgery_contract_chains(graph, data):
    members = [data.draw(st.sampled_from(graph.operators))]
    while len(members) < 4:
        consumers = reference_consumers(graph, members[-1])
        if len(consumers) != 1 or consumers[0].num_inputs != 1:
            break
        members.append(consumers[0])
    if len(members) > 1:
        graph.contract_chains([(members, type(members[0])())])


SURGERIES = [
    add_random,
    surgery_insert_between,
    surgery_remove_unary,
    surgery_relabel,
    surgery_replace_input,
    surgery_absorb,
    surgery_remove_isolated,
    surgery_contract_chains,
]


class TestCachedViews:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_views_match_reference_after_every_surgery(self, data):
        graph = random_graph(data, 8)
        assert_views_match_reference(graph)
        for surgery in data.draw(st.lists(st.sampled_from(SURGERIES), max_size=12)):
            surgery(graph, data)
            assert_views_match_reference(graph)

    def test_order_is_a_fresh_list(self):
        src, op = Src(), Unary()
        graph = chain(src, op)
        graph.topological_order().reverse()
        assert graph.topological_order() == [src, op]

    def test_long_chain_is_linear(self):
        nodes = [Src()] + [Unary() for _ in range(19_999)]
        graph = chain(*nodes)
        started = time.perf_counter()
        assert graph.topological_order() == nodes
        for node in nodes:
            graph.consumers_of(node)
        assert time.perf_counter() - started < 2.0

    def test_threads_racing_the_first_build_agree(self):
        # A cached execution plan is replayed for several tenants at once,
        # so threads race the first build of one graph's views.
        nodes = [Src()] + [Unary() for _ in range(1_999)]
        graph = chain(*nodes)
        graph.add(Binary(), [nodes[500], nodes[500]])
        expected = reference_order(graph)
        threads_n = 16
        barrier = threading.Barrier(threads_n, timeout=30)
        seen = []

        def race(index):
            barrier.wait()
            for _ in range(20):
                if index % 2:  # half the threads start from the index
                    consumers = [graph.consumers_of(op) for op in nodes]
                    order = graph.topological_order()
                else:
                    order = graph.topological_order()
                    consumers = [graph.consumers_of(op) for op in nodes]
                seen.append((order, consumers))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=race, args=(index,), daemon=True)
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == threads_n * 20
        expected_consumers = [reference_consumers(graph, op) for op in nodes]
        for order, consumers in seen:
            assert order == expected
            assert consumers == expected_consumers
