"""Tests for the synthesis package: intents, reference semantics, and the
correctness of every emitter against the reference semantics.

The emitter tests are the heart of the reproduction's own verification: for
every benchmark query and every backend that supports it, the emitted code is
executed the same way the pipeline executes LLM output, and the outcome must
equal the golden (reference) outcome.
"""

import pytest

from repro.benchmark.evaluator import compare_values
from repro.benchmark.queries import malt_queries, traffic_queries
from repro.graph import graphs_equal
from repro.graph.convert import from_frames, from_networkx, from_sql_database
from repro.sandbox import ExecutionSandbox
from repro.synthesis import (
    CodeSynthesisEngine,
    Intent,
    IntentParseError,
    UnsupportedQueryError,
    parse_query,
)
from repro.synthesis.reference import evaluate_reference, supported_reference_intents
from repro.utils.validation import ValidationError

ENGINE = CodeSynthesisEngine()
ALL_QUERIES = traffic_queries() + malt_queries()


# ---------------------------------------------------------------------------
# intents
# ---------------------------------------------------------------------------
class TestIntentParsing:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.query_id)
    def test_parser_recovers_corpus_intent(self, query):
        assert parse_query(query.text) == query.intent

    def test_unknown_query_raises(self):
        with pytest.raises(IntentParseError):
            parse_query("Translate this network to French")

    def test_intent_param_access(self):
        intent = Intent.create("top_k_talkers", k=3)
        assert intent.param("k") == 3
        assert intent.param("missing", "default") == "default"
        assert intent.as_dict() == {"name": "top_k_talkers", "params": {"k": 3}}

    def test_intent_allows_name_parameter(self):
        intent = Intent.create("add_switch_to_least_loaded_chassis", name="sw", capacity=10)
        assert intent.name == "add_switch_to_least_loaded_chassis"
        assert intent.param("name") == "sw"

    def test_every_corpus_intent_has_reference(self):
        supported = set(supported_reference_intents())
        for query in ALL_QUERIES:
            assert query.intent.name in supported


# ---------------------------------------------------------------------------
# reference semantics sanity checks
# ---------------------------------------------------------------------------
class TestReferenceSemantics:
    def test_count_nodes(self, traffic_app):
        outcome = evaluate_reference(traffic_app.graph, Intent.create("count_nodes"))
        assert outcome.kind == "value"
        assert outcome.value == 40

    def test_label_nodes_does_not_mutate_input(self, traffic_app):
        graph = traffic_app.graph
        before = graph.copy()
        evaluate_reference(graph, Intent.create("label_nodes_by_prefix",
                                                prefix="15.76", key="app", value="production"))
        assert graphs_equal(graph, before)

    def test_label_nodes_only_touches_matching_prefix(self, traffic_app):
        outcome = evaluate_reference(traffic_app.graph, Intent.create(
            "label_nodes_by_prefix", prefix="15.76", key="app", value="production"))
        for node, attrs in outcome.graph.nodes(data=True):
            if attrs.get("address", "").startswith("15.76."):
                assert attrs["app"] == "production"
            else:
                assert "app" not in attrs

    def test_color_by_prefix_assigns_unique_color_per_prefix(self, traffic_app):
        outcome = evaluate_reference(traffic_app.graph, Intent.create("color_by_prefix16"))
        prefix_to_color = {}
        for _, attrs in outcome.graph.nodes(data=True):
            prefix = ".".join(attrs["address"].split(".")[:2])
            prefix_to_color.setdefault(prefix, set()).add(attrs["color"])
        assert all(len(colors) == 1 for colors in prefix_to_color.values())
        all_colors = [next(iter(colors)) for colors in prefix_to_color.values()]
        assert len(set(all_colors)) == len(prefix_to_color)

    def test_top_k_talkers_ordering(self, traffic_app):
        outcome = evaluate_reference(traffic_app.graph, Intent.create("top_k_talkers", k=3))
        graph = traffic_app.graph
        totals = {graph.node_attributes(n)["address"]: graph.out_degree(n, weight="bytes")
                  for n in graph.nodes()}
        values = [totals[address] for address in outcome.value]
        assert values == sorted(values, reverse=True)
        assert len(outcome.value) == 3

    def test_cluster_groups_within_range(self, traffic_app):
        outcome = evaluate_reference(traffic_app.graph,
                                     Intent.create("cluster_nodes_by_total_bytes", clusters=5))
        assert set(outcome.value.values()) <= set(range(5))
        assert len(outcome.value) == 40

    def test_remove_switch_rebalance_preserves_chassis_capacity(self, malt_app):
        graph = malt_app.graph
        chassis = "ju1.a1.m1.c1"
        before = graph.node_attributes(chassis)["capacity"]
        outcome = evaluate_reference(graph, Intent.create(
            "remove_switch_and_rebalance", switch="ju1.a1.m1.s1c1"))
        updated = outcome.graph
        assert not updated.has_node("ju1.a1.m1.s1c1")
        switches = [child for child in updated.successors(chassis)
                    if updated.node_attributes(child).get("type") == "EK_PACKET_SWITCH"]
        total = sum(updated.node_attributes(s)["capacity"] for s in switches)
        assert total == pytest.approx(before)

    def test_add_switch_targets_least_loaded_chassis(self, malt_app):
        graph = malt_app.graph
        least = min(
            (node for node, attrs in graph.nodes(data=True) if attrs.get("type") == "EK_CHASSIS"),
            key=lambda node: (graph.node_attributes(node)["capacity"], node))
        outcome = evaluate_reference(graph, Intent.create(
            "add_switch_to_least_loaded_chassis", name="new-switch-1", capacity=100))
        updated = outcome.graph
        assert updated.has_edge(least, "new-switch-1")
        assert updated.node_attributes(least)["capacity"] == \
            graph.node_attributes(least)["capacity"] + 100

    def test_unknown_intent_rejected(self, traffic_app):
        with pytest.raises(ValidationError):
            evaluate_reference(traffic_app.graph, Intent.create("no_such_intent"))


# ---------------------------------------------------------------------------
# emitter correctness: emitted code must reproduce the reference outcome
# ---------------------------------------------------------------------------
def _application_for(query, traffic_app, malt_app):
    return traffic_app if query.application == "traffic_analysis" else malt_app


def _run_backend(application, query, backend):
    """Execute the emitted code the way the pipeline would, returning
    (result_value, updated_graph)."""
    program = ENGINE.generate(query.intent, backend)
    sandbox = ExecutionSandbox()
    if backend == "networkx":
        namespace = {"G": application.networkx_view()}
        outcome = sandbox.execute(program.code, namespace)
        assert outcome.success, f"{query.query_id}/{backend}: {outcome.describe_error()}"
        return outcome.result, from_networkx(outcome.namespace["G"])
    if backend == "pandas":
        nodes_df, edges_df = application.frame_view()
        namespace = {"nodes_df": nodes_df, "edges_df": edges_df}
        outcome = sandbox.execute(program.code, namespace)
        assert outcome.success, f"{query.query_id}/{backend}: {outcome.describe_error()}"
        return outcome.result, from_frames(outcome.namespace["nodes_df"],
                                           outcome.namespace["edges_df"])
    database = application.sql_view()
    last = None
    for statement in [s.strip() for s in program.code.split(";") if s.strip()]:
        returned = database.execute(statement)
        if returned is not None:
            last = returned
    return last, from_sql_database(database)


def _emitter_cases():
    cases = []
    for query in ALL_QUERIES:
        for backend in ("networkx", "pandas", "sql"):
            if ENGINE.supports(query.intent, backend):
                cases.append(pytest.param(query, backend, id=f"{query.query_id}-{backend}"))
    return cases


class TestEmitterCorrectness:
    @pytest.mark.parametrize("query,backend", _emitter_cases())
    def test_emitted_code_matches_reference(self, query, backend, traffic_app, malt_app):
        application = _application_for(query, traffic_app, malt_app)
        golden = evaluate_reference(application.graph, query.intent)
        result_value, updated_graph = _run_backend(application, query, backend)
        if golden.kind in ("value", "both"):
            assert compare_values(golden.value, result_value), (
                f"{query.query_id}/{backend}: value mismatch\n"
                f"expected={golden.value!r}\nactual={result_value!r}")
        expected_graph = golden.graph if golden.kind in ("graph", "both") else application.graph
        assert graphs_equal(expected_graph, updated_graph), \
            f"{query.query_id}/{backend}: resulting graph differs from the golden graph"

    def test_networkx_supports_every_passing_query(self):
        # every query that any calibrated model can pass with NetworkX must be
        # expressible by the NetworkX emitter (GPT-4 passes ranks 0-4 of the
        # hard bucket, all easy and medium)
        for query in ALL_QUERIES:
            if query.complexity == "hard" and query.difficulty_rank >= 5:
                continue
            assert ENGINE.supports(query.intent, "networkx"), query.query_id

    def test_unsupported_intent_raises(self):
        with pytest.raises(UnsupportedQueryError):
            ENGINE.generate(Intent.create("merge_nodes_by_prefix24"), "sql")
        with pytest.raises(UnsupportedQueryError):
            ENGINE.generate("Translate this network to French", "networkx")

    def test_generated_sql_program_language(self):
        program = ENGINE.generate(Intent.create("count_nodes"), "sql")
        assert program.language == "sql"


class TestStrawmanAnswers:
    def test_direct_answer_value(self, traffic_app):
        import json

        answer = ENGINE.answer_directly("How many nodes are in the communication graph?",
                                        traffic_app.graph)
        payload = json.loads(answer)
        assert payload["kind"] == "value"
        assert payload["value"] == 40

    def test_direct_answer_graph(self, traffic_app):
        import json

        answer = ENGINE.answer_directly(
            "Add a label app:production to nodes with address prefix 15.76",
            traffic_app.graph)
        payload = json.loads(answer)
        assert payload["kind"] == "graph"
        assert "nodes" in payload["graph"]

    def test_unparseable_query_rejected(self, traffic_app):
        with pytest.raises(UnsupportedQueryError):
            ENGINE.answer_directly("Translate this network to French", traffic_app.graph)
