"""Tests for the core framework: code extraction, prompt generation, pipeline."""

import pytest

from repro.core import (
    ApplicationPromptGenerator,
    CodeGenPromptGenerator,
    NetworkManagementPipeline,
    QueryRequest,
    extract_code_blocks,
    extract_python_code,
    extract_sql_code,
)
from repro.core.codeblocks import looks_like_python
from repro.core.prompts import build_prompt
from repro.llm import create_provider
from repro.llm.base import LlmProvider
from repro.utils.validation import ValidationError


class TestCodeBlocks:
    def test_extract_tagged_python_block(self):
        text = "Here you go:\n```python\nresult = 1\n```\nthanks"
        assert extract_python_code(text) == "result = 1"

    def test_extract_untagged_block(self):
        text = "```\nresult = 2\n```"
        assert extract_python_code(text) == "result = 2"

    def test_multiple_blocks_joined(self):
        text = "```python\na = 1\n```\nand\n```python\nresult = a\n```"
        assert "a = 1" in extract_python_code(text)
        assert "result = a" in extract_python_code(text)

    def test_bare_python_accepted(self):
        assert extract_python_code("result = 40 + 2") == "result = 40 + 2"

    def test_prose_rejected(self):
        assert extract_python_code("I am sorry, I cannot do that.") == ""

    def test_extract_sql(self):
        assert extract_sql_code("```sql\nSELECT 1\n```") == "SELECT 1"
        assert extract_sql_code("SELECT id FROM nodes") == "SELECT id FROM nodes"
        assert extract_sql_code("no sql here") == ""

    def test_extract_code_blocks_language_filter(self):
        text = "```sql\nSELECT 1\n```\n```python\nx=1\n```"
        assert extract_code_blocks(text, language="sql") == ["SELECT 1"]
        assert len(extract_code_blocks(text)) == 2

    def test_syntax_helpers(self):
        assert looks_like_python("x = 1")
        assert not looks_like_python("def broken(:")


class TestPromptGeneration:
    def test_application_context_included(self, traffic_app):
        generator = ApplicationPromptGenerator(traffic_app)
        rendered = generator.render_context("How many nodes are there?")
        assert "Network traffic analysis" in rendered
        assert "How many nodes are there?" in rendered

    def test_backend_instructions_differ(self):
        networkx_prompt = CodeGenPromptGenerator("networkx").render_instructions()
        sql_prompt = CodeGenPromptGenerator("sql").render_instructions()
        assert "networkx" in networkx_prompt
        assert "SQL" in sql_prompt
        with pytest.raises(ValidationError):
            CodeGenPromptGenerator("prolog")

    def test_codegen_prompt_excludes_network_data(self, traffic_app):
        bundle = build_prompt(traffic_app, "How many nodes?", "networkx")
        # the privacy argument: no node addresses appear in the prompt
        for _, attrs in traffic_app.graph.nodes(data=True):
            assert attrs["address"] not in bundle.text

    def test_strawman_prompt_embeds_network_data(self, traffic_app):
        bundle = build_prompt(traffic_app, "How many nodes?", "strawman")
        assert "Network data (JSON)" in bundle.text
        some_address = next(iter(traffic_app.graph.nodes(data=True)))[1]["address"]
        assert some_address in bundle.text

    def test_strawman_prompt_is_much_larger(self, traffic_app):
        codegen = build_prompt(traffic_app, "q", "networkx")
        strawman = build_prompt(traffic_app, "q", "strawman")
        assert len(strawman.text) > 3 * len(codegen.text)

    def test_metadata_propagated(self, traffic_app):
        bundle = build_prompt(traffic_app, "q", "sql", extra_metadata={"query_id": "x"})
        assert bundle.metadata["query_id"] == "x"
        assert bundle.metadata["backend"] == "sql"

    def test_few_shot_block(self):
        generator = CodeGenPromptGenerator("networkx")
        block = generator.few_shot_block([{"query": "count nodes", "code": "result = 1"}])
        assert "count nodes" in block and "result = 1" in block
        assert generator.few_shot_block([]) == ""


class TestPipeline:
    def test_networkx_analysis_query(self, traffic_app):
        pipeline = NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "networkx")
        result = pipeline.run_query("How many nodes are in the communication graph?")
        assert result.succeeded
        assert result.result_value == 40
        assert result.cost_usd > 0

    def test_pandas_backend(self, traffic_app):
        pipeline = NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "pandas")
        result = pipeline.run_query("What is the total number of bytes transferred across all edges?")
        assert result.succeeded
        assert result.result_value == traffic_app.graph.total_edge_weight("bytes")

    def test_sql_backend(self, traffic_app):
        pipeline = NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "sql")
        result = pipeline.run_query("How many edges are in the communication graph?")
        assert result.succeeded
        assert result.result_value.scalar() == 40

    def test_mutation_query_produces_updated_graph(self, traffic_app):
        pipeline = NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "networkx")
        result = pipeline.run_query(
            "Add a label app:production to nodes with address prefix 15.76")
        assert result.succeeded
        labelled = [n for n, attrs in result.updated_graph.nodes(data=True)
                    if attrs.get("app") == "production"]
        assert labelled
        # the application's own state is untouched until sync_state is called
        assert not any("app" in attrs for _, attrs in traffic_app.graph.nodes(data=True))

    def test_strawman_answers_without_code(self, traffic_app):
        pipeline = NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "strawman")
        result = pipeline.run_query("How many nodes are in the communication graph?")
        assert result.succeeded
        assert result.code == ""
        assert result.result_value == 40

    def test_strawman_hits_token_limit_on_large_graph(self):
        from repro.traffic import TrafficAnalysisApplication

        application = TrafficAnalysisApplication.with_size(200, 200)
        pipeline = NetworkManagementPipeline(application, create_provider("gpt-4"), "strawman")
        result = pipeline.run_query("How many nodes are in the communication graph?")
        assert not result.succeeded
        assert result.error_stage == "llm"
        assert "token" in result.error_message

    def test_execution_failure_captured(self, traffic_app):
        class BrokenCodeProvider(LlmProvider):
            model_name = "gpt-4"

            def _generate(self, request):
                return "```python\nresult = undefined_variable\n```", {}

        pipeline = NetworkManagementPipeline(traffic_app, BrokenCodeProvider(), "networkx")
        result = pipeline.run_query("whatever")
        assert not result.succeeded
        assert result.error_stage == "execute"
        assert result.execution.error_type == "NameError"

    def test_response_without_code_reported(self, traffic_app):
        class ProseProvider(LlmProvider):
            model_name = "gpt-4"

            def _generate(self, request):
                return "I am unable to help with that request.", {}

        pipeline = NetworkManagementPipeline(traffic_app, ProseProvider(), "networkx")
        result = pipeline.run_query("whatever")
        assert result.error_stage == "extract"

    def test_invalid_backend_rejected(self, traffic_app):
        with pytest.raises(ValidationError):
            NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "prolog")

    def test_request_object_roundtrip(self, traffic_app):
        pipeline = NetworkManagementPipeline(traffic_app, create_provider("gpt-4"), "networkx")
        request = QueryRequest(query="How many nodes are in the communication graph?",
                               backend="networkx", metadata={"query_id": "ta-e1"})
        result = pipeline.run(request)
        assert result.request is request
        assert result.prompt.metadata["query_id"] == "ta-e1"
