"""Tests for the simulated-LLM substrate (tokenizer, pricing, calibration,
fault injection, providers)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm import (
    ApproximateTokenizer,
    DEFAULT_CALIBRATION,
    DEFAULT_PRICING,
    FaultInjector,
    FaultType,
    LlmRequest,
    TokenLimitExceeded,
    available_models,
    count_tokens,
    create_provider,
)
from repro.llm.calibration import CalibrationTable, COMPLEXITIES
from repro.llm.pricing import ModelPricing, PricingTable
from repro.utils.validation import ValidationError


class TestTokenizer:
    def test_counts_grow_with_text(self):
        tokenizer = ApproximateTokenizer()
        assert tokenizer.count("short") < tokenizer.count("a much longer piece of text " * 5)

    def test_long_words_split_into_subwords(self):
        assert count_tokens("internationalization") >= 4

    def test_punctuation_counted(self):
        assert count_tokens('{"a": 1}') >= 5

    def test_empty_string(self):
        assert count_tokens("") == 0

    @given(st.text(min_size=0, max_size=500)
           | st.text(alphabet="abcdefghIJKLMé日 \t\n0٣.{}\"", max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_count_is_the_number_of_tokens(self, text):
        tokenizer = ApproximateTokenizer()
        assert tokenizer.count(text) == len(tokenizer.tokenize(text))

    @given(st.text(min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_count_is_non_negative_and_bounded(self, text):
        count = count_tokens(text)
        assert 0 <= count <= max(1, len(text))


class TestPricing:
    def test_gpt4_cost(self):
        cost = DEFAULT_PRICING.cost("gpt-4", prompt_tokens=1000, completion_tokens=1000)
        assert cost == pytest.approx(0.09)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            DEFAULT_PRICING.for_model("unknown-model")

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValidationError):
            ModelPricing(0.01, 0.02).cost(-1, 0)

    def test_custom_table(self):
        table = PricingTable({"m": ModelPricing(0.001, 0.002)})
        assert table.models() == ["m"]
        assert table.cost("m", 2000, 1000) == pytest.approx(0.004)


class TestCalibration:
    def test_reliability_matches_paper_cells(self):
        calibration = DEFAULT_CALIBRATION
        assert calibration.reliability("gpt-4", "traffic_analysis", "networkx", "easy") == 1.0
        assert calibration.reliability("gpt-4", "traffic_analysis", "networkx", "hard") == 0.63
        assert calibration.reliability("bard", "malt", "pandas", "medium") == 0.33
        assert calibration.reliability("gpt-3", "traffic_analysis", "strawman", "easy") == 0.38

    def test_strawman_on_malt_is_zero(self):
        assert DEFAULT_CALIBRATION.reliability("gpt-4", "malt", "strawman", "easy") == 0.0

    def test_passing_count_rounding(self):
        calibration = DEFAULT_CALIBRATION
        assert calibration.passing_count("gpt-4", "traffic_analysis", "networkx", "hard", 8) == 5
        assert calibration.passing_count("gpt-4", "malt", "pandas", "hard", 3) == 1

    def test_passes_is_rank_threshold(self):
        calibration = DEFAULT_CALIBRATION
        assert calibration.passes("gpt-4", "traffic_analysis", "networkx", "hard", 4, 8)
        assert not calibration.passes("gpt-4", "traffic_analysis", "networkx", "hard", 5, 8)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            DEFAULT_CALIBRATION.reliability("gpt-5", "malt", "networkx", "easy")

    def test_fault_type_deterministic_and_valid(self):
        calibration = DEFAULT_CALIBRATION
        first = calibration.fault_type_for("traffic_analysis", "ta-h7", "gpt-4", "networkx")
        second = calibration.fault_type_for("traffic_analysis", "ta-h7", "gpt-4", "networkx")
        assert first == second
        assert first in {fault.value for fault in FaultType}

    def test_malt_never_draws_syntax_error(self):
        # the paper observed zero syntax errors among MALT NetworkX failures
        calibration = DEFAULT_CALIBRATION
        for index in range(30):
            fault = calibration.fault_type_for("malt", f"q{index}", "bard", "networkx")
            assert fault != "syntax_error"

    def test_recovery_attempt_within_bounds(self):
        calibration = DEFAULT_CALIBRATION
        attempt = calibration.recovery_attempt("malt-m2", "bard", "networkx")
        assert attempt is None or 2 <= attempt <= 5

    def test_custom_reliability_override(self):
        table = CalibrationTable(traffic={("gpt-4", "networkx"): (1.0, 1.0, 1.0)})
        for complexity in COMPLEXITIES:
            assert table.reliability("gpt-4", "traffic_analysis", "networkx", complexity) == 1.0


class TestFaultInjector:
    @pytest.mark.parametrize("fault", [fault.value for fault in FaultType])
    @pytest.mark.parametrize("backend", ["networkx", "pandas", "sql", "strawman"])
    def test_every_fault_renders_for_every_backend(self, fault, backend):
        code = FaultInjector().render(fault, backend, correct_code="result = 1\n")
        assert isinstance(code, str) and code

    def test_syntax_fault_does_not_parse(self):
        import ast

        code = FaultInjector().render("syntax_error", "networkx")
        with pytest.raises(SyntaxError):
            ast.parse(code)

    def test_wrong_logic_keeps_correct_prefix(self):
        code = FaultInjector().render("wrong_calculation_logic", "networkx",
                                      correct_code="result = 42\n")
        assert code.startswith("result = 42")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            FaultInjector().render("syntax_error", "cobol")


class TestProviders:
    def test_catalog_lists_four_models(self):
        assert set(available_models()) == {"gpt-4", "gpt-3", "text-davinci-003", "bard"}

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            create_provider("gpt-99")

    def test_complete_counts_tokens_and_cost(self):
        provider = create_provider("gpt-4")
        response = provider.complete(LlmRequest(
            prompt="Write code to count nodes",
            metadata={"query": "How many nodes are in the communication graph?",
                      "backend": "networkx"}))
        assert response.prompt_tokens > 0
        assert response.completion_tokens > 0
        assert response.cost_usd > 0
        assert "```" in response.text

    def test_token_limit_enforced(self):
        provider = create_provider("gpt-3")   # 2k window
        with pytest.raises(TokenLimitExceeded):
            provider.complete(LlmRequest(prompt="word " * 5000))

    def test_uncalibrated_request_produces_correct_code(self):
        provider = create_provider("gpt-4")
        response = provider.complete(LlmRequest(
            prompt="irrelevant",
            metadata={"query": "How many nodes are in the communication graph?",
                      "backend": "networkx"}))
        assert "number_of_nodes" in response.text
        assert response.metadata["intended_correct"] is True

    def test_calibrated_failure_produces_faulty_code(self):
        provider = create_provider("gpt-4")
        metadata = {
            "query": "Evenly redistribute the total outgoing bytes of the busiest node "
                     "across its outgoing edges.",
            "query_id": "ta-h8", "backend": "networkx",
            "application": "traffic_analysis", "complexity": "hard",
            "difficulty_rank": 7, "bucket_size": 8,
        }
        response = provider.complete(LlmRequest(prompt="irrelevant", metadata=metadata))
        assert response.metadata["intended_correct"] is False
        assert "fault_type" in response.metadata

    def test_deterministic_model_repeats_itself(self):
        provider = create_provider("gpt-4")
        request = LlmRequest(prompt="irrelevant",
                             metadata={"query": "How many nodes are in the communication graph?",
                                       "backend": "networkx"})
        assert provider.complete(request).text == provider.complete(request).text
