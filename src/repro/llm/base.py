"""Provider-neutral request/response interface for LLM completions."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.llm.pricing import DEFAULT_PRICING, PricingTable
from repro.llm.tokenizer import ApproximateTokenizer


class TokenLimitExceeded(RuntimeError):
    """Raised when a prompt does not fit into the model's context window.

    The paper's Figure 4b shows the strawman baseline hitting exactly this
    condition once the serialized graph grows past roughly 150 nodes+edges.
    """

    def __init__(self, model: str, prompt_tokens: int, limit: int) -> None:
        super().__init__(
            f"prompt of {prompt_tokens} tokens exceeds the {limit}-token window of {model}")
        self.model = model
        self.prompt_tokens = prompt_tokens
        self.limit = limit


@dataclass
class LlmRequest:
    """One completion request.

    ``metadata`` carries structured facts about the query (its benchmark id,
    complexity, backend) that the *simulated* providers use in place of
    actually understanding the prose prompt; a hosted model would ignore it.
    """

    prompt: str
    temperature: float = 0.0
    max_completion_tokens: int = 1024
    metadata: Dict[str, Any] = field(default_factory=dict)
    attempt: int = 0
    feedback: Optional[str] = None  # previous error message, for self-debug


@dataclass
class LlmResponse:
    """One completion response with token accounting."""

    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int
    cost_usd: float
    metadata: Dict[str, Any] = field(default_factory=dict)


class LlmProvider(abc.ABC):
    """Common behaviour of every provider: token accounting and window checks."""

    #: model identifier used for pricing lookups and result tables
    model_name: str = "model"
    #: display name used in reports (matches the paper's table rows)
    display_name: str = "Model"
    #: context-window size in tokens
    context_window: int = 8192
    #: whether repeated calls at the same settings can return different output
    deterministic: bool = True

    def __init__(self, pricing: Optional[PricingTable] = None) -> None:
        self._pricing = pricing or DEFAULT_PRICING
        self._tokenizer = ApproximateTokenizer()

    # ------------------------------------------------------------------
    def count_tokens(self, text: str) -> int:
        return self._tokenizer.count(text)

    def complete(self, request: LlmRequest) -> LlmResponse:
        """Serve one completion request.

        Raises :class:`TokenLimitExceeded` when the prompt does not fit in
        the model's context window.
        """
        prompt_tokens = self.count_tokens(request.prompt)
        if prompt_tokens > self.context_window:
            raise TokenLimitExceeded(self.model_name, prompt_tokens, self.context_window)
        text, metadata = self._generate(request)
        completion_tokens = self.count_tokens(text)
        cost = self._pricing.cost(self.model_name, prompt_tokens, completion_tokens)
        return LlmResponse(
            text=text,
            model=self.model_name,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            cost_usd=cost,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _generate(self, request: LlmRequest) -> tuple:
        """Produce ``(completion_text, metadata)`` for *request*."""
