"""Prompt generation (components  2  and  3  of the paper's Figure 2).

The paper splits prompt construction into an *application* part (what the
network and its graph mean) and a *code-generation* part (which library to
use, how to return the answer).  Keeping them separate lets either side
evolve independently — e.g. swapping pandas for NetworkX only changes the
code-gen prompt generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.application import ApplicationContext, NetworkApplication
from repro.graph.serialization import graph_to_json
from repro.utils.validation import require_in


#: the code-generation backends evaluated in the paper
BACKENDS = ("networkx", "pandas", "sql", "strawman")


@dataclass
class PromptBundle:
    """A fully rendered prompt plus the structured metadata it was built from.

    ``metadata`` exists so that the *simulated* LLM providers can answer the
    query without re-parsing the prose prompt; a real remote LLM would only
    ever see :attr:`text`.
    """

    text: str
    backend: str
    query: str
    application_name: str
    metadata: Dict[str, Any] = field(default_factory=dict)


class ApplicationPromptGenerator:
    """Render the application-specific context block for a user query."""

    def __init__(self, application: NetworkApplication) -> None:
        self._application = application

    @property
    def application(self) -> NetworkApplication:
        return self._application

    def render_context(self, query: str) -> str:
        """Application context tailored to *query*.

        The dynamic part mirrors the paper's suggestion of selecting relevant
        entities/relationships: the rendered context always contains the
        schema, and adds the quantitative graph summary so the LLM knows the
        data's scale without seeing the data itself.
        """
        context: ApplicationContext = self._application.context()
        lines = [context.render(), "", f"The operator's request is: {query!r}"]
        return "\n".join(lines)


class CodeGenPromptGenerator:
    """Render backend-specific code-generation instructions."""

    _BACKEND_INSTRUCTIONS = {
        "networkx": (
            "Write Python code that uses the networkx library. The communication "
            "graph is available as the variable `G`, a networkx.DiGraph whose nodes "
            "and edges carry the attributes described above. Modify `G` in place for "
            "manipulation requests. Store the final answer for analysis requests in a "
            "variable named `result`. Do not read or write files and do not print."),
        "pandas": (
            "Write Python code that uses dataframes. Two dataframes are available: "
            "`nodes_df` (one row per node, column `id` plus the node attributes) and "
            "`edges_df` (one row per edge, columns `source` and `target` plus the edge "
            "attributes). Use filtering, sorting, grouping and merging on these frames. "
            "For manipulation requests assign the updated frames back to `nodes_df` / "
            "`edges_df`. Store the final answer for analysis requests in a variable "
            "named `result`. Do not read or write files and do not print."),
        "sql": (
            "Write one or more SQL statements. The database has two tables: `nodes` "
            "(column `id` plus the node attributes) and `edges` (columns `source` and "
            "`target` plus the edge attributes). Use standard SELECT / UPDATE / INSERT / "
            "DELETE statements. The result of the final SELECT is the answer."),
        "strawman": (
            "The full network data is included below in JSON form. Answer the "
            "operator's request directly from the data and reply with the answer only."),
    }

    def __init__(self, backend: str, result_variable: str = "result") -> None:
        require_in(backend, BACKENDS, "backend")
        self.backend = backend
        self.result_variable = result_variable

    def render_instructions(self) -> str:
        return self._BACKEND_INSTRUCTIONS[self.backend]

    def few_shot_block(self, examples: Optional[List[Dict[str, str]]] = None) -> str:
        """Render optional few-shot examples (query -> code) into the prompt."""
        if not examples:
            return ""
        lines = ["Here are examples of previous requests and correct code:"]
        for example in examples:
            lines.append(f"Request: {example['query']}")
            lines.append("Code:")
            lines.append("```")
            lines.append(example["code"])
            lines.append("```")
        return "\n".join(lines)


def build_prompt(application: NetworkApplication, query: str, backend: str,
                 few_shot_examples: Optional[List[Dict[str, str]]] = None,
                 extra_metadata: Optional[Dict[str, Any]] = None) -> PromptBundle:
    """Build the complete prompt for one query against one backend.

    For the three code-generation backends the prompt contains only the
    schema and the query — never the network data itself (that is the
    privacy/scalability argument of the paper).  For the strawman baseline the
    serialized graph JSON is embedded, which is what makes its cost grow with
    graph size and eventually exceed the token window.
    """
    application_prompts = ApplicationPromptGenerator(application)
    codegen_prompts = CodeGenPromptGenerator(backend)

    sections = [
        "You are a network management assistant.",
        application_prompts.render_context(query),
        codegen_prompts.render_instructions(),
    ]
    few_shot = codegen_prompts.few_shot_block(few_shot_examples)
    if few_shot:
        sections.append(few_shot)
    if backend == "strawman":
        sections.append("Network data (JSON):")
        sections.append(graph_to_json(application.graph))
    sections.append(f"Operator request: {query}")

    metadata: Dict[str, Any] = {
        "query": query,
        "backend": backend,
        "application": application.name,
    }
    if extra_metadata:
        metadata.update(extra_metadata)

    return PromptBundle(
        text="\n\n".join(sections),
        backend=backend,
        query=query,
        application_name=application.name,
        metadata=metadata,
    )
