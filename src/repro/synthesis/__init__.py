"""Rule-based program synthesis for network-management queries.

This package is the code-producing half of the simulated LLMs: it maps a
natural-language query (or a parsed :class:`~repro.synthesis.intents.Intent`)
to executable code for each backend the paper evaluates:

* :mod:`repro.synthesis.networkx_emitter` — Python against a ``networkx``
  graph ``G``;
* :mod:`repro.synthesis.frames_emitter` — Python against ``nodes_df`` /
  ``edges_df`` dataframes (the pandas-style backend);
* :mod:`repro.synthesis.sql_emitter` — SQL against the ``nodes``/``edges``
  tables.

:mod:`repro.synthesis.reference` holds the backend-independent semantics of
every supported intent (what the correct answer *is*), which the benchmark
uses as golden answers and the strawman path uses to answer directly from
data.
"""

from repro.synthesis.intents import (
    Intent,
    IntentParseError,
    parse_query,
    KNOWN_INTENTS,
    TEMPORAL_INTENT_SIGNATURES,
)
from repro.synthesis.engine import (
    CodeSynthesisEngine,
    UnsupportedQueryError,
    GeneratedProgram,
    TEMPORAL_CODE_BACKENDS,
)
from repro.synthesis.reference import ReferenceOutcome, evaluate_reference
from repro.synthesis.temporal import run_temporal_program, timeline_namespace

__all__ = [
    "Intent",
    "IntentParseError",
    "parse_query",
    "KNOWN_INTENTS",
    "TEMPORAL_INTENT_SIGNATURES",
    "CodeSynthesisEngine",
    "UnsupportedQueryError",
    "GeneratedProgram",
    "TEMPORAL_CODE_BACKENDS",
    "ReferenceOutcome",
    "evaluate_reference",
    "run_temporal_program",
    "timeline_namespace",
]
