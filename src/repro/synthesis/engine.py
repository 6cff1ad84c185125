"""The code-synthesis engine: intent -> backend-specific program."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Union

from repro.graph import PropertyGraph, graph_to_dict
from repro.obs import span
from repro.synthesis import frames_emitter, networkx_emitter, sql_emitter
from repro.synthesis.intents import Intent, IntentParseError, parse_query
from repro.synthesis.reference import (
    ReferenceOutcome,
    evaluate_reference,
    supported_reference_intents,
)
from repro.utils.validation import ValidationError, require_in


class UnsupportedQueryError(ValidationError):
    """Raised when no code can be produced for a (query, backend) pair."""


#: backends the engine can emit code for (strawman is answered, not coded)
CODE_BACKENDS = ("networkx", "pandas", "sql")

#: backends the engine can emit *timeline-aware* code for.  The dataframe
#: backend is named "frames" on the temporal path (the CLI surface of
#: ``repro benchmark --temporal --backend``); it maps to the same emitter as
#: the static "pandas" backend.
TEMPORAL_CODE_BACKENDS = ("frames", "networkx")


@dataclass
class GeneratedProgram:
    """One synthesized program plus the language it is written in."""

    code: str
    language: str          # "python" or "sql"
    backend: str
    intent: Intent


class CodeSynthesisEngine:
    """Generate correct code (or direct answers) for supported intents.

    This engine is what a simulated LLM uses when the calibration table says
    the model answers correctly.  It is also usable standalone — e.g. the CLI
    and examples call it directly for a no-LLM, rule-based experience.
    """

    _EMITTERS = {
        "networkx": networkx_emitter,
        "pandas": frames_emitter,
        "sql": sql_emitter,
    }

    # ------------------------------------------------------------------
    def resolve_intent(self, query: Union[str, Intent]) -> Intent:
        """Accept either a pre-parsed intent or free-form query text."""
        if isinstance(query, Intent):
            return query
        return parse_query(query)

    def supports(self, query: Union[str, Intent], backend: str) -> bool:
        """Whether correct code can be produced for this query and backend."""
        require_in(backend, CODE_BACKENDS + ("strawman",), "backend")
        try:
            intent = self.resolve_intent(query)
        except IntentParseError:
            return False
        if backend == "strawman":
            return intent.name in supported_reference_intents()
        emitter = self._EMITTERS[backend]
        return intent.name in emitter.TEMPLATES

    def supported_intents(self, backend: str) -> List[str]:
        """All intent names supported for one backend."""
        require_in(backend, CODE_BACKENDS, "backend")
        return self._EMITTERS[backend].supported_intents()

    # ------------------------------------------------------------------
    def generate(self, query: Union[str, Intent], backend: str) -> GeneratedProgram:
        """Produce a correct program for *query* in *backend*.

        Raises :class:`UnsupportedQueryError` when the intent is unknown or
        the backend cannot express it.
        """
        require_in(backend, CODE_BACKENDS, "backend")
        attrs: Dict[str, object] = {"backend": backend}
        with span("synthesis.emit", attrs=attrs):
            try:
                intent = self.resolve_intent(query)
            except IntentParseError as exc:
                raise UnsupportedQueryError(str(exc)) from exc
            attrs["intent"] = intent.name
            emitter = self._EMITTERS[backend]
            try:
                code = emitter.emit(intent)
            except KeyError as exc:
                raise UnsupportedQueryError(
                    f"backend {backend!r} cannot express intent {intent.name!r}") from exc
        language = "sql" if backend == "sql" else "python"
        return GeneratedProgram(code=code, language=language, backend=backend, intent=intent)

    # ------------------------------------------------------------------
    # timeline-aware synthesis
    # ------------------------------------------------------------------
    _TEMPORAL_EMITTERS = {
        "networkx": networkx_emitter,
        "frames": frames_emitter,
    }

    def generate_temporal(self, intent: Intent, backend: str) -> GeneratedProgram:
        """Produce a correct timeline-aware program for a temporal *intent*.

        The emitted Python consumes the serialized-timeline namespace
        (``snapshots`` + ``deltas`` — see :mod:`repro.synthesis.temporal`)
        instead of a single-graph namespace.  Raises
        :class:`UnsupportedQueryError` when the backend cannot express the
        intent.
        """
        require_in(backend, TEMPORAL_CODE_BACKENDS, "backend")
        with span("synthesis.emit_temporal",
                  attrs={"backend": backend, "intent": intent.name}):
            emitter = self._TEMPORAL_EMITTERS[backend]
            try:
                code = emitter.emit_temporal(intent)
            except KeyError as exc:
                raise UnsupportedQueryError(
                    f"backend {backend!r} cannot express temporal intent "
                    f"{intent.name!r}") from exc
        return GeneratedProgram(code=code, language="python", backend=backend,
                                intent=intent)

    # ------------------------------------------------------------------
    def answer_directly(self, query: Union[str, Intent], graph: PropertyGraph) -> str:
        """The strawman path: answer from the data instead of emitting code.

        Returns a JSON document containing either the answer value or the
        updated graph, which is what the benchmark's evaluator parses when
        scoring the strawman baseline.
        """
        try:
            intent = self.resolve_intent(query)
        except IntentParseError as exc:
            raise UnsupportedQueryError(str(exc)) from exc
        with span("synthesis.direct", attrs={"intent": intent.name}):
            outcome: ReferenceOutcome = evaluate_reference(graph, intent)
        payload: Dict[str, object] = {"kind": outcome.kind}
        if outcome.kind in ("value", "both"):
            payload["value"] = outcome.value
        if outcome.kind in ("graph", "both") and outcome.graph is not None:
            payload["graph"] = graph_to_dict(outcome.graph)
        return json.dumps(payload, default=str, sort_keys=True)
