"""Execution-consistency code selection.

Generate several samples, execute each one, and return the answer that the
largest number of samples agree on — the "code selection by execution
consistency" technique the paper cites from the program-synthesis literature.
This module complements pass@k: pass@k needs a golden answer to accept a
sample, whereas selection works without ground truth and is therefore usable
in production.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.application import NetworkApplication
from repro.core.pipeline import NetworkManagementPipeline, PipelineResult, QueryRequest
from repro.graph.serialization import graph_to_dict
from repro.llm.base import LlmProvider
from repro.utils.validation import require_positive


def _canonical_signature(result: PipelineResult) -> Optional[str]:
    """A hashable signature of one sample's outcome (value + resulting graph)."""
    if not result.succeeded:
        return None
    payload: Dict[str, Any] = {"value": result.result_value}
    if result.updated_graph is not None:
        payload["graph"] = graph_to_dict(result.updated_graph)
    try:
        return json.dumps(payload, sort_keys=True, default=str)
    except (TypeError, ValueError):
        return repr(payload)


@dataclass
class SelectionResult:
    """Outcome of execution-consistency selection for one query."""

    query: str
    backend: str
    samples: int
    selected: Optional[PipelineResult] = None
    agreement: int = 0
    failed_samples: int = 0
    all_samples: List[PipelineResult] = field(default_factory=list)

class ExecutionConsistencySelector:
    """Pick the most self-consistent sample out of *samples* generations."""

    def __init__(self, application: NetworkApplication, provider: LlmProvider,
                 backend: str, samples: int = 5) -> None:
        require_positive(samples, "samples")
        self.pipeline = NetworkManagementPipeline(application, provider, backend)
        self.samples = samples
        self.backend = backend

    def select(self, query: str, metadata: Optional[Dict[str, Any]] = None) -> SelectionResult:
        """Generate, execute, and vote over ``samples`` independent samples."""
        outcome = SelectionResult(query=query, backend=self.backend, samples=self.samples)
        signatures: Dict[str, List[PipelineResult]] = {}
        for attempt in range(self.samples):
            request = QueryRequest(query=query, backend=self.backend,
                                   metadata=dict(metadata or {}), attempt=attempt)
            result = self.pipeline.run(request)
            outcome.all_samples.append(result)
            signature = _canonical_signature(result)
            if signature is None:
                outcome.failed_samples += 1
                continue
            signatures.setdefault(signature, []).append(result)
        if not signatures:
            return outcome
        votes = Counter({signature: len(results) for signature, results in signatures.items()})
        best_signature, best_count = votes.most_common(1)[0]
        outcome.selected = signatures[best_signature][0]
        outcome.agreement = best_count
        return outcome
