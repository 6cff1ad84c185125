"""The results logger (paper Figure 3).

Collects every :class:`EvaluationRecord`, keeps the generated code and the
classification next to the verdict, and can render or persist the log for
later analysis — which is how the paper's authors derived their error-type
breakdown and their improvement case study.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.benchmark.errors import classify_error
from repro.benchmark.evaluator import EvaluationRecord
from repro.utils.tables import format_table

logger = logging.getLogger(__name__)


def accuracy_cell(value: float) -> Union[float, str]:
    """Render helper: an accuracy value, or ``n/a`` for no-data (NaN)."""
    return "n/a" if isinstance(value, float) and math.isnan(value) else value


class ResultsLogger:
    """Accumulate evaluation records and derive summaries from them."""

    def __init__(self) -> None:
        self._records: List[EvaluationRecord] = []

    # ------------------------------------------------------------------
    def log(self, record: EvaluationRecord) -> EvaluationRecord:
        """Record one evaluation (classifying its error type if it failed)."""
        if not record.passed and record.error_type is None:
            record.error_type = classify_error(record)
        self._records.append(record)
        return record

    def extend(self, records: Iterable[EvaluationRecord]) -> None:
        for record in records:
            self.log(record)

    @property
    def records(self) -> List[EvaluationRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    def filtered(self, model: Optional[str] = None, backend: Optional[str] = None,
                 application_prefix: Optional[str] = None,
                 passed: Optional[bool] = None) -> List[EvaluationRecord]:
        """Records matching every provided criterion."""
        selected = self._records
        if model is not None:
            selected = [r for r in selected if r.model == model]
        if backend is not None:
            selected = [r for r in selected if r.backend == backend]
        if application_prefix is not None:
            selected = [r for r in selected if r.query_id.startswith(application_prefix)]
        if passed is not None:
            selected = [r for r in selected if r.passed == passed]
        return list(selected)

    def accuracy(self, **filters) -> float:
        """Fraction of matching records that passed.

        An empty filter match returns ``nan`` — "no data" must stay
        distinguishable from "every matching record failed" (0.0), otherwise
        a filter typo reads as a catastrophic regression.  Renderers print
        NaN cells as ``n/a`` (see :func:`accuracy_cell`).
        """
        selected = self.filtered(**filters)
        if not selected:
            return float("nan")
        return sum(1 for record in selected if record.passed) / len(selected)

    def error_type_counts(self, **filters) -> Dict[str, int]:
        """Count failed records per Table-5 error type."""
        counts: Counter = Counter()
        for record in self.filtered(passed=False, **filters):
            counts[record.error_type or "unclassified"] += 1
        return dict(counts)

    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, object]]:
        """JSON-serializable dump of the log."""
        dumped = []
        for record in self._records:
            dumped.append({
                "query_id": record.query_id,
                "model": record.model,
                "backend": record.backend,
                "complexity": record.complexity,
                "passed": record.passed,
                "failure_stage": record.failure_stage,
                "failure_reason": record.failure_reason,
                "error_type": record.error_type,
                "cost_usd": record.cost_usd,
                "prompt_tokens": record.prompt_tokens,
                "completion_tokens": record.completion_tokens,
                "generated_code": record.generated_code,
                "cached": record.cached,
            })
        return dumped

    def save(self, path) -> Path:
        """Write the full log as JSON to *path*."""
        path = Path(path)
        path.write_text(json.dumps(self.to_records(), indent=2, sort_keys=True),
                        encoding="utf-8")
        return path

    def render_summary(self) -> str:
        """Plain-text summary table (model x backend accuracy)."""
        pairs = sorted({(record.model, record.backend) for record in self._records})
        rows = []
        for model, backend in pairs:
            selected = self.filtered(model=model, backend=backend)
            passed = sum(1 for record in selected if record.passed)
            rows.append([model, backend, f"{passed}/{len(selected)}",
                         accuracy_cell(self.accuracy(model=model, backend=backend))])
        return format_table(["model", "backend", "passed", "accuracy"], rows,
                            title="Benchmark results")
