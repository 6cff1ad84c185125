"""Expected answers and the correctness check.

The files under ``expected/`` are written by ``make_expected.py`` from a
serial in-process ``repro.api.answer_queries`` run (and, for sweep-tables,
a serial ``BenchmarkRunner`` grid).  Every answer a workload receives is
compared against them; a mismatch, a non-200 response or an exception is a
failed operation, recorded with its status and the error message as sent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: answer-document fields that legitimately differ between runs
IGNORED_FIELDS = ("duration_s", "cached")


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> Dict[str, Any]:
    return json.loads(expected_path(workload).read_text(encoding="utf-8"))


def request_key(request: Dict[str, str]) -> str:
    return f"{request['scenario']}|{request['query']}|{request['backend']}"


def canonical(document: Any) -> str:
    """Order- and whitespace-independent form of an answer document."""
    if isinstance(document, dict):
        document = {key: value for key, value in document.items()
                    if key not in IGNORED_FIELDS}
    return json.dumps(document, sort_keys=True)


def sweep_records(reports: Iterable[Any]) -> List[List[Any]]:
    """The checked projection of a sweep: one row per cell, in grid order."""
    return [[record.query_id, record.model, record.backend, record.passed,
             record.failure_stage]
            for report in reports for record in report.logger.records]


def digest(rows: Sequence[Any]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def failure(request: Any, status: Optional[int], message: str) -> Dict[str, Any]:
    return {"request": request, "status": status, "message": message}


class AnswerChecker:
    """Compares answer documents against one workload's expected answers."""

    def __init__(self, expected: Dict[str, Any]) -> None:
        self._answers = {key: canonical(document)
                         for key, document in expected["answers"].items()}

    def check(self, request: Dict[str, str], status: Optional[int],
              document: Any) -> Optional[Dict[str, Any]]:
        """``None`` when the answer is the expected one, else a failure record."""
        if status != 200:
            message = document
            if isinstance(document, dict) and isinstance(document.get("error"), dict):
                message = document["error"].get("message")
            return failure(request, status, str(message))
        wanted = self._answers.get(request_key(request))
        if wanted is None:
            return failure(request, status, "no expected answer for this request")
        if canonical(document) != wanted:
            return failure(request, status, "answer differs from the expected answer")
        return None


def check_sweep(expected: Dict[str, Any], rows: List[List[Any]]) -> List[Dict[str, Any]]:
    """Failure records for one sweep grid: none when the digest matches,
    else one per mismatched cell (at least one)."""
    if digest(rows) == expected["digest"]:
        return []
    wanted = expected["records"]
    failures = [failure(got[:3], None, f"cell verdict {got[3:]} != expected {want[3:]}")
                for got, want in zip(rows, wanted) if got != want]
    if len(rows) != len(wanted):
        failures.append(failure(None, None,
                                f"grid has {len(rows)} cells, expected {len(wanted)}"))
    return failures or [failure(None, None, "sweep digest differs")]
