"""Shared utilities: deterministic RNG, hashing, table rendering, validation.

These helpers are deliberately dependency-free so that every other subsystem
(graph substrate, SQL engine, LLM simulator, benchmark runner) can rely on
them without import cycles.
"""

from repro.utils.hashing import stable_hash
from repro.utils.rng import DeterministicRng
from repro.utils.tables import format_table
from repro.utils.validation import (
    ValidationError,
    require,
    require_in,
    require_positive,
)

#: the ``dict`` methods that change what a dict holds (``__init__`` aside,
#: which the sandbox policy forbids): what dicts that refuse or record writes override
DICT_MUTATORS = ("__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem",
                 "setdefault", "update")

__all__ = [
    "DICT_MUTATORS",
    "DeterministicRng",
    "stable_hash",
    "format_table",
    "ValidationError",
    "require",
    "require_in",
    "require_positive",
]
