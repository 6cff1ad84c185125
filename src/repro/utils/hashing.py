"""Stable hashing helpers.

Python's built-in ``hash`` is salted per process, which makes it unusable for
reproducible experiments.  Everything in this repository that needs a
"random but repeatable" decision (fault injection in the LLM simulator,
synthetic topology generation, benchmark shuffling) routes through the SHA-256
based helpers below so results are identical across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def _canonical_bytes(value: Any) -> bytes:
    """Serialize *value* into a canonical byte string.

    Dictionaries are sorted by key, containers are serialized recursively, and
    all scalars go through ``json`` so that, e.g., ``1`` and ``1.0`` remain
    distinguishable via their type tag.
    """
    try:
        payload = json.dumps(value, sort_keys=True, default=str)
    except (TypeError, ValueError):
        payload = repr(value)
    return payload.encode("utf-8")


def stable_hash(*parts: Any, bits: int = 64) -> int:
    """Return a deterministic non-negative integer hash of *parts*.

    Parameters
    ----------
    parts:
        Any JSON-serializable (or repr-able) values; order matters.
    bits:
        Width of the returned integer (default 64).
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(_canonical_bytes(part))
        hasher.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    digest = hasher.digest()
    value = int.from_bytes(digest, "big")
    return value % (1 << bits)
