"""Extraction and light validation of code returned by an LLM.

LLM responses interleave prose and fenced code blocks.  The pipeline must
pull out the code before handing it to the sandbox; the paper calls this the
"Extract code & Validate" step.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional


_FENCE_PATTERN = re.compile(r"```([A-Za-z0-9_+-]*)\n(.*?)```", re.DOTALL)


def extract_code_blocks(text: str, language: Optional[str] = None) -> List[str]:
    """Return the contents of all fenced code blocks in *text*.

    When *language* is given, only blocks tagged with that language (or
    untagged blocks) are returned.
    """
    blocks = []
    for tag, body in _FENCE_PATTERN.findall(text):
        if language is None or not tag or tag.lower() == language.lower():
            blocks.append(body.strip())
    return blocks


def extract_python_code(text: str) -> str:
    """Extract Python source from an LLM response.

    Preference order: tagged ``python`` blocks, then untagged blocks, then —
    if the whole response already parses as Python — the raw text.
    """
    blocks = extract_code_blocks(text, language="python")
    if blocks:
        return "\n\n".join(blocks)
    blocks = extract_code_blocks(text)
    if blocks:
        return "\n\n".join(blocks)
    stripped = text.strip()
    if stripped and looks_like_python(stripped):
        return stripped
    return ""


def extract_sql_code(text: str) -> str:
    """Extract SQL from an LLM response (tagged ``sql`` blocks first)."""
    blocks = extract_code_blocks(text, language="sql")
    if blocks:
        return ";\n".join(blocks)
    blocks = extract_code_blocks(text)
    if blocks:
        return ";\n".join(blocks)
    stripped = text.strip()
    upper = stripped.upper()
    if upper.startswith(("SELECT", "INSERT", "UPDATE", "DELETE", "WITH")):
        return stripped
    return ""


def looks_like_python(source: str) -> bool:
    """True when *source* parses as Python."""
    try:
        ast.parse(source)
    except SyntaxError:
        return False
    return True
