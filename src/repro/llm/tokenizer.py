"""Approximate tokenization for prompt accounting.

The cost and scalability analysis only needs token *counts*, not the exact
BPE segmentation.  The tokenizer below mimics the granularity of the GPT
byte-pair encoders closely enough for that purpose: whitespace-separated
words are split further into ~4-character chunks, punctuation and digits are
counted individually, and JSON structural characters each count as a token
(which is what makes the strawman's embedded graph JSON expensive).
"""

from __future__ import annotations

import re
from typing import List


_WORD_PATTERN = re.compile(r"[A-Za-z]+|\d|[^\sA-Za-z\d]")

#: average characters per token inside long alphabetic words
_CHARS_PER_SUBWORD = 4

#: one match per token of the segmentation :meth:`ApproximateTokenizer.tokenize`
#: makes: a run of n ASCII letters matches ceil(n / 4) times, any other
#: character but whitespace once
_TOKEN_PATTERN = re.compile(rf"[A-Za-z]{{1,{_CHARS_PER_SUBWORD}}}|[^\sA-Za-z]")


class ApproximateTokenizer:
    """Deterministic, dependency-free approximation of a GPT-style tokenizer."""

    def tokenize(self, text: str) -> List[str]:
        """Split *text* into approximate tokens."""
        tokens: List[str] = []
        for match in _WORD_PATTERN.finditer(text):
            piece = match.group(0)
            if piece.isalpha() and len(piece) > _CHARS_PER_SUBWORD:
                for start in range(0, len(piece), _CHARS_PER_SUBWORD):
                    tokens.append(piece[start:start + _CHARS_PER_SUBWORD])
            else:
                tokens.append(piece)
        return tokens

    def count(self, text: str) -> int:
        """Number of approximate tokens in *text* (``len(tokenize(text))``,
        counted without building the tokens)."""
        return _TOKEN_PATTERN.subn("", text)[1]


_DEFAULT_TOKENIZER = ApproximateTokenizer()


def count_tokens(text: str) -> int:
    """Module-level convenience wrapper around :class:`ApproximateTokenizer`."""
    return _DEFAULT_TOKENIZER.count(text)
