"""Whitespace tokenization with punctuation detachment and clitic handling.

Luxembourgish attaches article clitics (d', l', m', t', z') to the
following word; those stay part of the token. Sentence punctuation is
split off so that word-level corruption and normalization never touch it.
"""

from __future__ import annotations

import re

# Punctuation detached from token edges. Everything else (hyphens,
# apostrophes, ellipses) stays inside the token.
PUNCT = '.,!?;:„“"()'
PUNCT_CHARS = frozenset(PUNCT)

_CLITIC_RE = re.compile(r"^([dDlLmMtTzZ]')(?=.)")

# one punctuation mark, or a whitespace-free run that starts and ends
# outside the punctuation set
_P = re.escape(PUNCT)
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")


def tokenize(sentence: str) -> list[str]:
    """Split on whitespace and peel punctuation off both token edges."""
    return _TOKEN_RE.findall(sentence)


def is_token(text: str) -> bool:
    """True for exactly the strings that `tokenize` returns as one token."""
    return text.isalpha() or _TOKEN_RE.fullmatch(text) is not None  # letters skip the regex


def splice(sentence: str, tokens: list[str], replacements: list[str]) -> str:
    """Rewrite `sentence` with each of its `tokens` replaced in place.

    `tokens` must be `tokenize(sentence)`. Only whitespace lies between
    consecutive tokens, so each is found where it stands, and every
    character outside the tokens is kept as written.
    """
    parts: list[str] = []
    end = 0
    for token, replacement in zip(tokens, replacements, strict=True):
        start = sentence.index(token, end)
        parts.append(sentence[end:start])
        parts.append(replacement)
        end = start + len(token)
    parts.append(sentence[end:])
    return "".join(parts)


def is_punctuation(token: str) -> bool:
    """True for tokens made entirely of detachable punctuation."""
    return bool(token) and all(ch in PUNCT_CHARS for ch in token)


def split_clitic(token: str) -> tuple[str, str]:
    """Split a leading article clitic from a token.

    Returns (prefix, core); prefix is empty when there is no clitic.
    """
    match = _CLITIC_RE.match(token)
    if match:
        return match.group(1), token[match.end():]
    return "", token


def apply_case_pattern(pattern: str, word: str) -> str:
    """Transfer the casing pattern of `pattern` onto `word`.

    Recognizes all-upper, title-case, and all-lower patterns; anything
    else (mixed case) leaves `word` as written.
    """
    if not pattern or not word:
        return word
    if pattern.isupper() and len(pattern) > 1:
        return word.upper()
    if pattern[0].isupper() and (len(pattern) == 1 or pattern[1:].islower()):
        return word[0].upper() + word[1:]
    if pattern.islower():
        return word.lower()
    return word
