"""Synthesize parallel noisy/standard sentence pairs from a variant dictionary.

Walks a standard-orthography corpus word by word and swaps in-dictionary
words for attested misspellings, sampled proportionally to their observed
frequency. Each sentence gets its own random stream derived from (seed,
line index), so output is identical no matter how many workers run or in
what order sentences are processed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from luxnorm.dictionary import VariantDictionary
from luxnorm.parallel import ordered_map
from luxnorm.tokenizer import (
    apply_case_pattern,
    is_punctuation,
    splice,
    split_clitic,
    tokenize,
)


@dataclass(frozen=True)
class SentencePair:
    """One aligned noisy/standard pair; corruption is 1:1 per token."""

    source: str
    target: str
    changed_tokens: int
    token_count: int

    def to_json(self) -> str:
        return json.dumps(
            {"source": self.source, "target": self.target, "changed": self.changed_tokens},
            ensure_ascii=False,
        )


@dataclass
class CorpusStats:
    pair_count: int = 0
    total_changed: int = 0
    total_tokens: int = 0
    skipped_blank_lines: int = 0

    def add(self, pair: SentencePair) -> None:
        self.pair_count += 1
        self.total_changed += pair.changed_tokens
        self.total_tokens += pair.token_count

    @property
    def mean_changed_tokens(self) -> Fraction:
        if self.pair_count == 0:
            return Fraction(0)
        return Fraction(self.total_changed, self.pair_count)

    @property
    def replacement_rate(self) -> Fraction:
        if self.total_tokens == 0:
            return Fraction(0)
        return Fraction(self.total_changed, self.total_tokens)

    def to_dict(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "total_changed": self.total_changed,
            "total_tokens": self.total_tokens,
            "skipped_blank_lines": self.skipped_blank_lines,
            "mean_changed_tokens": float(self.mean_changed_tokens),
            "replacement_rate": float(self.replacement_rate),
        }


def sentence_rng(seed: int, index: int) -> random.Random:
    """Random stream for sentence `index`, independent of all others."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def corrupt_token(token: str, dictionary: VariantDictionary, u: float) -> str:
    """Replace one token using a pre-drawn uniform, or return it unchanged.

    Punctuation and out-of-dictionary tokens pass through. Lookup strips a
    leading article clitic and tries the exact form before falling back to
    a case-folded match, restoring the original casing pattern afterwards.
    Variants containing whitespace are skipped: replacements must stay 1:1
    at the token level.
    """
    if is_punctuation(token):
        return token
    prefix, core = split_clitic(token)
    key = dictionary.resolve(core)
    if key is None:
        return token
    variant = dictionary.pick_variant(key, u)
    if any(ch.isspace() for ch in variant):
        return token
    if key != core:
        variant = apply_case_pattern(core, variant)
    return prefix + variant


def corrupt_sentence(
    sentence: str, dictionary: VariantDictionary, rng: random.Random
) -> SentencePair:
    """Corrupt every replaceable token of one sentence.

    One uniform is drawn per token position whether or not the token is in
    the dictionary, so a position's outcome never depends on dictionary
    coverage elsewhere.
    """
    tokens = tokenize(sentence)
    if not tokens:
        raise ValueError("cannot corrupt an empty sentence")
    corrupted: list[str] = []
    changed = 0
    for token in tokens:
        u = rng.random()
        replacement = corrupt_token(token, dictionary, u)
        corrupted.append(replacement)
        if replacement != token:
            changed += 1
    return SentencePair(
        source=splice(sentence, tokens, corrupted),
        target=sentence,
        changed_tokens=changed,
        token_count=len(tokens),
    )


def _corrupt_indexed(
    state: tuple[VariantDictionary, int], item: tuple[int, str]
) -> SentencePair:
    dictionary, seed = state
    index, line = item
    return corrupt_sentence(line, dictionary, sentence_rng(seed, index))


def iter_corrupted(
    lines: Iterable[str],
    dictionary: VariantDictionary,
    seed: int,
    workers: int = 1,
    stats: CorpusStats | None = None,
) -> Iterator[SentencePair]:
    """Yield one SentencePair per non-blank input line, in input order.

    Blank lines are skipped and counted in `stats`. Output is a pure
    function of (lines, dictionary, seed) regardless of `workers`.
    """
    tasks: list[tuple[int, str]] = []
    for index, raw in enumerate(lines):
        line = raw.rstrip("\n")
        if not line.strip():
            if stats is not None:
                stats.skipped_blank_lines += 1
            continue
        tasks.append((index, line))
    for pair in ordered_map(_corrupt_indexed, (dictionary, seed), tasks, workers):
        if stats is not None:
            stats.add(pair)
        yield pair
