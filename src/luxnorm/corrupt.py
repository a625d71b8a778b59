"""Synthesize parallel noisy/standard sentence pairs from a variant dictionary.

Walks a standard-orthography corpus word by word and swaps in-dictionary
words for attested misspellings, sampled proportionally to their observed
frequency. Each sentence gets its own random stream derived from (seed,
line index), so output is identical no matter how many workers run or in
what order sentences are processed.

Each distinct token is resolved once per process into a type table entry:
its variants' running counts and one finished replacement per variant, so
every further occurrence costs one draw and one binary search. The table
lives as long as the dictionary and grows with the number of distinct
tokens seen. Pool workers send back only the corrupted line and its
counts; the parent already holds the input line, the pair's target.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator
from weakref import WeakKeyDictionary

from luxnorm.dictionary import VariantDictionary, pick_index
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
        return _JSON.encode(
            {"source": self.source, "target": self.target, "changed": self.changed_tokens}
        )


# what json.dumps(..., ensure_ascii=False) builds afresh on every call
_JSON = json.JSONEncoder(ensure_ascii=False)


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


# A type's entry: None when the token always stays as written, else its
# key's running variant counts and one finished replacement per variant.
_TypeEntry = tuple[tuple[int, ...], tuple[str, ...]] | None

# Type table per dictionary, filled as tokens are first seen. An entry
# depends only on the token and the dictionary, so output never depends on
# what the table holds; it goes away with its dictionary.
_TABLES: WeakKeyDictionary[VariantDictionary, dict[str, _TypeEntry]] = WeakKeyDictionary()


def _type_entry(token: str, dictionary: VariantDictionary) -> _TypeEntry:
    """Resolve one token type for corruption.

    Punctuation and out-of-dictionary tokens always pass through. Lookup
    strips a leading article clitic and tries the exact form before falling
    back to a case-folded match, whose replacements take the token's casing
    pattern. A variant containing whitespace replaces the token by itself:
    replacements must stay 1:1 at the token level.
    """
    if is_punctuation(token):
        return None
    prefix, core = split_clitic(token)
    key = dictionary.resolve(core)
    if key is None:
        return None
    replacements = []
    for entry in dictionary.variants(key):
        variant = entry.variant
        if any(ch.isspace() for ch in variant):
            replacements.append(token)
        elif key == core:
            replacements.append(prefix + variant)
        else:
            replacements.append(prefix + apply_case_pattern(core, variant))
    return dictionary.cumulative_counts(key), tuple(replacements)


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
    table = _TABLES.get(dictionary)
    if table is None:
        table = _TABLES[dictionary] = {}
    corrupted: list[str] = []
    changed = 0
    for token in tokens:
        u = rng.random()
        try:
            entry = table[token]
        except KeyError:
            entry = table[token] = _type_entry(token, dictionary)
        if entry is None:
            corrupted.append(token)
            continue
        cumulative, replacements = entry
        replacement = replacements[pick_index(cumulative, u)]
        corrupted.append(replacement)
        if replacement != token:
            changed += 1
    return SentencePair(
        source=splice(sentence, tokens, corrupted) if changed else sentence,
        target=sentence,
        changed_tokens=changed,
        token_count=len(tokens),
    )


def _corrupt_indexed(
    state: tuple[VariantDictionary, int], item: tuple[int, str]
) -> tuple[str, int, int]:
    dictionary, seed = state
    index, line = item
    pair = corrupt_sentence(line, dictionary, sentence_rng(seed, index))
    return pair.source, pair.changed_tokens, pair.token_count


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
    results = ordered_map(_corrupt_indexed, (dictionary, seed), tasks, workers)
    for (_, line), (source, changed, token_count) in zip(tasks, results):
        pair = SentencePair(source, line, changed, token_count)
        if stats is not None:
            stats.add(pair)
        yield pair
