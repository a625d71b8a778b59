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
counts; the caller already holds the input line, the pair's target.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring
from typing import Iterable, Iterator, Sequence
from weakref import WeakKeyDictionary

from luxnorm.dictionary import VariantDictionary
from luxnorm.parallel import ordered_map
from luxnorm.tokenizer import (
    apply_case_pattern,
    is_punctuation,
    is_token,
    splice,
    split_clitic,
    tokenize,
)

# sentences per process, the caller included. Measured when 2 pool workers ran beside a
# caller that ran no sentence: 2 tie with 1 at 7,500-10,000, win at 20,000 (synth-corpus, 2 cores)
CORRUPT_PER_WORKER = 5_000


@dataclass(frozen=True)
class SentencePair:
    """One aligned noisy/standard pair; corruption is 1:1 per token."""

    source: str
    target: str
    changed_tokens: int
    token_count: int

    def to_json(self) -> str:
        """The JSON line `json.dumps(..., ensure_ascii=False)` writes for
        the pair's source, target and changed count, spelled out with the
        string encoder it uses."""
        return (
            '{"source": ' + encode_basestring(self.source)
            + ', "target": ' + encode_basestring(self.target)
            + ', "changed": ' + int.__repr__(self.changed_tokens) + "}"
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
    pattern. A replacement that is not one token is the token itself:
    replacements must stay 1:1 at the token level.
    """
    if is_punctuation(token):
        return None
    prefix, core = split_clitic(token)
    key = dictionary.resolve(core)
    if key is None:
        return None
    variants = dictionary.variants(key)
    replacements = []
    for variant in variants:
        if key != core:
            variant = apply_case_pattern(core, variant)
        replacements.append(prefix + variant if is_token(prefix + variant) else token)
    return tuple(accumulate(variants.values())), tuple(replacements)


def pick_index(cumulative: Sequence[int], u: float) -> int:
    """Index a uniform draw u in [0, 1) selects from running counts.

    That is the first index whose running count exceeds u * total, so each
    index is chosen with probability count / total. For u in [0, 1),
    u * total < total even after rounding, so such an index exists; the
    clamp to the last index fires only at u = 1.0.
    """
    index = bisect_right(cumulative, u * cumulative[-1])
    return index if index < len(cumulative) else len(cumulative) - 1


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

    Blank lines are skipped and counted in `stats`. Up to `workers`
    processes, the caller included, share the sentences, at most one per
    CORRUPT_PER_WORKER of them, and a batch too small for two runs in
    process. Output is a pure function of (lines, dictionary, seed)
    regardless of `workers`.
    """
    tasks: list[tuple[int, str]] = []
    for index, raw in enumerate(lines):
        line = raw.rstrip("\n")
        if not line.strip():
            if stats is not None:
                stats.skipped_blank_lines += 1
            continue
        tasks.append((index, line))
    results = ordered_map(_corrupt_indexed, (dictionary, seed), tasks, workers, CORRUPT_PER_WORKER)
    for (_, line), (source, changed, token_count) in zip(tasks, results):
        pair = SentencePair(source, line, changed, token_count)
        if stats is not None:
            stats.add(pair)
        yield pair
